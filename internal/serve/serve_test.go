package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hdcps/internal/runtime"
)

// submitResult is the 200 body of a submit (bodyBuf.acceptedLine writes it).
type submitResult struct {
	Accepted int64 `json:"accepted"`
}

// newTestServer boots a small server; the caller owns Shutdown.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Workload: "sssp", Input: "road", Scale: "tiny", Seed: 42,
		Workers: 2, SeedInitial: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := s.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return s, ts
}

func ndjson(specs ...TaskSpec) *bytes.Buffer {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range specs {
		_ = enc.Encode(sp)
	}
	return &buf
}

// TestNewRefusesUnknownQueueKind: a queue kind arrives from outside
// (hdcps-serve -queue), so a typo is an error naming the valid kinds, not a
// server that reports the typo on /v1/info and runs the default kind.
func TestNewRefusesUnknownQueueKind(t *testing.T) {
	s, err := New(Config{Scale: "tiny", Workers: 2, QueueKind: "mutliqueue"})
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, _ = s.Shutdown(ctx)
		t.Fatal("New accepted queue kind \"mutliqueue\"")
	}
	for _, kind := range append(runtime.QueueKinds(), "mutliqueue") {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not name %q", err, kind)
		}
	}
}

func TestSubmitAcceptsAndCounts(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/v1/jobs/0/submit", "application/x-ndjson",
		ndjson(TaskSpec{Node: 1}, TaskSpec{Node: 2}, TaskSpec{Node: 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var res submitResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 {
		t.Fatalf("accepted %d, want 3", res.Accepted)
	}
	// 3 external tasks + 1 initial seed, all in the server's accepted count.
	if got := s.accepted.Load(); got != 4 {
		t.Fatalf("server accepted %d, want 4", got)
	}
}

func TestSubmitQuotaMapsTo429(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.DefaultQuota = 8 })
	specs := make([]TaskSpec, 16)
	resp, err := http.Post(ts.URL+"/v1/jobs/0/submit", "application/x-ndjson", ndjson(specs...))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After header")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.RetryAfterMs <= 0 {
		t.Fatalf("429 body must carry retry_after_ms: %+v", eb)
	}
	if !strings.Contains(eb.Error, "quota") {
		t.Fatalf("429 body should name the quota: %+v", eb)
	}
}

func TestSubmitWhileDrainingIs503(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.draining.Store(true)
	defer s.draining.Store(false) // let cleanup Shutdown run normally
	resp, err := http.Post(ts.URL+"/v1/jobs/0/submit", "application/x-ndjson", ndjson(TaskSpec{Node: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry a Retry-After header")
	}
	// Readiness flips with the same flag; liveness must not — a draining
	// server is alive, just out of rotation.
	rdy, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rdy.Body.Close()
	if rdy.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d, want 503", rdy.StatusCode)
	}
	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz status %d, want 200 (pure liveness)", h.StatusCode)
	}
}

func TestGlobalOverloadShedIs503(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Scale = "small"
		c.Workers = 1
		c.MaxOutstanding = 1
	})
	// Quiesce the seeded initial cascade first: with it still outstanding
	// the very first flush check would shed at accepted 0, and the point
	// here is the *mid-stream* shed reporting a non-empty admitted prefix.
	if err := s.eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Each refresh wave cascades on the small road graph, so outstanding
	// exceeds the tiny global limit by the second flush. Retry a few times
	// in case the single worker somehow kept up.
	specs := make([]TaskSpec, 600)
	for i := range specs {
		specs[i] = TaskSpec{Node: uint32(i * 7 % s.g.NumNodes())}
	}
	for attempt := 0; attempt < 10; attempt++ {
		resp, err := http.Post(ts.URL+"/v1/jobs/0/submit", "application/x-ndjson", ndjson(specs...))
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(eb.Error, "outstanding") {
				t.Fatalf("503 should name the global shed: %+v", eb)
			}
			if eb.Accepted == 0 || eb.Accepted%submitFlush != 0 {
				t.Fatalf("shed mid-stream must report the admitted prefix in flush units: %+v", eb)
			}
			return
		}
		if code != http.StatusOK {
			t.Fatalf("attempt %d: status %d, want 200 or 503", attempt, code)
		}
	}
	t.Fatal("global overload shed never triggered")
}

func TestCancelledJobIs409(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body, _ := json.Marshal(JobSpec{Name: "victim", Weight: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID uint32 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.ID == 0 {
		t.Fatalf("job create: status %d id %d", resp.StatusCode, created.ID)
	}

	c, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/cancel", ts.URL, created.ID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Body.Close()
	if c.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", c.StatusCode)
	}

	sub, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/submit", ts.URL, created.ID),
		"application/x-ndjson", ndjson(TaskSpec{Node: 1}))
	if err != nil {
		t.Fatal(err)
	}
	sub.Body.Close()
	if sub.StatusCode != http.StatusConflict {
		t.Fatalf("submit to cancelled job: status %d, want 409", sub.StatusCode)
	}
}

func TestSubmitRejectsBadInput(t *testing.T) {
	s, ts := newTestServer(t, nil)
	for name, body := range map[string]string{
		"garbage":      "{not json}\n",
		"out-of-range": fmt.Sprintf(`{"node":%d}`+"\n", s.g.NumNodes()),
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs/0/submit", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if !strings.Contains(eb.Error, "line 1") {
			t.Fatalf("%s: error should name the offending line: %+v", name, eb)
		}
	}
}

func TestDrainEndpointReturnsQuiescentLedger(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/v1/jobs/0/submit", "application/x-ndjson",
		ndjson(TaskSpec{Node: 5}, TaskSpec{Node: 6}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	d, err := http.Post(ts.URL+"/v1/jobs/0/drain?timeout=20s", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Body.Close()
	if d.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", d.StatusCode)
	}
	var st runtime.JobStats
	if err := json.NewDecoder(d.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Outstanding != 0 {
		t.Fatalf("drained job still outstanding %d", st.Outstanding)
	}
	if in, out := st.Submitted+st.Spawned, st.Processed+st.BagsRetired+st.Quarantined+st.CancelledTasks; in != out {
		t.Fatalf("job ledger unbalanced after drain: in %d out %d", in, out)
	}
}

func TestUnknownJobIs404AndOpsplaneServes(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Obs = true })
	resp, err := http.Post(ts.URL+"/v1/jobs/99/submit", "application/x-ndjson", ndjson(TaskSpec{Node: 1}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
	for _, path := range []string{"/v1/info", "/v1/snapshot", "/v1/jobs", "/debug/vars", "/debug/obs"} {
		g, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		g.Body.Close()
		if g.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, g.StatusCode)
		}
	}
}

func TestInfoExposesNodeRange(t *testing.T) {
	s, ts := newTestServer(t, nil)
	var info Info
	g, err := http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Body.Close()
	if err := json.NewDecoder(g.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Nodes != s.g.NumNodes() || info.Workload != "sssp" || info.Queue == "" {
		t.Fatalf("info incomplete: %+v", info)
	}
}
