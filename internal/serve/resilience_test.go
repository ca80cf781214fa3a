package serve

// Tests for the network-boundary hardening: readiness vs liveness, the
// exactly-once stream-resume protocol, deadline propagation, the slow-client
// stall detector, an abrupt client disconnect mid-stream, and the retrying
// client's backoff/resume loop against a scripted server.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdcps/internal/chaos"
	"hdcps/internal/load"
)

func TestReadyzAndHealthzSplit(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on a live ready server: %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestJobCreateRejectsOutOfRange: POST /v1/jobs is outside input. A weight
// the engine would have to clamp, a negative quota, a body past the size
// bound and a key JobSpec does not have (tdf_bias, a setting the engine no
// longer has, in or out of its old range) all answer 400 and create nothing;
// an unknown key's answer names it.
func TestJobCreateRejectsOutOfRange(t *testing.T) {
	s, ts := newTestServer(t, nil)
	bodies := []string{
		`{"weight":4611686018427387904}`,
		`{"weight":65537}`,
		`{"weight":-1}`,
		`{"tdf_bias":10001}`,
		`{"tdf_bias":-5}`,
		`{"tdf_bias":100}`,
		`{"max_outstanding":-1}`,
		`{"name":"` + strings.Repeat("x", maxJobSpecBytes) + `"}`,
	}
	for _, body := range bodies {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%.40s: status %d, want 400", body, resp.StatusCode)
		}
		if strings.Contains(body, "tdf_bias") && !strings.Contains(eb.Error, "tdf_bias") {
			t.Errorf("%s: error %q does not name the unknown key", body, eb.Error)
		}
	}
	if n := len(s.eng.Snapshot().Jobs); n != 1 {
		t.Fatalf("%d jobs after %d refused creates, want the default job alone", n, len(bodies))
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"name":"edge","weight":65536,"max_outstanding":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("in-range create: status %d, want 201", resp.StatusCode)
	}
}

// postStream posts NDJSON with the resume headers and decodes the response.
func postStream(t *testing.T, url, streamID string, offset int64, body io.Reader) (*http.Response, errorBody, submitResult) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(HeaderStreamID, streamID)
	req.Header.Set(HeaderStreamOffset, fmt.Sprint(offset))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var eb errorBody
	var sr submitResult
	if resp.StatusCode == http.StatusOK {
		_ = json.Unmarshal(raw, &sr)
	} else {
		_ = json.Unmarshal(raw, &eb)
	}
	return resp, eb, sr
}

// TestStreamResumeSkipsAdmitted replays the lost-response scenario by hand:
// the same request body re-sent with an unchanged offset must not re-admit
// the lines the server already took, but must still confirm them.
func TestStreamResumeSkipsAdmitted(t *testing.T) {
	s, ts := newTestServer(t, nil)
	url := ts.URL + "/v1/jobs/0/submit"
	specs := []TaskSpec{{Node: 1}, {Node: 2}, {Node: 3}}

	resp, _, sr := postStream(t, url, "resume-test", 0, ndjson(specs...))
	if resp.StatusCode != http.StatusOK || sr.Accepted != 3 {
		t.Fatalf("first attempt: status %d accepted %d, want 200/3", resp.StatusCode, sr.Accepted)
	}
	base := s.accepted.Load()

	// The "response was lost" retry: identical body, identical offset. The
	// tracker knows 3 lines are admitted; the server must confirm 3 without
	// submitting anything new.
	resp, _, sr = postStream(t, url, "resume-test", 0, ndjson(specs...))
	if resp.StatusCode != http.StatusOK || sr.Accepted != 3 {
		t.Fatalf("replay: status %d accepted %d, want 200/3", resp.StatusCode, sr.Accepted)
	}
	if got := s.accepted.Load(); got != base {
		t.Fatalf("replay re-admitted work: server accepted %d -> %d", base, got)
	}
	if s.info().Resumes == 0 {
		t.Fatal("replay did not count as a resume")
	}

	// The client advances and sends the genuine suffix.
	resp, _, sr = postStream(t, url, "resume-test", 3, ndjson(TaskSpec{Node: 4}, TaskSpec{Node: 5}))
	if resp.StatusCode != http.StatusOK || sr.Accepted != 2 {
		t.Fatalf("suffix: status %d accepted %d, want 200/2", resp.StatusCode, sr.Accepted)
	}
	if got := s.accepted.Load(); got != base+2 {
		t.Fatalf("suffix admitted %d new tasks, want 2", got-base)
	}
}

// TestSubmitDeadlineCutsPrefix: a mid-stream deadline expiry returns 503
// with the admitted prefix — retryable backpressure, not a dropped stream.
func TestSubmitDeadlineCutsPrefix(t *testing.T) {
	s, ts := newTestServer(t, nil)
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/0/submit", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(HeaderDeadlineMs, "50")
	go func() {
		// One full flush quickly, then outlive the deadline, then force a
		// second flush that must see the expired context.
		_, _ = pw.Write(ndjson(make([]TaskSpec, submitFlush)...).Bytes())
		time.Sleep(150 * time.Millisecond)
		_, _ = pw.Write(ndjson(make([]TaskSpec, submitFlush)...).Bytes())
		pw.Close()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 on deadline expiry", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Accepted%submitFlush != 0 || eb.Accepted >= 2*submitFlush {
		t.Fatalf("admitted prefix %d, want a flush multiple below %d", eb.Accepted, 2*submitFlush)
	}
	if s.info().DeadlineHits == 0 {
		t.Fatal("deadline hit not counted")
	}
}

// TestSubmitStallDetectorAborts: a client that stops sending mid-body is cut
// with 408 + Connection: close, and the admitted prefix is reported.
func TestSubmitStallDetectorAborts(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.SubmitStallTimeout = 100 * time.Millisecond })
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/0/submit", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	done := make(chan struct{})
	go func() {
		defer close(done)
		// submitFlush+44 lines: one flush lands, 44 sit in the scanner, then
		// the body goes silent while the connection stays open.
		_, _ = pw.Write(ndjson(make([]TaskSpec, submitFlush+44)...).Bytes())
		<-done // hold the pipe open until the response arrives
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("expected a 408 response, got transport error %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408 from the stall detector", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Accepted != submitFlush {
		t.Fatalf("stall abort reported %d admitted, want the flushed prefix %d", eb.Accepted, submitFlush)
	}
	if s.info().ConnAborts == 0 {
		t.Fatal("stall abort not counted")
	}
	pw.Close()
}

// TestClientDisconnectMidStream kills a raw TCP connection partway through
// an NDJSON stream, then proves the server accounted exactly the admitted
// prefix: a resume of the same stream admits only the remainder, and the
// ledger is exact at quiescence.
func TestClientDisconnectMidStream(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.SubmitStallTimeout = 200 * time.Millisecond })
	const total = 600

	var body strings.Builder
	for i := 0; i < total; i++ {
		fmt.Fprintf(&body, `{"node":%d}`+"\n", i%100)
	}
	payload := body.String()
	half := len(payload) / 2

	addr := strings.TrimPrefix(ts.URL, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Chunked so the abort happens mid-body with no Content-Length promise.
	fmt.Fprintf(conn, "POST /v1/jobs/0/submit HTTP/1.1\r\nHost: %s\r\n%s: disconnect-test\r\n%s: 0\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n",
		addr, HeaderStreamID, HeaderStreamOffset)
	fmt.Fprintf(conn, "%x\r\n%s\r\n", half, payload[:half])
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0) // RST, not FIN: the body just vanishes
	}
	conn.Close()

	// The handler dies on the reset (or the stall detector); the resume
	// below serializes behind it via the stream tracker, so no extra sync is
	// needed — just replay the full stream with offset 0.
	resp, _, sr := postStream(t, ts.URL+"/v1/jobs/0/submit", "disconnect-test", 0, strings.NewReader(payload))
	if resp.StatusCode != http.StatusOK || sr.Accepted != total {
		t.Fatalf("resume: status %d accepted %d, want 200/%d", resp.StatusCode, sr.Accepted, total)
	}

	// Exactly-once: the seed task + exactly `total` admissions, never more,
	// no matter how much of the half-stream the first handler consumed.
	if got := s.accepted.Load(); got != total+1 {
		t.Fatalf("server accepted %d tasks, want %d (exactly-once across the disconnect)", got-1, total)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var ck chaos.Checker
	if err := ck.Quiescent(s.eng.Snapshot()); err != nil {
		t.Fatalf("ledger after disconnect: %v", err)
	}
	if sub := s.eng.Snapshot().Submitted; sub != total+1 {
		t.Fatalf("ledger submitted %d, want %d", sub, total+1)
	}
}

// serveAckStream is the healthy half of a scripted server: it speaks the
// progress-ack protocol, counts every task line as admitted, acks whenever
// the body idles, closes with a 200 terminal line at EOF and returns the
// count.
func serveAckStream(w http.ResponseWriter, r *http.Request) int64 {
	_ = http.NewResponseController(w).EnableFullDuplex()
	ack := startAckStream(w)
	defer ack.close()
	fr := newLineFramer(r.Body)
	defer fr.release()
	var lines int64
	for {
		if !fr.buffered() {
			ack.progress(lines)
		}
		raw, err := fr.next()
		if err != nil {
			break
		}
		if len(raw) > 0 {
			lines++
		}
	}
	ack.final(http.StatusOK, "", 0, lines)
	return lines
}

// TestRetryClientResumesAfterLostWork scripts the server side: attempt one
// sheds with an admitted prefix inside the batch, attempt two must arrive
// with the advanced offset, carry only the unconfirmed suffix, and only then
// succeed.
func TestRetryClientResumesAfterLostWork(t *testing.T) {
	var attempts, gotOffset, gotLines atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs/5/submit", func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			// A plain buffered 503, as a shed before the ack stream opens
			// (full duplex: the reply must not wait for the open body).
			_ = http.NewResponseController(w).EnableFullDuplex()
			w.Header().Set("Retry-After", "0")
			writeJSON(w, http.StatusServiceUnavailable, errorBody{
				Error: "shed", Accepted: 7, RetryAfterMs: 1,
			})
			return
		}
		gotOffset.Store(parseStreamOffset(r.Header.Get(HeaderStreamOffset)))
		gotLines.Store(serveAckStream(w, r))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := &Client{Base: ts.URL}
	var st RetryStats
	pol := RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Seed: 7}
	ps := cl.PersistentStream(5, pol, &st)
	admitted, err := ps.Submit(context.Background(), make([]TaskSpec, 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	ts.Close() // waits for the handler, which stores gotLines after its last ack
	if admitted != 20 {
		t.Fatalf("admitted %d, want 20", admitted)
	}
	if attempts.Load() != 2 {
		t.Fatalf("attempts %d, want 2", attempts.Load())
	}
	if gotOffset.Load() != 7 {
		t.Fatalf("retry carried offset %d, want the admitted prefix 7", gotOffset.Load())
	}
	if gotLines.Load() != 13 {
		t.Fatalf("retry resent %d lines, want the unconfirmed suffix 13", gotLines.Load())
	}
	if st.Retries.Load() != 1 || st.Resumes.Load() != 1 {
		t.Fatalf("stats %s, want 1 retry / 1 resume", st.String())
	}
}

// scriptedStatus answers every submit with a buffered error of the stored
// status until it is set to 200, from when it serves the ack protocol.
func scriptedStatus(t *testing.T, status *atomic.Int64) *Client {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs/1/submit", func(w http.ResponseWriter, r *http.Request) {
		if st := int(status.Load()); st != http.StatusOK {
			_ = http.NewResponseController(w).EnableFullDuplex()
			writeJSON(w, st, errorBody{Error: "scripted"})
			return
		}
		serveAckStream(w, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL}
}

// TestRetryClientTerminalAndExhaustion: terminal answers stop immediately;
// persistent backpressure burns the attempt cap and reports exhaustion.
func TestRetryClientTerminalAndExhaustion(t *testing.T) {
	var status atomic.Int64
	cl := scriptedStatus(t, &status)
	pol := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 3}
	submit := func(st *RetryStats) error {
		ps := cl.PersistentStream(1, pol, st)
		defer ps.Close()
		_, err := ps.Submit(context.Background(), make([]TaskSpec, 4))
		return err
	}

	status.Store(http.StatusBadRequest)
	var st RetryStats
	if err := submit(&st); err == nil || errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("400 should be terminal, got %v", err)
	}
	if st.Attempts.Load() != 1 {
		t.Fatalf("terminal status retried: %s", st.String())
	}

	status.Store(http.StatusServiceUnavailable)
	var st2 RetryStats
	if err := submit(&st2); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("persistent 503 should exhaust retries, got %v", err)
	}
	if st2.Attempts.Load() != 3 {
		t.Fatalf("attempts %d, want the MaxAttempts cap 3", st2.Attempts.Load())
	}
}

// TestStreamSendersReopenAfterGiveUp: an outage that spends the policy
// kills the streams it met, not their senders — once the server recovers,
// the next batches ride fresh streams and are accepted. Each sender runs on
// a goroutine of its own, as load.Run drives them.
func TestStreamSendersReopenAfterGiveUp(t *testing.T) {
	var status atomic.Int64
	status.Store(http.StatusServiceUnavailable)
	cl := scriptedStatus(t, &status)
	pol := RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 5}
	var st RetryStats
	gen := func(n int) []TaskSpec { return make([]TaskSpec, n) }
	senders, closer := cl.StreamSenders(context.Background(), 1, gen, 2, pol, &st)
	defer closer.Close()

	wave := func(phase string, wantN int, want load.Outcome) {
		t.Helper()
		var wg sync.WaitGroup
		for _, send := range senders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 4; k++ {
					if n, out, err := send(8); n != wantN || out != want {
						t.Errorf("%s: %d admitted, outcome %v, err %v; want %d and %v", phase, n, out, err, wantN, want)
					}
				}
			}()
		}
		wg.Wait()
	}
	wave("during the outage", 0, load.Backpressure)
	if st.GiveUps.Load() == 0 {
		t.Fatalf("the outage should have spent the policy: %s", st.String())
	}
	status.Store(http.StatusOK)
	wave("after recovery", 8, load.Accepted)
}

// TestStreamSendersClassifyGiveUps: the policy running out is
// Backpressure only while the server kept answering; a port nobody listens
// on, or a terminal answer, is a ServerError.
func TestStreamSendersClassifyGiveUps(t *testing.T) {
	var status atomic.Int64
	pol := RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 9}
	gen := func(n int) []TaskSpec { return make([]TaskSpec, n) }
	live := scriptedStatus(t, &status)
	dead := &Client{Base: "http://127.0.0.1:1", HC: &http.Client{Timeout: time.Second}}
	for _, tc := range []struct {
		name   string
		cl     *Client
		status int
		want   load.Outcome
	}{
		{"persistent 503", live, http.StatusServiceUnavailable, load.Backpressure},
		{"persistent 429", live, http.StatusTooManyRequests, load.Backpressure},
		{"terminal 409", live, http.StatusConflict, load.ServerError},
		{"dead port", dead, 0, load.ServerError},
	} {
		status.Store(int64(tc.status))
		senders, closer := tc.cl.StreamSenders(context.Background(), 1, gen, 1, pol, nil)
		n, out, err := senders[0](4)
		closer.Close()
		if n != 0 || out != tc.want {
			t.Errorf("%s: %d admitted, outcome %v (err %v), want 0 and %v", tc.name, n, out, err, tc.want)
		}
		if (out == load.ServerError) != (err != nil) {
			t.Errorf("%s: outcome %v with err %v", tc.name, out, err)
		}
	}

	// A mixed outage — one attempt answered 503, the other cut without an
	// answer — is a ServerError in either order: the server did not keep
	// answering.
	for _, script := range [][2]int{{http.StatusServiceUnavailable, 0}, {0, http.StatusServiceUnavailable}} {
		var attempts atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			st := script[min(attempts.Add(1)-1, 1)]
			if st == 0 {
				if c, _, err := w.(http.Hijacker).Hijack(); err == nil {
					c.Close()
				}
				return
			}
			_ = http.NewResponseController(w).EnableFullDuplex()
			writeJSON(w, st, errorBody{Error: "scripted"})
		}))
		senders, closer := (&Client{Base: ts.URL}).StreamSenders(context.Background(), 1, gen, 1, pol, nil)
		n, out, err := senders[0](4)
		closer.Close()
		ts.Close()
		if n != 0 || out != load.ServerError || err == nil || errors.Is(err, ErrRetriesExhausted) {
			t.Errorf("outage %v: %d admitted, outcome %v, err %v; want 0, ServerError and a plain error", script, n, out, err)
		}
		if attempts.Load() != 2 {
			t.Errorf("outage %v: %d attempts, want the MaxAttempts cap 2", script, attempts.Load())
		}
	}
}

// TestWaitReady: not ready while nothing listens, ready once the server is up.
func TestWaitReady(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cl := &Client{Base: ts.URL}
	if err := cl.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	dead := &Client{Base: "http://127.0.0.1:1", HC: &http.Client{Timeout: 200 * time.Millisecond}}
	if err := dead.WaitReady(context.Background(), 300*time.Millisecond); err == nil {
		t.Fatal("WaitReady succeeded against nothing")
	}
}
