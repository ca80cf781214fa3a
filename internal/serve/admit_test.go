package serve

// The failure table and the one reply, without a server behind them; then the
// request-level cases of the two deadline defects the table and the clamp fix.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/workload"
)

// bareServer is a Server with nothing behind it but an engine that never
// starts: the home of the decision counters its replies move.
func bareServer(t *testing.T) *Server {
	w, err := workload.New("bfs", graph.Road(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	return &Server{eng: runtime.NewEngine(w, runtime.Config{Workers: 1})}
}

// counters reads the four boundary counters in a fixed order.
func (s *Server) counters() [4]int64 {
	row := s.row()
	return [4]int64{row[obs.CServeShed].Load(), row[obs.CServeDeadlineHits].Load(), row[obs.CServeConnAborts].Load(), row[obs.CServeResumes].Load()}
}

// TestFailureTableBothProtocols walks the table once: every row, replied
// through the buffered protocol and through a terminal ack line, must say the
// same thing — and move its one counter, once per reply.
func TestFailureTableBothProtocols(t *testing.T) {
	// One error per row, in the table's order, as the code produces it.
	examples := []error{
		errDraining,
		errOverload,
		errDeadline,
		runtime.ErrStopped,
		&runtime.QuotaError{Job: 1, Name: "q", Limit: 8, Outstanding: 8, Tasks: 16},
		fmt.Errorf("runtime: job 1 (x): %w", runtime.ErrJobCancelled),
		&lineError{line: 7, msg: "bad task spec: unexpected end of JSON input"},
		errAborted,
		readFailure(os.ErrDeadlineExceeded, 1),
		readFailure(io.ErrUnexpectedEOF, 1),
	}
	if len(examples) != len(failures) {
		t.Fatalf("%d examples for %d table rows: give the new row one", len(examples), len(failures))
	}
	counterAt := map[obs.Counter]int{obs.CServeShed: 0, obs.CServeDeadlineHits: 1, obs.CServeConnAborts: 2, obs.CServeResumes: 3}
	const accepted = 512
	for i, err := range examples {
		row := failures[i]
		for j := range failures[:i] {
			if failures[j].match(err) {
				t.Fatalf("row %d's error %q is taken by row %d", i, err, j)
			}
		}
		if !row.match(err) {
			t.Fatalf("row %d does not match its error %q", i, err)
		}
		s := bareServer(t)
		var moved [4]int64
		if at, ok := counterAt[row.counter]; ok {
			moved[at] = 1
		} else if row.counter != noCounter {
			t.Fatalf("row %d counts %v: a row moves a serve decision counter or says noCounter", i, row.counter)
		}

		// Buffered: status line, Retry-After iff a hint, JSON envelope.
		buf := httptest.NewRecorder()
		s.reply(buf, nil, err, accepted)
		var eb errorBody
		if derr := json.Unmarshal(buf.Body.Bytes(), &eb); derr != nil {
			t.Fatalf("row %d: buffered body %q: %v", i, buf.Body.Bytes(), derr)
		}
		if buf.Code != row.status || eb.Error != err.Error() || eb.Accepted != accepted || eb.RetryAfterMs != row.retryMs {
			t.Errorf("row %d (%v): buffered reply %d %+v, want status %d retry %d", i, err, buf.Code, eb, row.status, row.retryMs)
		}
		if got := buf.Header().Get("Retry-After") != ""; got != (row.retryMs > 0) {
			t.Errorf("row %d (%v): Retry-After present = %v with hint %d", i, err, got, row.retryMs)
		}
		if got := buf.Header().Get("Connection") == "close"; got != errors.Is(err, errStalled) {
			t.Errorf("row %d (%v): Connection: close = %v, want it for the stall row alone", i, err, got)
		}
		if got := s.counters(); got != moved {
			t.Errorf("row %d (%v): buffered reply moved counters %v, want %v", i, err, got, moved)
		}

		// Acked: the same four facts in the terminal line of a committed 200.
		rec := httptest.NewRecorder()
		ack := startAckStream(rec)
		s.reply(rec, ack, err, accepted)
		ack.close()
		var last ackLine
		for sc := bufio.NewScanner(rec.Body); sc.Scan(); {
			last = ackLine{}
			if derr := json.Unmarshal(sc.Bytes(), &last); derr != nil {
				t.Fatalf("row %d: ack line %q: %v", i, sc.Bytes(), derr)
			}
		}
		want := ackLine{Accepted: accepted, Status: row.status, Error: err.Error(), RetryAfterMs: row.retryMs, Final: true}
		if rec.Code != http.StatusOK || last != want {
			t.Errorf("row %d (%v): acked reply %d %+v, want 200 then %+v", i, err, rec.Code, last, want)
		}
		for k := range moved {
			moved[k] *= 2
		}
		if got := s.counters(); got != moved {
			t.Errorf("row %d (%v): after both replies counters %v, want %v", i, err, got, moved)
		}
	}

	// Off the table is a server bug: 500, nothing counted; nil is the 200.
	s := bareServer(t)
	rec := httptest.NewRecorder()
	s.reply(rec, nil, errors.New("surprise"), 0)
	if rec.Code != http.StatusInternalServerError || s.counters() != [4]int64{} {
		t.Fatalf("unlisted error: status %d counters %v, want 500 and none", rec.Code, s.counters())
	}
	rec = httptest.NewRecorder()
	s.reply(rec, nil, nil, 3)
	if rec.Code != http.StatusOK || rec.Body.String() != "{\"accepted\":3}\n" {
		t.Fatalf("nil error: %d %q, want the 200 body", rec.Code, rec.Body.String())
	}
}

// lateReader delivers its body only after delay: a client slower than its
// request's deadline.
type lateReader struct {
	b     []byte
	delay time.Duration
	done  bool
}

func (r *lateReader) Read(p []byte) (int, error) {
	if r.done {
		return 0, io.EOF
	}
	time.Sleep(r.delay)
	r.done = true
	return copy(p, r.b), io.EOF
}

// TestServeCountersHaveOneHome drives each network-boundary decision once
// through the submit handler — a resumed stream, a body that dies mid-stream,
// a body slower than its deadline, a submit while draining — and reads them
// back from Info: with a recorder attached each field equals the sum over the
// counters lines of the engine's trace (the server counts on the engine's
// external row), and without one they still count.
func TestServeCountersHaveOneHome(t *testing.T) {
	for _, withObs := range []bool{true, false} {
		s, _ := newTestServer(t, func(c *Config) { c.Obs = withObs })
		line := ndjson(TaskSpec{Node: 1}).Bytes()
		for _, tc := range []struct {
			name   string
			body   io.Reader
			header map[string]string
			status int
		}{
			{"resume", bytes.NewReader(line), map[string]string{HeaderStreamID: "x", HeaderStreamOffset: "1"}, http.StatusOK},
			{"abort", &dataThenErrReader{b: line, err: io.ErrUnexpectedEOF}, nil, http.StatusBadRequest},
			{"deadline", &lateReader{b: line, delay: 20 * time.Millisecond}, map[string]string{HeaderDeadlineMs: "1"}, http.StatusServiceUnavailable},
			{"shed", bytes.NewReader(line), nil, http.StatusServiceUnavailable},
		} {
			if tc.name == "shed" {
				s.draining.Store(true)
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs/0/submit", tc.body)
			for k, v := range tc.header {
				req.Header.Set(k, v)
			}
			rec := httptest.NewRecorder()
			s.mux.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("obs %v, %s: status %d %s, want %d", withObs, tc.name, rec.Code, rec.Body, tc.status)
			}
		}
		info := s.info()
		for c, v := range map[obs.Counter]int64{
			obs.CServeShed:         info.Shed,
			obs.CServeDeadlineHits: info.DeadlineHits,
			obs.CServeConnAborts:   info.ConnAborts,
			obs.CServeResumes:      info.Resumes,
		} {
			if v != 1 {
				t.Errorf("obs %v: Info %s = %d, want 1", withObs, c, v)
			}
			if withObs {
				if got := traceTotal(t, s.eng, c); got != v {
					t.Errorf("%s: Info %d, trace total %d", c, v, got)
				}
			}
		}
	}
}

// TestAckWriterNilIsTheBufferedProtocol: the protocol differences inside a
// request are these methods, and nil answers for the protocol that never
// flushes on idle, has no heartbeats and writes no progress.
func TestAckWriterNilIsTheBufferedProtocol(t *testing.T) {
	var none *ackWriter
	if none.behind(5, 9) || none.heartbeats() {
		t.Fatal("a nil ackWriter asked for an idle flush or claimed heartbeats")
	}
	none.progress(9) // must not panic
	none.close()

	rec := httptest.NewRecorder()
	ack := startAckStream(rec)
	defer ack.close()
	if !ack.heartbeats() || !ack.behind(1, 0) || ack.behind(0, 0) {
		t.Fatal("an ack stream flushes on idle exactly when lines are pending or unconfirmed")
	}
	ack.progress(4)
	if ack.behind(0, 4) || !ack.behind(0, 5) {
		t.Fatal("behind must compare against the last count put on the wire")
	}
}

func TestParseDeadlineMs(t *testing.T) {
	const wraps = math.MaxInt64 / 1_000_000 // the first ms count whose Duration overflows is one past this
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0}, {"abc", 0}, {"0", 0}, {"-5", 0}, {"1.5", 0},
		{"99999999999999999999", 0}, // does not parse as int64: absent, like any malformed value
		{"1", time.Millisecond},
		{"50", 50 * time.Millisecond},
		{"86400000", maxRequestDeadline},
		{"86400001", maxRequestDeadline},
		{fmt.Sprint(wraps - 1), maxRequestDeadline},
		{fmt.Sprint(wraps), maxRequestDeadline},
		{fmt.Sprint(wraps + 1), maxRequestDeadline},
		{"9223372036854775807", maxRequestDeadline},
	} {
		if got := parseDeadlineMs(tc.in); got != tc.want {
			t.Errorf("parseDeadlineMs(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestHugeDeadlineHeaderIsNotAnExpiredOne: MaxInt64 milliseconds used to wrap
// negative in the Duration multiply, so the request was born expired and a
// healthy server answered 503 to every retry.
func TestHugeDeadlineHeaderIsNotAnExpiredOne(t *testing.T) {
	s, ts := newTestServer(t, nil)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/0/submit", ndjson(TaskSpec{Node: 1}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderDeadlineMs, "9223372036854775807")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"accepted":1`)) {
		t.Fatalf("status %d body %s, want 200 accepted 1", resp.StatusCode, body)
	}
	if n := s.info().DeadlineHits; n != 0 {
		t.Fatalf("%d deadline hits counted on a request that met its deadline", n)
	}
}

// TestDeadlineCutCountsOnce: one expiry is one deadline hit and no connection
// abort, whether the body read runs into it (the stall guard's read deadline
// is capped by the request's) or a flush finds the context dead (guard off).
func TestDeadlineCutCountsOnce(t *testing.T) {
	for name, stall := range map[string]time.Duration{"read side": 0, "flush side": -1} {
		t.Run(name, func(t *testing.T) {
			s, ts := newTestServer(t, func(c *Config) { c.SubmitStallTimeout = stall })
			pr, pw := io.Pipe()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/0/submit", pr)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(HeaderDeadlineMs, "50")
			go func() {
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
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(eb.Error, "deadline") {
				t.Fatalf("status %d %+v, want the 503 deadline answer", resp.StatusCode, eb)
			}
			if got, want := s.counters(), [4]int64{0, 1, 0, 0}; got != want {
				t.Fatalf("counters shed/deadline/abort/resume = %v, want %v", got, want)
			}
		})
	}
}

// traceTotal sums counter c over the counters lines of e's trace, read back
// through obs.ReadTrace.
func traceTotal(t *testing.T, e *runtime.Engine, c obs.Counter) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, row := range tr.Counters {
		sum += row[c.String()]
	}
	return sum
}
