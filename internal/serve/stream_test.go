package serve

// Tests for the progress-ack protocol and the persistent-stream client.
// These need a real HTTP server (full duplex does not exist on recorders),
// so they run against httptest.NewServer, and the fault tests wrap the
// listener in netchaos exactly like the soak.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdcps/internal/load"
	"hdcps/internal/netchaos"
)

func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return lis
}

func streamPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    30,
		BaseBackoff:    2 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Budget:         60 * time.Second,
		RequestTimeout: 5 * time.Second,
		Seed:           7,
	}
}

// TestProgressAckProtocol drives the wire protocol by hand: one request
// holding the body open, asserting a flush ack arrives while the request is
// still streaming and the terminal line closes it out.
func TestProgressAckProtocol(t *testing.T) {
	s, ts := newTestServer(t, nil)
	_ = s
	pr, pw := newBlockingBody()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/0/submit", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(HeaderAckFlush, "1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want immediate 200", resp.StatusCode)
	}
	if resp.Header.Get(HeaderAckFlush) == "" {
		t.Fatal("server did not echo the ack protocol header")
	}

	// First batch: 3 lines, then idle → the server must flush and ack
	// without seeing EOF.
	body := appendTaskSpecLine(nil, TaskSpec{Node: 1})
	body = appendTaskSpecLine(body, TaskSpec{Node: 2})
	body = appendTaskSpecLine(body, TaskSpec{Node: 3})
	if _, err := pw.Write(body); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	readAck := func() ackLine {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("ack stream ended early: %v", sc.Err())
		}
		var al ackLine
		if err := json.Unmarshal(sc.Bytes(), &al); err != nil {
			t.Fatalf("bad ack line %q: %v", sc.Bytes(), err)
		}
		return al
	}
	if al := readAck(); al.Accepted != 3 || al.Final {
		t.Fatalf("first ack = %+v, want accepted 3, not final", al)
	}
	// Second batch on the same request.
	if _, err := pw.Write(appendTaskSpecLine(nil, TaskSpec{Node: 4})); err != nil {
		t.Fatal(err)
	}
	if al := readAck(); al.Accepted != 4 || al.Final {
		t.Fatalf("second ack = %+v, want accepted 4, not final", al)
	}
	pw.Close()
	if al := readAck(); !al.Final || al.Status != http.StatusOK || al.Accepted != 4 {
		t.Fatalf("terminal ack = %+v, want final status 200 accepted 4", al)
	}
}

// TestProgressAckInBandError: a bad line after the 200 commits must arrive
// as a terminal ack line carrying the legacy status and error text.
func TestProgressAckInBandError(t *testing.T) {
	_, ts := newTestServer(t, nil)
	pr, pw := newBlockingBody()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/0/submit", pr)
	req.Header.Set(HeaderAckFlush, "1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go func() {
		pw.Write([]byte("{not json}\n"))
		pw.Close()
	}()
	sc := bufio.NewScanner(resp.Body)
	var last ackLine
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad ack line %q: %v", sc.Bytes(), err)
		}
		if last.Final {
			break
		}
	}
	if last.Status != http.StatusBadRequest || !strings.Contains(last.Error, "line 1") {
		t.Fatalf("terminal = %+v, want in-band 400 naming line 1", last)
	}
}

// blockingBody is an io.Pipe wrapper usable as a request body from tests.
func newBlockingBody() (*blockingBody, *blockingBody) {
	pr, pw := newPipePair()
	return pr, pw
}

type blockingBody struct {
	read  func(p []byte) (int, error)
	write func(p []byte) (int, error)
	close func() error
}

func (b *blockingBody) Read(p []byte) (int, error)  { return b.read(p) }
func (b *blockingBody) Write(p []byte) (int, error) { return b.write(p) }
func (b *blockingBody) Close() error                { return b.close() }

func newPipePair() (*blockingBody, *blockingBody) {
	type pipe struct {
		mu     sync.Mutex
		cond   *sync.Cond
		buf    []byte
		closed bool
	}
	p := &pipe{}
	p.cond = sync.NewCond(&p.mu)
	r := &blockingBody{
		read: func(out []byte) (int, error) {
			p.mu.Lock()
			defer p.mu.Unlock()
			for len(p.buf) == 0 && !p.closed {
				p.cond.Wait()
			}
			if len(p.buf) == 0 {
				return 0, io.EOF
			}
			n := copy(out, p.buf)
			p.buf = p.buf[n:]
			return n, nil
		},
		close: func() error { return nil },
	}
	w := &blockingBody{
		write: func(in []byte) (int, error) {
			p.mu.Lock()
			defer p.mu.Unlock()
			p.buf = append(p.buf, in...)
			p.cond.Broadcast()
			return len(in), nil
		},
		close: func() error {
			p.mu.Lock()
			defer p.mu.Unlock()
			p.closed = true
			p.cond.Broadcast()
			return nil
		},
	}
	return r, w
}

func TestPersistentStreamSubmits(t *testing.T) {
	s, ts := newTestServer(t, nil)
	cl := &Client{Base: ts.URL, HC: ts.Client()}
	var st RetryStats
	ps := cl.PersistentStream(0, streamPolicy(), &st)
	ctx := context.Background()
	nodes := s.g.NumNodes()
	base := s.accepted.Load() // initial seeds

	var total int64
	for round := 0; round < 40; round++ {
		specs := make([]TaskSpec, 97) // not a multiple of submitFlush
		for i := range specs {
			specs[i] = TaskSpec{Node: uint32((round*97 + i) % nodes)}
		}
		acc, err := ps.Submit(ctx, specs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if acc != 97 {
			t.Fatalf("round %d: admitted %d, want 97", round, acc)
		}
		total += acc
	}
	if got := confirmedOf(ps); got != total {
		t.Fatalf("confirmed %d, want %d", got, total)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.accepted.Load() - base; got != total {
		t.Fatalf("server accepted %d, client confirmed %d", got, total)
	}
	// The whole run must ride ONE request: that is the point.
	if a := st.Attempts.Load(); a != 1 {
		t.Fatalf("run used %d attempts, want 1 persistent request (stats %s)", a, st.String())
	}
}

func TestPersistentStreamConcurrentSubmits(t *testing.T) {
	s, ts := newTestServer(t, nil)
	cl := &Client{Base: ts.URL, HC: ts.Client()}
	ps := cl.PersistentStream(0, streamPolicy(), nil)
	ctx := context.Background()
	nodes := s.g.NumNodes()
	base := s.accepted.Load()

	const (
		goroutines = 8
		perG       = 20
		batch      = 33
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < perG; r++ {
				specs := make([]TaskSpec, batch)
				for i := range specs {
					specs[i] = TaskSpec{Node: uint32((g + r + i) % nodes)}
				}
				if acc, err := ps.Submit(ctx, specs); err != nil || acc != batch {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := int64(goroutines * perG * batch)
	if got := confirmedOf(ps); got != want {
		t.Fatalf("confirmed %d, want %d", got, want)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.accepted.Load() - base; got != want {
		t.Fatalf("server accepted %d, want %d", got, want)
	}
}

// TestPersistentStreamReconnects: mid-stream RSTs must be healed by the
// reconnect/resume path with exactly-once accounting.
func TestPersistentStreamReconnects(t *testing.T) {
	s, err := New(Config{
		Workload: "sssp", Input: "road", Scale: "tiny", Seed: 42,
		Workers: 2, SubmitStallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	inner := newLocalListener(t)
	lis := netchaos.Wrap(inner, netchaos.Config{Seed: 211, RST: 0.25})
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(lis) }()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := &Client{Base: "http://" + inner.Addr().String()}
	if err := cl.WaitReady(ctx, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	var st RetryStats
	ps := cl.PersistentStream(0, streamPolicy(), &st)
	nodes := s.g.NumNodes()
	var confirmed int64
	for round := 0; round < 60; round++ {
		specs := make([]TaskSpec, 256)
		for i := range specs {
			specs[i] = TaskSpec{Node: uint32((round + i) % nodes)}
		}
		acc, err := ps.Submit(ctx, specs)
		confirmed += acc
		if err != nil {
			t.Fatalf("round %d: %v (stats %s, net %s)", round, err, st.String(), lis.Stats())
		}
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if lis.Stats().Resets.Load() == 0 {
		t.Fatal("no RSTs fired — the test proved nothing")
	}
	if st.Retries.Load() == 0 {
		t.Fatalf("stream never reconnected (%s) — faults did not reach it", st.String())
	}
	if n := st.Reconnect.Count(); n != st.Resumes.Load() {
		t.Fatalf("%d reconnect samples, want one a resume (%s)", n, st.String())
	}
	t.Logf("reconnect p99 %s (2x MaxBackoff %s); %s",
		time.Duration(st.Reconnect.Quantile(0.99)), 2*streamPolicy().MaxBackoff, st.String())
	rep, err := s.Shutdown(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.LedgerExact {
		t.Fatalf("ledger not exact: %+v", rep)
	}
	if rep.Accepted != confirmed {
		t.Fatalf("server accepted %d, client confirmed %d — exactly-once violated", rep.Accepted, confirmed)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestResetEndsTheAttempt: a connection reset ends the attempt when it
// arrives. The scripted server reads the first line of the first attempt,
// then resets the connection before any reply; the second attempt is served
// for real. The batch must be confirmed well inside the heartbeat's 1-s
// spacing, which is all that noticed the reset while nothing read the
// stream's connection.
func TestResetEndsTheAttempt(t *testing.T) {
	s, _ := newTestServer(t, nil)
	real := s.mux
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) > 1 {
			real.ServeHTTP(w, r)
			return
		}
		if _, err := bufio.NewReader(r.Body).ReadString('\n'); err != nil {
			t.Errorf("first attempt: reading its first line: %v", err)
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		_ = conn.(*net.TCPConn).SetLinger(0)
		conn.Close()
	}))
	t.Cleanup(ts.Close)

	var st RetryStats
	ps := (&Client{Base: ts.URL}).PersistentStream(0, RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Seed: 1}, &st)
	defer ps.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	specs := []TaskSpec{{Node: 1}, {Node: 2}, {Node: 3}}
	if acc, err := ps.Submit(ctx, specs); err != nil || acc != int64(len(specs)) {
		t.Fatalf("admitted %d of %d, err %v (%s): the reset was noticed late", acc, len(specs), err, st.String())
	}
	if a := attempts.Load(); a != 2 {
		t.Fatalf("%d attempts, want the reset one and its retry", a)
	}
}

// TestIdleStreamOutlivesTheStallGuard: a stream with nothing to send gives
// the server a heartbeat line every RequestTimeout/4, so an idle spell
// several times the server's stall window costs no attempt.
func TestIdleStreamOutlivesTheStallGuard(t *testing.T) {
	const stall = 150 * time.Millisecond
	_, ts := newTestServer(t, func(c *Config) { c.SubmitStallTimeout = stall })
	var st RetryStats
	ps := (&Client{Base: ts.URL, HC: ts.Client()}).PersistentStream(0, RetryPolicy{RequestTimeout: stall, Seed: 1}, &st)
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		if acc, err := ps.Submit(ctx, []TaskSpec{{Node: 1}}); err != nil || acc != 1 {
			t.Fatalf("round %d: admitted %d, err %v", round, acc, err)
		}
		time.Sleep(3 * stall)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if a := st.Attempts.Load(); a != 1 {
		t.Fatalf("%d attempts, want the one request to outlive the idle spells (%s)", a, st.String())
	}
}

// TestPersistentStreamTerminalError: a non-retryable in-band failure (bad
// node) must kill the stream and surface on Submit.
func TestPersistentStreamTerminalError(t *testing.T) {
	s, ts := newTestServer(t, nil)
	cl := &Client{Base: ts.URL, HC: ts.Client()}
	ps := cl.PersistentStream(0, streamPolicy(), nil)
	defer ps.Close()
	ctx := context.Background()
	_, err := ps.Submit(ctx, []TaskSpec{{Node: uint32(s.g.NumNodes()) + 10}})
	if err == nil {
		t.Fatal("submit of out-of-range node succeeded")
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("error %v does not carry the server's line diagnosis", err)
	}
	// The stream is dead; later submits fail fast.
	if _, err := ps.Submit(ctx, []TaskSpec{{Node: 1}}); err == nil {
		t.Fatal("submit on a dead stream succeeded")
	}
}

// TestPersistentStreamUnknownJobFailsFast: a refusal that precedes the ack
// stream (here a 404) is a buffered reply to a request whose body stays
// open. It must reach the client at once, as the server's own words — not
// after the client's watchdog has cut the attempt.
func TestPersistentStreamUnknownJobFailsFast(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cl := &Client{Base: ts.URL, HC: ts.Client()}
	var st RetryStats
	ps := cl.PersistentStream(99, streamPolicy(), &st)
	defer ps.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_, err := ps.Submit(ctx, []TaskSpec{{Node: 1}})
	if err == nil || !strings.Contains(err.Error(), "no job 99") {
		t.Fatalf("submit to an unknown job: %v, want the server's 404 text", err)
	}
	if st.Attempts.Load() != 1 {
		t.Fatalf("a 404 is terminal: %s", st.String())
	}
}

// TestStreamSendersFanout: one sender per stream, each on a goroutine of
// its own, and every batch confirmed in full.
func TestStreamSendersFanout(t *testing.T) {
	s, ts := newTestServer(t, nil)
	cl := &Client{Base: ts.URL, HC: ts.Client()}
	ctx := context.Background()
	gen := RefreshGen(s.g.NumNodes(), 1)
	base := s.accepted.Load()
	senders, closer := cl.StreamSenders(ctx, 0, gen, 4, streamPolicy(), nil)
	if len(senders) != 4 {
		t.Fatalf("%d senders, want one per stream", len(senders))
	}
	var total atomic.Int64
	var wg sync.WaitGroup
	for _, send := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				acc, out, err := send(50)
				if err != nil || out != load.Accepted {
					t.Errorf("batch %d: outcome %v err %v", i, out, err)
				}
				total.Add(int64(acc))
			}
		}()
	}
	wg.Wait()
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.accepted.Load() - base; got != total.Load() || got != 64*50 {
		t.Fatalf("server accepted %d, client %d, want %d", got, total.Load(), 64*50)
	}
}

// writeCountingConn records the size of every Write made on a connection.
type writeCountingConn struct {
	net.Conn
	mu     *sync.Mutex
	writes *[]int
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	*c.writes = append(*c.writes, len(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestStreamBatchIsOneWrite: a 256-line batch leaves the client in one write
// on the connection, where Go's default 4 KB transport write buffer would
// split its ~9 KB chunk into three (fill and flush, a direct write, the
// CRLF's flush).
func TestStreamBatchIsOneWrite(t *testing.T) {
	s, ts := newTestServer(t, nil)
	var mu sync.Mutex
	var writes []int
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &writeCountingConn{Conn: conn, mu: &mu, writes: &writes}, nil
	}}
	ps := (&Client{Base: ts.URL, HC: &http.Client{Transport: tr}}).PersistentStream(0, streamPolicy(), nil)
	defer ps.Close()
	ctx := context.Background()
	// The first ack: the request's headers and first chunk are behind us.
	if acc, err := ps.Submit(ctx, []TaskSpec{{Node: 1}}); err != nil || acc != 1 {
		t.Fatalf("first batch: admitted %d, err %v", acc, err)
	}
	mu.Lock()
	from := len(writes)
	mu.Unlock()
	nodes := s.g.NumNodes()
	specs := make([]TaskSpec, submitFlush)
	for i := range specs {
		specs[i] = TaskSpec{Node: uint32(i % nodes), Prio: int64(i), Data: uint64(i) << 20}
	}
	if acc, err := ps.Submit(ctx, specs); err != nil || acc != submitFlush {
		t.Fatalf("batch: admitted %d, err %v", acc, err)
	}
	mu.Lock()
	defer mu.Unlock()
	// A heartbeat that fell inside the batch's round trip is a write of its
	// own (one chunk: "1\r\n\n\r\n"), not a piece of the batch.
	var batch []int
	for _, n := range writes[from:] {
		if n != len("1\r\n\n\r\n") {
			batch = append(batch, n)
		}
	}
	if len(batch) != 1 {
		t.Fatalf("a %d-line batch took %d writes of %v bytes, want one", submitFlush, len(batch), batch)
	}
}

// ackLineRow is one ack line and whether parseAcceptedLine takes it.
type ackLineRow struct {
	line string
	fast bool
}

// ackLineRows are the lines the ack decoder is held to: the progress lines
// acceptedLine writes, the terminal lines ackWriter.final writes, and the
// near misses the fast path must leave to encoding/json.
func ackLineRows() []ackLineRow {
	b := getBody()
	defer putBody(b)
	progress := func(n int64) string { return strings.TrimSuffix(string(b.acceptedLine(n)), "\n") }
	final := func(status int, msg string, retryMs, accepted int64) string {
		rec := httptest.NewRecorder()
		a := &ackWriter{w: rec, rc: http.NewResponseController(rec), body: getBody()}
		defer a.close()
		a.final(status, msg, retryMs, accepted)
		return strings.TrimSuffix(rec.Body.String(), "\n")
	}
	return []ackLineRow{
		{progress(0), true},
		{progress(1), true},
		{progress(math.MaxInt64), true},
		{final(http.StatusOK, "", 0, 7), false},
		{final(http.StatusTooManyRequests, "job 0 over quota", 250, 3), false},
		{final(http.StatusBadRequest, `line 4: bad "node" value`, 0, 3), false},
		{`{"accepted":007}`, false},
		{`{"accepted":00}`, false},
		{`{"accepted":-1}`, false},
		{`{"accepted":+1}`, false},
		{`{"accepted":1234567890123456789}`, true},
		{`{"accepted":9999999999999999999}`, false},
		{`{"accepted":12345678901234567890}`, false},
		{`{"accepted": 5}`, false},
		{`{ "accepted":5}`, false},
		{`{"accepted":5 }`, false},
		{`{"accepted":5}x`, false},
		{`{"accepted":5} `, false},
		{`{"accepted":}`, false},
		{`{"accepted":5`, false},
		{`{"accepted":5x}`, false},
		{`{"accepted":5,"final":true}`, false},
		{"", false},
	}
}

// checkAckLine holds one line to the decoder's contract: a line
// parseAcceptedLine takes is one encoding/json reads as exactly
// ackLine{Accepted: n}, and the bytes acceptedLine(n) writes.
func checkAckLine(t *testing.T, b *bodyBuf, raw []byte) (fast bool) {
	t.Helper()
	n, fast := parseAcceptedLine(raw)
	if !fast {
		return false
	}
	if w := bytes.TrimSuffix(b.acceptedLine(n), []byte("\n")); !bytes.Equal(w, raw) {
		t.Errorf("%q: fast path read %d, which acceptedLine writes as %q", raw, n, w)
	}
	var want ackLine
	if err := json.Unmarshal(raw, &want); err != nil || want != (ackLine{Accepted: n}) {
		t.Errorf("%q: fast path read %d; encoding/json reads %+v, %v", raw, n, want, err)
	}
	return true
}

// The client reads a progress ack with parseAcceptedLine and every other
// line with encoding/json, so the fast path must take only lines acceptedLine
// writes — the progress lines — and read each as encoding/json reads it into
// ackLine. The terminal lines come from ackWriter.final itself.
func TestParseAcceptedLineMatchesJSON(t *testing.T) {
	b := getBody()
	defer putBody(b)
	for _, row := range ackLineRows() {
		if fast := checkAckLine(t, b, []byte(row.line)); fast != row.fast {
			t.Errorf("%s: fast path %v, want %v", row.line, fast, row.fast)
		}
	}
	line := []byte(`{"accepted":9223372036854775807}`)
	if allocs := testing.AllocsPerRun(100, func() { parseAcceptedLine(line) }); allocs != 0 {
		t.Errorf("parseAcceptedLine allocates %v objects a line, want 0", allocs)
	}
}

// FuzzAckLine holds the ack-line decoder to encoding/json and to the writer
// on any bytes: whatever parseAcceptedLine takes decodes to exactly
// ackLine{Accepted: n} and is what acceptedLine(n) writes.
func FuzzAckLine(f *testing.F) {
	for _, row := range ackLineRows() {
		f.Add([]byte(row.line))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		b := getBody()
		defer putBody(b)
		checkAckLine(t, b, raw)
	})
}

// confirmedOf reads ps's durably admitted line count.
func confirmedOf(ps *PersistentStream) int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.confirmed
}
