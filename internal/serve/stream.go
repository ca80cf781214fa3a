package serve

// PersistentStream is the client half of the progress-ack protocol (ack.go):
// one long-lived NDJSON POST per (connection, job) held open across batches,
// so the per-batch cost is an encode and a copy into the request body — not
// a bytes.Buffer + json.Encoder + http.NewRequest + URL Sprintf + full HTTP
// round-trip. Batches are confirmed by the server's per-flush ack lines;
// Submit blocks until its lines are covered, so accepted counts and
// per-batch latency stay truthful in the open-loop harness.
//
// It is the only way this repo's Go code submits over the wire; a one-shot
// submission is a stream of one batch (open, Submit, Close).
//
// Each request of the stream is an attempt, and the attempt is its own
// request body: a reader over the pending batches from the attempt's cursor
// (attempt.Read). An attempt runs one goroutine of its own, a ticker that
// owes the body a heartbeat line and cuts the attempt when its acks stall.
// Every way an attempt ends is one cut: its own exit, the watchdog, or a
// read error on the connection it dialed (watchResets).
//
// Faults do not weaken the exactly-once contract — they route through the
// admitted-prefix resume protocol (resilience.go): every attempt of a stream
// carries the same X-Stream-Id, the reconnect offset is the confirmed count
// and only the lines past it are resent, and the server-side tracker skips
// (but still confirms) lines whose admission the client never heard about.
// The netchaos soak drives this client through every fault mix and proves
// client-confirmed == server-accepted == engine-submitted.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hdcps/internal/load"
)

var (
	// errStreamClosed reports a Submit after Close.
	errStreamClosed = errors.New("serve client: persistent stream closed")
	// errTerminal marks a give-up on an answer no retry can change (400,
	// 404, 409, 500, a server that does not speak the protocol).
	errTerminal = errors.New("terminal")
	// errAttemptOver is the cut of an attempt that ended on its own.
	errAttemptOver = errors.New("serve client: attempt over")
)

// streamBatch is one Submit's lines, pre-encoded: start is the absolute
// line index of the first line in the stream's numbering.
type streamBatch struct {
	start int64
	lines int64
	buf   []byte
}

// lineBufPool recycles the pre-encoded batch blobs.
var lineBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// streamWaiter blocks one Submit until the stream's confirmed count covers
// its batch (or the stream dies).
type streamWaiter struct {
	end int64 // absolute line index one past the batch
	ch  chan struct{}
}

// PersistentStream submits batches over one logical resumable stream.
// Safe for concurrent Submit calls; lines are confirmed in submission
// order. Construct with Client.PersistentStream, finish with Close.
type PersistentStream struct {
	hc  *http.Client // no overall timeout: the request is open-ended
	url string
	pol RetryPolicy
	st  *RetryStats
	id  string

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []streamBatch // unconfirmed batches, oldest first
	written   int64         // absolute lines queued
	confirmed int64         // absolute lines the server has acked
	waiters   []streamWaiter
	closed    bool
	err       error // terminal stream error

	// outage is when the first failed attempt since the last ack ended;
	// zero while the stream is acked. Only the manager touches it.
	outage time.Time

	done chan struct{}
}

// PersistentStream opens a stream against jobID. The manager goroutine
// connects lazily — no request is made until the first Submit — and
// reconnects across faults per pol. The attempt and backoff-budget counters
// reset whenever the server confirms progress, so a long-lived stream is
// bounded per outage, not per lifetime. pol.RequestTimeout acts as the
// ack-progress watchdog: an attempt whose unconfirmed lines see no ack for
// that long is cut and retried (0 disables).
func (c *Client) PersistentStream(jobID uint32, pol RetryPolicy, st *RetryStats) *PersistentStream {
	base := c.hc()
	ps := &PersistentStream{
		// Never the wrapping client's overall Timeout — that clock would
		// sever every stream that outlives it.
		hc:   &http.Client{Transport: watchResets(base.Transport), CheckRedirect: base.CheckRedirect, Jar: base.Jar},
		url:  fmt.Sprintf("%s/v1/jobs/%d/submit", c.Base, jobID),
		pol:  pol.withDefaults(),
		st:   st,
		id:   newStreamID(),
		done: make(chan struct{}),
	}
	ps.cond = sync.NewCond(&ps.mu)
	go ps.run()
	return ps
}

// watchResets returns the stream's own copy of rt whose dials hand every
// connection's first read error to the cut of the attempt that dialed it,
// found through the dial context's value. Without it a reset costs up to a
// heartbeat: the transport's Do waits for its write loop (writeLoopDone),
// and the write loop sits in attempt.Read until the body has a line to give.
// Keep-alives are off so each attempt dials its own connection — an attempt
// lives as long as its stream, so no pool is lost. The write buffer holds a
// whole batch (streamWriteBuffer), so each batch leaves in one write. A
// RoundTripper that is not an *http.Transport is used as it is.
func watchResets(rt http.RoundTripper) http.RoundTripper {
	if rt == nil {
		rt = http.DefaultTransport
	}
	tr, ok := rt.(*http.Transport)
	if !ok {
		return rt
	}
	tr = tr.Clone()
	tr.DisableKeepAlives = true
	tr.WriteBufferSize = max(tr.WriteBufferSize, streamWriteBuffer)
	dial := tr.DialContext
	if dial == nil {
		dial = (&net.Dialer{}).DialContext
	}
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dial(ctx, network, addr)
		if a, ok := ctx.Value(attemptKey{}).(*attempt); ok && err == nil {
			conn = &watchedConn{Conn: conn, a: a}
		}
		return conn, err
	}
	return tr
}

// streamWriteBuffer is the stream transport's least write buffer. A
// 256-line batch is one ~9 KB chunk of the request body, which Go's default
// 4 KB buffer sends in three writes, a syscall each: fill and flush, a
// direct write, the trailing CRLF's flush.
const streamWriteBuffer = 64 << 10

// attemptKey carries an attempt on its request's context to the dial.
type attemptKey struct{}

// watchedConn cuts its attempt on a read error.
type watchedConn struct {
	net.Conn
	a *attempt
}

func (c *watchedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.a.cut(err)
	}
	return n, err
}

// Submit queues specs on the stream and blocks until the server confirms
// them (or the stream dies). It returns how many of THIS batch's lines were
// durably admitted — on error the count is the confirmed overlap, so the
// caller's accounting still converges with the server's ledger. A ctx cut
// abandons the wait, not the lines: they may still be admitted by a later
// reconnect, so prefer stream Close over ctx cancellation for accounting.
func (ps *PersistentStream) Submit(ctx context.Context, specs []TaskSpec) (int64, error) {
	if len(specs) == 0 {
		return 0, nil
	}
	bp := lineBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for _, sp := range specs {
		buf = appendTaskSpecLine(buf, sp)
	}
	*bp = buf

	ps.mu.Lock()
	if ps.err != nil {
		err := ps.err
		ps.mu.Unlock()
		lineBufPool.Put(bp)
		return 0, err
	}
	if ps.closed {
		ps.mu.Unlock()
		lineBufPool.Put(bp)
		return 0, errStreamClosed
	}
	start := ps.written
	n := int64(len(specs))
	ps.pending = append(ps.pending, streamBatch{start: start, lines: n, buf: buf})
	ps.written += n
	w := streamWaiter{end: start + n, ch: make(chan struct{})}
	ps.waiters = append(ps.waiters, w)
	ps.cond.Broadcast()
	ps.mu.Unlock()

	select {
	case <-w.ch:
	case <-ctx.Done():
		ps.mu.Lock()
		confirmed := ps.confirmed
		ps.mu.Unlock()
		return clampOverlap(confirmed, start, n), ctx.Err()
	}
	ps.mu.Lock()
	confirmed, err := ps.confirmed, ps.err
	ps.mu.Unlock()
	admitted := clampOverlap(confirmed, start, n)
	if admitted < n && err == nil {
		err = errStreamClosed
	}
	if admitted == n {
		err = nil
	}
	return admitted, err
}

// clampOverlap is how many of [start, start+n) lie below confirmed.
func clampOverlap(confirmed, start, n int64) int64 {
	o := confirmed - start
	if o < 0 {
		return 0
	}
	if o > n {
		return n
	}
	return o
}

// Close flushes queued lines, closes the request cleanly, and waits for the
// manager to finish. It returns the stream's terminal error if unconfirmed
// lines were abandoned.
func (ps *PersistentStream) Close() error {
	ps.mu.Lock()
	ps.closed = true
	ps.cond.Broadcast()
	ps.mu.Unlock()
	<-ps.done
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.err != nil && ps.confirmed < ps.written {
		return ps.err
	}
	return nil
}

// advance moves the confirmed watermark to abs: waiters covered by it are
// released and fully confirmed batches recycled.
func (ps *PersistentStream) advance(abs int64) {
	ps.mu.Lock()
	if abs > ps.confirmed {
		ps.confirmed = abs
	}
	for len(ps.waiters) > 0 && ps.waiters[0].end <= ps.confirmed {
		close(ps.waiters[0].ch)
		ps.waiters = ps.waiters[1:]
	}
	for len(ps.pending) > 0 {
		b := ps.pending[0]
		if b.start+b.lines > ps.confirmed {
			break
		}
		buf := b.buf
		ps.pending = ps.pending[1:]
		lineBufPool.Put(&buf)
	}
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// fail marks the stream dead and releases everything.
func (ps *PersistentStream) fail(err error) {
	ps.mu.Lock()
	if ps.err == nil {
		ps.err = err
	}
	for _, w := range ps.waiters {
		close(w.ch)
	}
	ps.waiters = nil
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// run is the manager: open an attempt whenever unconfirmed work exists,
// reconcile and back off across failures, exit on Close (after the flush)
// or on a terminal error.
func (ps *PersistentStream) run() {
	defer close(ps.done)
	rng := rand.New(rand.NewSource(int64(ps.pol.Seed ^ streamSeq.Add(1))))
	attempt := 0        // consecutive failures this outage (reset on progress)
	unanswered := false // an attempt of this outage ended with no answer at all
	totalAttempts := 0
	budgetLeft := ps.pol.Budget
	for {
		ps.mu.Lock()
		for ps.err == nil && !ps.closed && ps.confirmed == ps.written {
			ps.cond.Wait()
		}
		if ps.err != nil || (ps.closed && ps.confirmed == ps.written) {
			ps.mu.Unlock()
			return
		}
		before := ps.confirmed
		ps.mu.Unlock()

		attempt++
		totalAttempts++
		if ps.st != nil {
			ps.st.Attempts.Add(1)
			if totalAttempts > 1 {
				ps.st.Retries.Add(1)
			}
		}
		status, hint, err := ps.try()
		if err != nil && ps.outage.IsZero() {
			ps.outage = time.Now()
		}

		ps.mu.Lock()
		// An attempt that confirmed new lines — or left nothing unconfirmed
		// (e.g. the server's idle-stall 408 after all work landed) — ends
		// the outage: the policy bounds each outage, not the lifetime.
		progressed := ps.confirmed > before || ps.confirmed == ps.written
		closedAndDone := ps.closed && ps.confirmed == ps.written
		ps.mu.Unlock()
		if progressed {
			attempt = 0
			unanswered = false
			budgetLeft = ps.pol.Budget
		} else if status == 0 {
			unanswered = true
		}
		if closedAndDone {
			return
		}
		if err == nil && status == http.StatusOK {
			// Clean terminal ack with work left (server cut the stream in an
			// orderly way, e.g. stall 408 would carry its own status — a 200
			// final with pending lines means our Close raced; loop re-opens).
			continue
		}
		if err != nil && !retryable(status, err) {
			ps.giveUp(fmt.Errorf("serve client: stream %s: %w: %w", ps.id, errTerminal, err))
			return
		}
		if attempt >= ps.pol.MaxAttempts {
			ps.giveUp(exhausted(unanswered, fmt.Errorf("stream %s: %d attempts: %w", ps.id, attempt, err)))
			return
		}
		// attempt may have just been reset to 0 by the progress check above:
		// a failure that still confirmed lines backs off at the base window.
		window := ps.pol.BaseBackoff << min(max(attempt-1, 0), 20)
		if window > ps.pol.MaxBackoff || window <= 0 {
			window = ps.pol.MaxBackoff
		}
		sleep := hint + time.Duration(rng.Int63n(int64(window)+1))
		if sleep > budgetLeft {
			ps.giveUp(exhausted(unanswered, fmt.Errorf("stream %s: backoff budget spent: %w", ps.id, err)))
			return
		}
		budgetLeft -= sleep
		if ps.st != nil {
			ps.st.BackoffNs.Add(int64(sleep))
		}
		time.Sleep(sleep)
	}
}

// exhausted words the give-up of a policy that ran out. Only a server that
// answered every attempt of the outage (429/503/408) was shedding load, which
// is what ErrRetriesExhausted means; an outage in which any attempt was cut
// without an answer reports the last error alone.
func exhausted(unanswered bool, err error) error {
	if unanswered {
		return fmt.Errorf("serve client: gave up: %w", err)
	}
	return fmt.Errorf("%w: %v", ErrRetriesExhausted, err)
}

func (ps *PersistentStream) giveUp(err error) {
	if ps.st != nil {
		ps.st.GiveUps.Add(1)
	}
	ps.fail(err)
}

// acked notes an ack line on an attempt opened at line start. The first ack
// after an outage ends it; if the attempt resumed a partly admitted stream,
// the time since the outage began is its reconnect time.
func (ps *PersistentStream) acked(start int64) {
	if ps.outage.IsZero() {
		return
	}
	if start > 0 && ps.st != nil {
		ps.st.Resumes.Add(1)
		ps.st.Reconnect.ObserveDuration(time.Since(ps.outage))
	}
	ps.outage = time.Time{}
}

// try runs one attempt until the stream is done or the attempt is cut.
// Returns the terminal status (0 if none reached), the server's retry hint,
// and the attempt error (nil on a clean final ack).
func (ps *PersistentStream) try() (int, time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	a := &attempt{ps: ps, cancel: cancel}
	ctx = context.WithValue(ctx, attemptKey{}, a)
	ps.mu.Lock()
	// Resend from the confirmed watermark, which may fall inside a batch:
	// the body skips that batch's confirmed lines.
	start := ps.confirmed
	a.cursor = start
	ps.mu.Unlock()
	defer a.cut(errAttemptOver)
	go a.tick(ctx)

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ps.url, a)
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(HeaderStreamID, ps.id)
	req.Header.Set(HeaderStreamOffset, strconv.FormatInt(start, 10))
	req.Header.Set(HeaderAckFlush, "1")
	resp, err := ps.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 64*1024)).Decode(&eb)
		ps.advance(start + eb.Accepted)
		hint := retryHint(resp.Header)
		if ms := time.Duration(eb.RetryAfterMs) * time.Millisecond; ms > hint {
			hint = ms
		}
		return resp.StatusCode, hint, fmt.Errorf("serve client: stream %s: status %d: %s", ps.id, resp.StatusCode, eb.Error)
	}
	if resp.Header.Get(HeaderAckFlush) == "" {
		return resp.StatusCode, 0, fmt.Errorf("serve client: stream %s: server does not speak the progress-ack protocol", ps.id)
	}

	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		// A progress line, the common case, is read without reflection.
		var al ackLine
		if n, ok := parseAcceptedLine(raw); ok {
			al.Accepted = n
		} else if err := json.Unmarshal(raw, &al); err != nil {
			return 0, 0, fmt.Errorf("serve client: stream %s: bad ack line %q: %w", ps.id, raw, err)
		}
		ps.advance(start + al.Accepted)
		ps.acked(start)
		if !al.Final {
			continue
		}
		if al.Status == http.StatusOK {
			return al.Status, 0, nil
		}
		err := fmt.Errorf("serve client: stream %s: in-band status %d: %s", ps.id, al.Status, al.Error)
		return al.Status, time.Duration(al.RetryAfterMs) * time.Millisecond, err
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	return 0, 0, fmt.Errorf("serve client: stream %s: ack stream ended without a final line", ps.id)
}

// attempt is one request of a stream, and that request's body: a reader
// over the pending batches from cursor, in order, as they arrive. It gives a
// blank heartbeat line when the stream is quiet and one is owed, and EOF
// once the stream is closed and every line is written. Its fields are
// guarded by the stream's mu.
type attempt struct {
	ps     *PersistentStream
	cancel context.CancelFunc
	cursor int64  // absolute line the body reads next
	rest   []byte // the unread tail of the batch before cursor
	beat   bool   // a heartbeat line is owed
	err    error  // why the attempt was cut; nil while it runs
}

// Read hands the transport's write loop the next bytes of the stream,
// blocking while there are none. The batches stay valid: they are recycled
// only after the server confirms them, and a confirmed line is never resent.
func (a *attempt) Read(p []byte) (int, error) {
	ps := a.ps
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for {
		if a.err != nil {
			return 0, a.err
		}
		if len(a.rest) > 0 {
			n := copy(p, a.rest)
			a.rest = a.rest[n:]
			return n, nil
		}
		if next, ok := ps.batchAt(a.cursor); ok {
			a.rest = skipLines(next.buf, a.cursor-next.start)
			a.cursor = next.start + next.lines
			continue
		}
		if ps.closed {
			return 0, io.EOF
		}
		if a.beat {
			a.beat = false
			return copy(p, "\n"), nil
		}
		ps.cond.Wait()
	}
}

// cut ends the attempt: the body's next Read returns cause, and the
// request's context is cancelled, so neither the transport's write loop nor
// Do outlives it. The first cause wins; later cuts are no-ops.
func (a *attempt) cut(cause error) {
	a.ps.mu.Lock()
	if a.err == nil {
		a.err = cause
		a.ps.cond.Broadcast()
	}
	a.ps.mu.Unlock()
	a.cancel()
}

// tick is the attempt's one goroutine. Every min(1s, RequestTimeout/4) it
// owes the body a heartbeat line — an empty NDJSON line, a protocol no-op
// the server skips without counting, which keeps the server's stall
// detector fed while the stream idles — and it cuts the attempt once
// unconfirmed lines have seen no ack for RequestTimeout (0: never).
func (a *attempt) tick(ctx context.Context) {
	ps := a.ps
	wd := ps.pol.RequestTimeout
	every := time.Second
	if wd > 0 && wd/4 < every {
		every = wd / 4
	}
	t := time.NewTicker(every)
	defer t.Stop()
	ps.mu.Lock()
	last, progress := ps.confirmed, time.Now()
	ps.mu.Unlock()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			ps.mu.Lock()
			a.beat = true
			ps.cond.Broadcast()
			if ps.confirmed != last || ps.confirmed == ps.written {
				last, progress = ps.confirmed, now
			}
			ps.mu.Unlock()
			if wd > 0 && now.Sub(progress) > wd {
				a.cut(context.DeadlineExceeded)
				return
			}
		}
	}
}

// batchAt finds the first pending batch covering or after cursor. Callers
// hold ps.mu.
func (ps *PersistentStream) batchAt(cursor int64) (streamBatch, bool) {
	for _, b := range ps.pending {
		if b.start+b.lines > cursor {
			return b, true
		}
	}
	return streamBatch{}, false
}

// skipLines returns buf past its first n lines (n <= 0: all of buf); every
// encoded line ends in exactly one newline.
func skipLines(buf []byte, n int64) []byte {
	for ; n > 0; n-- {
		buf = buf[bytes.IndexByte(buf, '\n')+1:]
	}
	return buf
}

// StreamSenders adapts n persistent streams (at least one) to the open-loop
// harness, one load.Sender per stream: a batch blocks until the server's
// ack covers it, so accepted counts and latency reflect durable admission,
// not buffered writes. ErrRetriesExhausted is backpressure and any other
// failure a server error. A stream that has given up is replaced by a fresh
// one on its sender's next batch — its unconfirmed lines were already
// reported refused — so one outage costs the batches it overlapped, not the
// rest of the run. Close the returned closer after the run (not during it)
// to flush and release the streams.
func (c *Client) StreamSenders(ctx context.Context, jobID uint32, gen func(n int) []TaskSpec,
	n int, pol RetryPolicy, st *RetryStats) ([]load.Sender, io.Closer) {
	streams := make(streamsCloser, max(n, 1))
	senders := make([]load.Sender, len(streams))
	for i := range streams {
		streams[i] = c.PersistentStream(jobID, pol, st)
		senders[i] = func(want int) (int, load.Outcome, error) {
			if streams[i].dead() {
				streams[i] = c.PersistentStream(jobID, pol, st)
			}
			acc, err := streams[i].Submit(ctx, gen(want))
			switch {
			case err == nil:
				return int(acc), load.Accepted, nil
			case errors.Is(err, ErrRetriesExhausted):
				return int(acc), load.Backpressure, nil
			default:
				return int(acc), load.ServerError, err
			}
		}
	}
	return senders, streams
}

// dead reports whether the stream has given up (its manager has exited).
func (ps *PersistentStream) dead() bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.err != nil
}

// streamsCloser closes every stream, returning the first error.
type streamsCloser []*PersistentStream

func (sc streamsCloser) Close() error {
	var first error
	for _, ps := range sc {
		if err := ps.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
