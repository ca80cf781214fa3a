package serve

// PersistentStream is the client half of the progress-ack protocol (ack.go):
// one long-lived NDJSON POST per (connection, job) held open across batches
// via an io.Pipe, so the per-batch cost is an encode and a pipe write —
// not a bytes.Buffer + json.Encoder + http.NewRequest + URL Sprintf + full
// HTTP round-trip. Batches are confirmed by the server's per-flush ack
// lines; Submit blocks until its lines are covered, so accepted counts and
// per-batch latency stay truthful in the open-loop harness.
//
// It is the only way this repo's Go code submits over the wire; a one-shot
// submission is a stream of one batch (open, Submit, Close).
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
	"net/http"
	"strconv"
	"sync"
	"time"

	"hdcps/internal/load"
)

// errStreamClosed reports a Submit after Close.
var errStreamClosed = errors.New("serve client: persistent stream closed")

// errTerminal marks a give-up on an answer no retry can change (400, 404,
// 409, 500, a server that does not speak the protocol).
var errTerminal = errors.New("terminal")

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
	c     *Client
	hc    *http.Client // no overall timeout: the request is open-ended
	url   string
	jobID uint32
	pol   RetryPolicy
	st    *RetryStats
	id    string

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []streamBatch // unconfirmed batches, oldest first
	written   int64         // absolute lines queued
	confirmed int64         // absolute lines the server has acked
	waiters   []streamWaiter
	gen       int64 // attempt generation: bumped to kill a stale pump
	closed    bool
	err       error // terminal stream error

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
		c: c,
		// Same transport, but never the wrapping client's overall Timeout —
		// that clock would sever every stream that outlives it.
		hc:    &http.Client{Transport: base.Transport, CheckRedirect: base.CheckRedirect, Jar: base.Jar},
		url:   fmt.Sprintf("%s/v1/jobs/%d/submit", c.Base, jobID),
		jobID: jobID,
		pol:   pol.withDefaults(),
		st:    st,
		id:    newStreamID(),
		done:  make(chan struct{}),
	}
	ps.cond = sync.NewCond(&ps.mu)
	go ps.run()
	return ps
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

// Confirmed returns the stream's durably admitted line count.
func (ps *PersistentStream) Confirmed() int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.confirmed
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
	attempt := 0 // consecutive failures this outage (reset on progress)
	cut := false // an attempt of this outage ended with no answer at all
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
			if totalAttempts > 1 && before > 0 {
				ps.st.Resumes.Add(1)
			}
		}
		status, hint, err := ps.attempt()

		ps.mu.Lock()
		// An attempt that confirmed new lines — or left nothing unconfirmed
		// (e.g. the server's idle-stall 408 after all work landed) — ends
		// the outage: the policy bounds each outage, not the lifetime.
		progressed := ps.confirmed > before || ps.confirmed == ps.written
		closedAndDone := ps.closed && ps.confirmed == ps.written
		ps.mu.Unlock()
		if progressed {
			attempt = 0
			cut = false
			budgetLeft = ps.pol.Budget
		} else if status == 0 {
			cut = true
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
			ps.giveUp(exhausted(cut, fmt.Errorf("stream %s: %d attempts: %w", ps.id, attempt, err)))
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
			ps.giveUp(exhausted(cut, fmt.Errorf("stream %s: backoff budget spent: %w", ps.id, err)))
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
func exhausted(cut bool, err error) error {
	if cut {
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

// attempt opens one request and runs it until the stream is done, the
// connection dies, or the watchdog cuts a stalled attempt. Returns the
// terminal status (0 if none reached), the server's retry hint, and the
// attempt error (nil on a clean final ack).
func (ps *PersistentStream) attempt() (int, time.Duration, error) {
	ps.mu.Lock()
	// Resend from the confirmed watermark, which may fall inside a batch:
	// the pump skips that batch's confirmed lines.
	start := ps.confirmed
	ps.gen++
	gen := ps.gen
	ps.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	defer pr.CloseWithError(errStreamClosed) // unblock a pump mid-Write
	go ps.pump(pw, start, gen)
	defer func() {
		// Retire this attempt's pump before the next attempt starts.
		ps.mu.Lock()
		if ps.gen == gen {
			ps.gen++
		}
		ps.cond.Broadcast()
		ps.mu.Unlock()
	}()

	// Ack-progress watchdog, armed for the WHOLE attempt including Do: when
	// unconfirmed lines see no ack for pol.RequestTimeout, it cancels the
	// request AND severs the pipe's read side. The second half matters: on a
	// broken connection the transport's Do does not return until its write
	// loop finishes, and the write loop sits in pr.Read — only closing the
	// pipe unblocks that chain.
	stopWD := make(chan struct{})
	defer close(stopWD)
	if wd := ps.pol.RequestTimeout; wd > 0 {
		go ps.watchdog(wd, func() {
			cancel()
			pr.CloseWithError(context.DeadlineExceeded)
		}, stopWD)
	}

	// Heartbeat: an empty NDJSON line (a protocol no-op the server skips
	// without counting) written periodically. It does two jobs: it keeps the
	// server's stall detector fed while the stream idles, and — the load-
	// bearing one — it forces a real TCP write, so a silently dead
	// connection fails the transport's write loop promptly instead of
	// wedging Do until the watchdog's full window expires.
	hb := time.Second
	if wd := ps.pol.RequestTimeout; wd > 0 && wd/4 < hb {
		hb = wd / 4
	}
	go func() {
		tick := time.NewTicker(hb)
		defer tick.Stop()
		nl := []byte("\n")
		for {
			select {
			case <-stopWD:
				return
			case <-tick.C:
			}
			if _, err := pw.Write(nl); err != nil {
				return
			}
		}
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ps.url, pr)
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
		var al ackLine
		if err := json.Unmarshal(raw, &al); err != nil {
			return 0, 0, fmt.Errorf("serve client: stream %s: bad ack line %q: %w", ps.id, raw, err)
		}
		ps.advance(start + al.Accepted)
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

// pump writes pending batches from cursor into the request body, in order,
// as they arrive; on Close with everything written it closes the body so
// the server runs its final flush. A generation bump retires it.
func (ps *PersistentStream) pump(pw *io.PipeWriter, cursor int64, gen int64) {
	for {
		ps.mu.Lock()
		var buf []byte
		for ps.gen == gen && ps.err == nil {
			if next, ok := ps.batchAt(cursor); ok {
				buf = skipLines(next.buf, cursor-next.start)
				cursor = next.start + next.lines
				break
			}
			if ps.closed && cursor >= ps.written {
				ps.mu.Unlock()
				pw.Close()
				return
			}
			ps.cond.Wait()
		}
		if buf == nil {
			ps.mu.Unlock()
			pw.CloseWithError(errStreamClosed)
			return
		}
		ps.mu.Unlock()
		// Write outside the lock: the pipe blocks until the transport's
		// write loop consumes the chunk. The buf stays valid — batches are
		// recycled only after the server confirms them, and a confirmed
		// batch is never resent.
		if _, err := pw.Write(buf); err != nil {
			return // attempt died; the manager reconciles
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

// watchdog invokes cut when unconfirmed lines make no ack progress for wd.
// An idle stream (nothing unconfirmed) is never cut.
func (ps *PersistentStream) watchdog(wd time.Duration, cut func(), stop <-chan struct{}) {
	tick := time.NewTicker(wd / 4)
	defer tick.Stop()
	last := ps.Confirmed()
	lastProgress := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		ps.mu.Lock()
		confirmed, written := ps.confirmed, ps.written
		ps.mu.Unlock()
		if confirmed != last || confirmed == written {
			last = confirmed
			lastProgress = time.Now()
			continue
		}
		if time.Since(lastProgress) > wd {
			cut()
			return
		}
	}
}

// StreamSubmitter adapts a fan-out of n persistent streams to the open-loop
// harness: each batch round-robins onto a stream and blocks until the
// server's ack covers it, so accepted counts and per-batch latency reflect
// durable admission, not buffered writes. A stream that has given up is
// replaced by a fresh one on the slot's next batch — its unconfirmed lines
// were already reported refused — so one outage costs the batches it
// overlapped, not the rest of the run. Close the returned closer after the
// run (not during it) to flush and release the streams.
func (c *Client) StreamSubmitter(ctx context.Context, jobID uint32, gen func(n int) []TaskSpec,
	n int, pol RetryPolicy, st *RetryStats) (load.Submitter, io.Closer) {
	if n <= 0 {
		n = 1
	}
	streams := make(streamsCloser, n)
	for i := range streams {
		streams[i] = c.PersistentStream(jobID, pol, st)
	}
	var (
		mu sync.Mutex
		rr int
	)
	sub := func(want int) (int, load.Outcome, error) {
		mu.Lock()
		i := rr % n
		rr++
		if streams[i].dead() {
			streams[i] = c.PersistentStream(jobID, pol, st)
		}
		ps := streams[i]
		mu.Unlock()
		acc, err := ps.Submit(ctx, gen(want))
		switch {
		case err == nil:
			return int(acc), load.Accepted, nil
		case errors.Is(err, ErrRetriesExhausted):
			return int(acc), load.Backpressure, nil
		default:
			return int(acc), load.ServerError, err
		}
	}
	return sub, streams
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
