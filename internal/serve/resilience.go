package serve

// Network-boundary resilience: the pieces that let a submit stream survive a
// flaky network without losing or duplicating accepted work.
//
// The contract is built on the admitted-prefix rule the error envelope
// already carries: every submit response — success or failure — reports
// exactly how many NDJSON lines of *this request* are durably admitted. A
// retrying client resends only the unconfirmed suffix, tagged with a stream
// identity and the count it believes is admitted. The tracker below closes
// the one remaining hole: a response lost in flight *after* the server
// admitted work. On retry the server compares the client's believed offset
// against its own recorded absolute count for the stream and silently skips
// the lines it already admitted — counting them in the response's accepted
// total so the client's accounting converges — instead of re-submitting
// them. Exactly-once admission, proven end to end by the netchaos soak:
// client-side admitted totals, the server's accepted counter, and the
// engine's conservation ledger must all agree at quiescence.

import (
	"context"
	"strconv"
	"sync"
	"time"

	"hdcps/internal/obs"
)

// Resume-protocol headers. A client that wants exactly-once resubmission
// sends HeaderStreamID (any non-empty token unique per logical stream and
// job) and HeaderStreamOffset (how many lines of the stream it believes the
// server has admitted). HeaderDeadlineMs bounds one request's server-side
// processing; expiry returns 503 with the admitted prefix, so deadlines and
// resume compose.
const (
	HeaderStreamID     = "X-Stream-Id"
	HeaderStreamOffset = "X-Stream-Offset"
	HeaderDeadlineMs   = "X-Request-Deadline-Ms"
	// HeaderAckFlush opts a submit request into the progress-ack protocol:
	// the server commits 200 immediately, emits one NDJSON ack line per
	// flush ({"accepted":N}, cumulative for the request), and delivers any
	// later failure in-band as a terminal ack line. The persistent-stream
	// client keys off it to confirm batches without closing the request.
	HeaderAckFlush = "X-Ack-Flush"
)

// streamKey identifies one resumable stream: stream IDs are scoped per job,
// so independent clients cannot collide across tenants.
type streamKey struct {
	job uint32
	id  string
}

// streamTracker remembers, per stream, the absolute number of lines admitted
// into the engine. Bounded: when the map reaches its cap the oldest streams
// are evicted in insertion order. An evicted stream degrades gracefully — the
// server simply trusts the client's offset, which is safe because the client
// only advances its offset on responses it actually received; eviction can
// only forget admissions whose responses were lost, the same exposure an
// untracked server has on every request.
type streamTracker struct {
	mu       sync.Mutex
	max      int
	byKey    map[streamKey]int64
	order    []streamKey // insertion order, for eviction
	inflight map[streamKey]chan struct{}
}

func newStreamTracker(max int) *streamTracker {
	return &streamTracker{
		max:      max,
		byKey:    make(map[streamKey]int64, max/4),
		inflight: make(map[streamKey]chan struct{}),
	}
}

// acquire serializes attempts of one stream. Without it a fast retry could
// race the prior attempt's handler, which may still be admitting lines
// buffered from the dead connection: the retry would read a stale tracker
// count and re-admit the overlap. Bounded wait — the prior handler is cut by
// the stall detector or its own deadline — and false means ctx died first.
func (t *streamTracker) acquire(ctx context.Context, k streamKey) bool {
	for {
		t.mu.Lock()
		ch, busy := t.inflight[k]
		if !busy {
			t.inflight[k] = make(chan struct{})
			t.mu.Unlock()
			return true
		}
		t.mu.Unlock()
		select {
		case <-ctx.Done():
			return false
		case <-ch:
		}
	}
}

// release unblocks the stream's next waiting attempt.
func (t *streamTracker) release(k streamKey) {
	t.mu.Lock()
	close(t.inflight[k])
	delete(t.inflight, k)
	t.mu.Unlock()
}

// admitted returns the absolute line count recorded for the stream (0 if
// unknown — a fresh stream and an evicted one look the same by design).
func (t *streamTracker) admitted(k streamKey) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byKey[k]
}

// record stores the stream's new absolute admitted count. Counts only move
// forward: a stale retry racing a newer one can never roll the record back.
func (t *streamTracker) record(k streamKey, admitted int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.byKey[k]; ok {
		if admitted > cur {
			t.byKey[k] = admitted
		}
		return
	}
	for len(t.byKey) >= t.max && len(t.order) > 0 {
		old := t.order[0]
		t.order = t.order[1:]
		delete(t.byKey, old)
	}
	t.byKey[k] = admitted
	t.order = append(t.order, k)
}

// noCounter marks a failure that moves no decision counter: the zero Counter
// is a worker's count (edges_examined), so a failure row names noCounter
// explicitly.
const noCounter = ^obs.Counter(0)

// row is where the server counts its network-boundary decisions
// (serve_shed, serve_deadline_hits, serve_conn_aborts, serve_resumes): the
// engine's external row, since HTTP handlers run outside the worker fleet,
// so the engine's Snapshot and trace are their one home.
func (s *Server) row() *obs.Row { return s.eng.ExternalRow() }

// count moves one decision counter; noCounter moves none.
func (s *Server) count(c obs.Counter) {
	if c != noCounter {
		s.row()[c].Add(1)
	}
}

// maxRequestDeadline is the ceiling on X-Request-Deadline-Ms: longer than any
// request lives, and far below where the conversion to a Duration wraps.
const maxRequestDeadline = 24 * time.Hour

// parseStreamOffset reads HeaderStreamOffset, a decimal count: absent,
// malformed and negative are all 0 — a resume or clock header should never
// turn a valid submit into a 400.
func parseStreamOffset(v string) int64 {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// parseDeadlineMs reads HeaderDeadlineMs, another such count; 0 means no
// deadline, and anything past maxRequestDeadline is clamped to it before the
// conversion.
func parseDeadlineMs(v string) time.Duration {
	return time.Duration(min(parseStreamOffset(v), int64(maxRequestDeadline/time.Millisecond))) * time.Millisecond
}
