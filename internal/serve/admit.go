package serve

// Admission: whether a batch the ingest loop has built may enter the engine
// now, and what every way a submit can end looks like on the wire. The loop
// (ingest.go) and the reply (ack.go) meet here and nowhere else: a submission
// is the loop's sink, and its errors are rows of the failure table.

import (
	"context"
	"errors"
	"net/http"
	"time"

	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/task"
)

var (
	errDraining = errors.New("serve: draining, not admitting work")
	errOverload = errors.New("serve: engine over global outstanding limit")
	errDeadline = errors.New("serve: request deadline exceeded")
	errAborted  = errors.New("serve: client went away mid-stream")
)

// failure is the wire shape of one way a submit can end short of 200. The
// mapping is the backpressure contract the load harness keys off: 429, 503
// and 408 are retryable pressure, 409 is terminal for the job, 400 is a
// caller bug, 500 a server bug.
type failure struct {
	match     func(error) bool
	status    int
	retryMs   int64       // retry_after_ms, and a Retry-After header, when > 0
	counter   obs.Counter // the one decision counter the outcome moves, or noCounter
	closeConn bool        // the connection is poisoned: Connection: close
}

func is(target error) func(error) bool {
	return func(err error) bool { return errors.Is(err, target) }
}

func as[T error](err error) bool {
	var t T
	return errors.As(err, &t)
}

// failures is the one table from a submit error to status, hint and counter;
// the first matching row wins.
var failures = []failure{
	{match: is(errDraining), status: http.StatusServiceUnavailable, retryMs: 200, counter: obs.CServeShed},
	{match: is(errOverload), status: http.StatusServiceUnavailable, retryMs: 200, counter: obs.CServeShed},
	{match: is(errDeadline), status: http.StatusServiceUnavailable, retryMs: 200, counter: obs.CServeDeadlineHits},
	{match: is(runtime.ErrStopped), status: http.StatusServiceUnavailable, retryMs: 200, counter: noCounter},
	{match: as[*runtime.QuotaError], status: http.StatusTooManyRequests, retryMs: 50, counter: noCounter},
	{match: is(runtime.ErrJobCancelled), status: http.StatusConflict, counter: noCounter},
	{match: as[*lineError], status: http.StatusBadRequest, counter: noCounter},
	// The peer is gone; the status is for the log, not the wire.
	{match: is(errAborted), status: http.StatusBadRequest, counter: obs.CServeConnAborts},
	// The body stopped making progress and the connection is past its read
	// deadline; the admitted prefix still goes out so a recovered client can
	// resume the stream.
	{match: is(errStalled), status: http.StatusRequestTimeout, counter: obs.CServeConnAborts, closeConn: true},
	{match: is(errBodyRead), status: http.StatusBadRequest, counter: obs.CServeConnAborts},
}

func failureOf(err error) failure {
	for _, f := range failures {
		if f.match(err) {
			return f
		}
	}
	return failure{status: http.StatusInternalServerError, counter: noCounter}
}

// refusal is the server-wide half of admission — draining, or over the
// global outstanding limit — as the error a submit gets for it; nil admits.
// /readyz and job create ask it too: ready means exactly that work may enter.
func (s *Server) refusal() error {
	if s.draining.Load() {
		return errDraining
	}
	if max := s.cfg.MaxOutstanding; max > 0 && s.eng.Outstanding() > max {
		return errOverload
	}
	return nil
}

// submission is one submit request between open and reply: the ingest
// loop's admitting sink.
type submission struct {
	s   *Server
	job *runtime.Job
	// ctx is the request's context, under X-Request-Deadline-Ms when the
	// client sent one (hasDeadline).
	ctx         context.Context
	cancel      context.CancelFunc
	hasDeadline bool
	// armStall re-arms the stall guard's read deadline (a no-op when off).
	armStall func()
	// Stream-resume state, when the request names a stream (key.id is empty
	// when it does not): skip counts the leading lines a prior attempt
	// already admitted (its reply was lost).
	key    streamKey
	offset int64
	skip   int64
	// ack is nil for the buffered protocol.
	ack *ackWriter
}

// open is everything before the first body byte: job lookup, the protocol,
// the request deadline, the stall guard, the stream's turn and its skip
// count. nil means the request was already answered (unknown job, a busy
// stream outwaiting the deadline) — in the buffered protocol either way, the
// ack stream not having started.
func (s *Server) open(w http.ResponseWriter, r *http.Request) *submission {
	acked := r.Header.Get(HeaderAckFlush) != ""
	if acked {
		// A progress-ack client holds its body open, so the ack stream needs
		// full duplex — and so does a reply written before it starts: without
		// it net/http would first drain a body that does not end, and the
		// client would see its own watchdog, not the reply. Best-effort: a test
		// recorder supports neither this nor flush, and its body reads are
		// never gated on writes.
		_ = http.NewResponseController(w).EnableFullDuplex()
	}
	job := s.jobFor(w, r)
	if job == nil {
		return nil
	}
	sub := &submission{s: s, job: job, ctx: r.Context(), cancel: func() {}, armStall: func() {}}
	if d := parseDeadlineMs(r.Header.Get(HeaderDeadlineMs)); d > 0 {
		sub.hasDeadline = true
		sub.ctx, sub.cancel = context.WithTimeout(sub.ctx, d)
	}

	// Stall guard: a read deadline armed now and re-armed per flush, capped
	// by the request deadline so an expired request cannot hold the
	// connection for a full stall window. Not every ResponseWriter supports
	// read deadlines (httptest recorders do not) — then the guard is off.
	if d := s.cfg.SubmitStallTimeout; d > 0 {
		rc := http.NewResponseController(w)
		arm := func() error {
			dl := time.Now().Add(d)
			if cd, ok := sub.ctx.Deadline(); ok && cd.Before(dl) {
				dl = cd
			}
			return rc.SetReadDeadline(dl)
		}
		if arm() == nil {
			sub.armStall = func() { _ = arm() }
		}
	}

	if id := r.Header.Get(HeaderStreamID); id != "" {
		key := streamKey{job: uint32(job.ID()), id: id}
		// Serialize attempts of the same stream: a retry racing its
		// predecessor's still-draining handler would read a stale admitted
		// count and duplicate the overlap.
		if !s.streams.acquire(sub.ctx, key) {
			sub.cancel()
			s.reply(w, nil, errDeadline, 0)
			return nil
		}
		sub.key = key
		sub.offset = parseStreamOffset(r.Header.Get(HeaderStreamOffset))
		if prior := s.streams.admitted(sub.key); prior > sub.offset {
			sub.skip = prior - sub.offset
		}
		if sub.offset > 0 || sub.skip > 0 {
			s.count(obs.CServeResumes)
		}
	}
	if acked {
		sub.ack = startAckStream(w)
	}
	return sub
}

// close releases what open took, after the reply is out: the next attempt of
// the stream must find this one's admissions recorded.
func (sub *submission) close() {
	sub.ack.close()
	if sub.key.id != "" {
		sub.s.streams.release(sub.key)
	}
	sub.cancel()
}

// handleSubmit streams NDJSON task lines into the job: open, run the ingest
// loop with the submission as its sink, reply once (resilience.go documents
// the resume protocol, ack.go the progress-ack one).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sub := s.open(w, r)
	if sub == nil {
		return
	}
	defer sub.close()
	fr := newLineFramer(r.Body)
	defer fr.release()
	confirmed, err := ingest(fr, uint32(s.g.NumNodes()), sub.skip, sub)
	if errors.Is(err, errStalled) && sub.hasDeadline && sub.ctx.Err() != nil {
		// The read deadline that fired was the request's (the stall guard is
		// capped by it), not a stalled client's: retryable backpressure.
		// net/http cancels the request context on any body read error, so
		// only a deadline that was armed tells the two apart.
		err = errDeadline
	}
	s.reply(w, sub.ack, err, confirmed)
}

// admit is the per-flush decision, in the order a refusal is owed: the
// request itself (dead context), the server (refusal), the tenant (the job's
// quota, cancellation, a stopped engine). A long stream therefore cannot
// outlive a Shutdown's admission cutoff or bury an overloaded engine by more
// than one batch.
func (sub *submission) admit(batch []task.Task, confirmed int64) error {
	if len(batch) == 0 {
		return nil
	}
	if err := sub.ctx.Err(); err != nil {
		if sub.hasDeadline && errors.Is(err, context.DeadlineExceeded) {
			return errDeadline
		}
		// r.Context() died: the client went away mid-stream. Nothing
		// readable will be written back, but stop admitting its work.
		return errAborted
	}
	if err := sub.s.refusal(); err != nil {
		return err
	}
	if err := sub.job.Submit(batch...); err != nil {
		return err
	}
	sub.s.accepted.Add(int64(len(batch)))
	if sub.key.id != "" {
		sub.s.streams.record(sub.key, sub.offset+confirmed)
	}
	sub.armStall()
	return nil
}

func (sub *submission) flush(batch []task.Task, confirmed int64, last bool) error {
	if err := sub.admit(batch, confirmed); err != nil {
		return err
	}
	if !last {
		sub.ack.progress(confirmed)
	}
	return nil
}

func (sub *submission) idle(pending int, confirmed int64) bool {
	return sub.ack.behind(pending, confirmed)
}

// heartbeat: progress-mode clients send empty lines while idle; feed the
// stall guard so a live-but-idle stream is not cut.
func (sub *submission) heartbeat() {
	if sub.ack.heartbeats() {
		sub.armStall()
	}
}
