package serve

// The progress-ack half of the persistent-stream protocol (the client half
// lives in stream.go). A submit request carrying HeaderAckFlush gets its 200
// committed before the body is read — HTTP/1.1 full duplex — and then one
// NDJSON ack line per flush, so a client can hold the request open across
// batches and still learn its admitted prefix with RTT latency. Failures
// after the 200 are delivered in-band as a terminal ack line carrying the
// same status / error text / retry_after_ms the buffered protocol would have
// put on the wire: both go through failSubmit and writeInBand below, with a
// nil *ackWriter standing for the buffered protocol.

import (
	"errors"
	"net/http"
	"strconv"

	"hdcps/internal/runtime"
)

// ackLine is one NDJSON line of a progress-ack response. Progress lines
// carry only the cumulative accepted count; the terminal line adds the
// status the buffered protocol would have returned, plus error text and a
// retry hint when the stream failed.
type ackLine struct {
	Accepted     int64  `json:"accepted"`
	Status       int    `json:"status,omitempty"`
	Error        string `json:"error,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	Final        bool   `json:"final,omitempty"`
}

// ackWriter emits the server side of the protocol. All methods run on the
// handler goroutine; the pooled body buffer keeps the per-ack hot path
// allocation-free.
type ackWriter struct {
	w     http.ResponseWriter
	rc    *http.ResponseController
	body  *bodyBuf
	acked int64 // last accepted count put on the wire
	done  bool  // terminal line written
}

// startAckStream commits the 200 and flushes headers before any body byte
// is read — without this the client (whose Do returns only on response
// headers) and the server (blocked reading the body) deadlock. The caller
// has enabled full duplex on w (handleSubmit does on seeing the request
// header). The header is echoed so a client can verify the server actually
// speaks the protocol rather than buffering the response to EOF.
func startAckStream(w http.ResponseWriter) *ackWriter {
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(HeaderAckFlush, "1")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()
	return &ackWriter{w: w, rc: rc, body: getBody()}
}

func (a *ackWriter) close() {
	if a.body != nil {
		putBody(a.body)
		a.body = nil
	}
}

// progress acks the cumulative accepted count. Zero-allocation: the line is
// built in the pooled buffer with strconv. A nil ackWriter is the buffered
// protocol, which acks nothing until its one reply.
func (a *ackWriter) progress(accepted int64) {
	if a == nil || a.done || accepted == a.acked {
		return
	}
	a.acked = accepted
	a.body.buf.Reset()
	buf := a.body.buf.AvailableBuffer()
	buf = append(buf, `{"accepted":`...)
	buf = strconv.AppendInt(buf, accepted, 10)
	buf = append(buf, '}', '\n')
	a.body.buf.Write(buf)
	_, _ = a.w.Write(a.body.buf.Bytes())
	_ = a.rc.Flush()
}

// final writes the terminal line: status 200 closes the stream cleanly, any
// other status is the in-band equivalent of a buffered error reply.
func (a *ackWriter) final(status int, msg string, retryMs, accepted int64) {
	if a.done {
		return
	}
	a.done = true
	a.acked = accepted
	a.body.buf.Reset()
	_ = a.body.enc.Encode(ackLine{
		Accepted: accepted, Status: status, Error: msg, RetryAfterMs: retryMs, Final: true,
	})
	_, _ = a.w.Write(a.body.buf.Bytes())
	_ = a.rc.Flush()
}

// submitErrShape is the one table from a submit error to its wire shape:
// HTTP status and retry hint. The mapping is the backpressure contract the
// load harness keys off: 429, 503 and 408 are retryable pressure, 409 is
// terminal for the job, 400 is a caller bug, 500 a server bug.
func submitErrShape(err error) (status int, retryMs int64) {
	var qe *runtime.QuotaError
	switch {
	case errors.Is(err, errDraining) || errors.Is(err, errOverload) ||
		errors.Is(err, errDeadline) || errors.Is(err, runtime.ErrStopped):
		return http.StatusServiceUnavailable, 200
	case errors.Is(err, errAborted):
		// The peer is gone; the status is for the log, not the wire.
		return http.StatusBadRequest, 0
	case errors.As(err, &qe):
		return http.StatusTooManyRequests, 50
	case errors.Is(err, runtime.ErrJobCancelled):
		return http.StatusConflict, 0
	default:
		return http.StatusInternalServerError, 0
	}
}

// failSubmit ends a request that err refused — a submit in either protocol,
// or a job create (ack nil, nothing accepted), which meets the same drain
// and engine errors: count the decision, look up its shape, and write it
// with the admitted prefix.
func (s *Server) failSubmit(w http.ResponseWriter, ack *ackWriter, err error, accepted int64) {
	switch {
	case errors.Is(err, errDraining) || errors.Is(err, errOverload):
		s.countShed()
	case errors.Is(err, errDeadline):
		s.countDeadlineHit()
	case errors.Is(err, errAborted):
		s.countConnAbort()
	}
	status, retryMs := submitErrShape(err)
	writeInBand(w, ack, status, err.Error(), accepted, retryMs)
}

// writeInBand routes a failure to the request's protocol: the terminal ack
// line in progress-ack mode, the buffered error reply (ack nil) otherwise,
// with a Retry-After header when the failure carries a retry hint.
func writeInBand(w http.ResponseWriter, ack *ackWriter, status int, msg string, accepted, retryMs int64) {
	if ack != nil {
		ack.final(status, msg, retryMs, accepted)
		return
	}
	if retryMs > 0 {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorBody{Error: msg, Accepted: accepted, RetryAfterMs: retryMs})
}

// writeSubmitOK closes a fully admitted request: the terminal ack line, or
// the buffered 200 — byte-identical to writeJSON(w, 200, submitResult{...})
// but built in a pooled buffer.
func writeSubmitOK(w http.ResponseWriter, ack *ackWriter, accepted int64) {
	if ack != nil {
		ack.final(http.StatusOK, "", 0, accepted)
		return
	}
	b := getBody()
	buf := b.buf.AvailableBuffer()
	buf = append(buf, `{"accepted":`...)
	buf = strconv.AppendInt(buf, accepted, 10)
	buf = append(buf, '}', '\n')
	b.buf.Write(buf)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.buf.Bytes())
	putBody(b)
}
