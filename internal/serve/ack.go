package serve

// The progress-ack half of the persistent-stream protocol (the client half
// lives in stream.go). A submit request carrying HeaderAckFlush gets its 200
// committed before the body is read — HTTP/1.1 full duplex — and then one
// NDJSON ack line per flush, so a client can hold the request open across
// batches and still learn its admitted prefix with RTT latency. Failures
// after the 200 are delivered in-band as a terminal ack line carrying the
// same status / error text / retry_after_ms the buffered protocol would have
// put on the wire: both leave through Server.reply below, with a nil
// *ackWriter standing for the buffered protocol. Where the two protocols
// differ inside a request (flush-on-idle, heartbeats, progress lines) the
// difference is a nil-safe method here, not a branch in the loop.

import "net/http"

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
	if a != nil && a.body != nil {
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
	_, _ = a.w.Write(a.body.acceptedLine(accepted))
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

// behind reports whether an idle body is worth a flush and a progress line
// now: lines are pending, or confirmed ones (a resumed request's skipped
// prefix) are not yet on the wire. Never for the buffered protocol, which
// admits in submitFlush units and answers once.
func (a *ackWriter) behind(pending int, confirmed int64) bool {
	return a != nil && (pending > 0 || confirmed > a.acked)
}

// heartbeats reports whether empty lines are the client's sign of life on an
// idle stream (they feed the stall guard) or just blank lines to skip.
func (a *ackWriter) heartbeats() bool { return a != nil }

// reply is the one exit of a submit in either protocol — and of the two other
// requests that meet the same refusals, a job create and a busy stream's
// wait (ack nil, nothing accepted): a nil err is the 200, anything else is
// looked up in the failure table, counted once, and written with the
// admitted prefix.
func (s *Server) reply(w http.ResponseWriter, ack *ackWriter, err error, accepted int64) {
	if err == nil {
		writeSubmitOK(w, ack, accepted)
		return
	}
	f := failureOf(err)
	s.count(f.counter)
	f.write(w, ack, err, accepted)
}

// write puts the failure on the wire, uncounted (a readiness probe turns no
// offered work away): the terminal ack line in progress-ack mode, the
// buffered error reply (ack nil) otherwise, with a Retry-After header when
// the failure carries a retry hint.
func (f failure) write(w http.ResponseWriter, ack *ackWriter, err error, accepted int64) {
	if f.closeConn {
		// A no-op once an ack stream has committed its own headers.
		w.Header().Set("Connection", "close")
	}
	if ack != nil {
		ack.final(f.status, err.Error(), f.retryMs, accepted)
		return
	}
	if f.retryMs > 0 {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, f.status, errorBody{Error: err.Error(), Accepted: accepted, RetryAfterMs: f.retryMs})
}

// writeSubmitOK closes a fully admitted request: the terminal ack line, or
// the buffered 200 built in a pooled buffer.
func writeSubmitOK(w http.ResponseWriter, ack *ackWriter, accepted int64) {
	if ack != nil {
		ack.final(http.StatusOK, "", 0, accepted)
		return
	}
	b := getBody()
	defer putBody(b)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.acceptedLine(accepted))
}
