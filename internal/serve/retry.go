package serve

// The retry vocabulary of the persistent stream (stream.go): the policy that
// bounds one outage, the counters its decisions feed, and the classification
// of an attempt's outcome. The manager loop in PersistentStream.run leans on
// two server contracts (resilience.go):
//
//   - Every response — success, shed, deadline cut, stall abort — reports the
//     admitted prefix of the request, so the client resends only the
//     unconfirmed suffix.
//   - The stream tracker closes the lost-response hole: each attempt carries
//     X-Stream-Id and X-Stream-Offset, and a server that already admitted
//     more than the client knows skips the overlap instead of re-admitting
//     it. A transport error therefore never forces a choice between
//     possible loss and possible duplication — the retry reconciles.
//
// Backoff is capped exponential with full jitter, seeded so tests are
// reproducible, and honors the server's Retry-After / retry_after_ms hints
// as a floor. An attempt cap and a cumulative backoff budget bound how long
// one outage can keep a stream's lines in flight.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"hdcps/internal/obs"
)

// RetryPolicy bounds one outage of a stream: the counters below reset
// whenever the server confirms progress. The zero value means "defaults",
// not "no retries" — use MaxAttempts: 1 for a stream that dies on its first
// failure.
type RetryPolicy struct {
	// MaxAttempts caps consecutive failed attempts (first try included).
	// 0 defaults to 8.
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff window (full jitter:
	// sleep ~ hint + U[0, min(MaxBackoff, Base*2^n))). 0 defaults to 25ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the jitter window. 0 defaults to 2s.
	MaxBackoff time.Duration
	// Budget caps cumulative backoff sleep per outage; once spent, the next
	// retryable failure is terminal. 0 defaults to 30s.
	Budget time.Duration
	// RequestTimeout is the ack-progress watchdog: an attempt whose
	// unconfirmed lines see no ack for this long is cut and retried. 0
	// disables.
	RequestTimeout time.Duration
	// Seed drives the jitter RNG (reproducible backoff in tests). 0
	// defaults to 1.
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.Budget <= 0 {
		p.Budget = 30 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// RetryStats aggregates the retry loop's decisions across streams (atomics:
// share one across concurrent streams and read it live).
type RetryStats struct {
	Attempts  atomic.Int64 // HTTP attempts, first tries included
	Retries   atomic.Int64 // attempts beyond each stream's first
	Resumes   atomic.Int64 // acked attempts that resumed a partially-admitted stream after a failed one
	GiveUps   atomic.Int64 // streams abandoned with work unadmitted
	BackoffNs atomic.Int64 // cumulative backoff slept
	// Reconnect holds one sample a resume: the time from the failed
	// attempt's end to the first ack of the attempt that resumed it (ns).
	Reconnect obs.Histogram
}

func (s *RetryStats) String() string {
	return fmt.Sprintf("attempts %d, retries %d, resumes %d, giveups %d, backoff %s, reconnect p50 %s p99 %s",
		s.Attempts.Load(), s.Retries.Load(), s.Resumes.Load(), s.GiveUps.Load(),
		time.Duration(s.BackoffNs.Load()).Round(time.Millisecond),
		time.Duration(s.Reconnect.Quantile(0.50)).Round(time.Microsecond),
		time.Duration(s.Reconnect.Quantile(0.99)).Round(time.Microsecond))
}

// ErrRetriesExhausted marks a stream abandoned for a bounded-policy reason
// (attempt cap or backoff budget) while the server answered every attempt of
// the outage with backpressure (429/503/408). StreamSenders' senders map it to
// Backpressure: the work was shed, not broken. An outage with even one
// attempt lost to a transport error is not this error — a server nobody can
// reliably reach is a failure, not load shedding.
var ErrRetriesExhausted = errors.New("serve client: retries exhausted")

// streamIDs must be unique per logical stream (a collision would make the
// server skip another stream's lines): process-local sequence plus the
// process start time.
var (
	streamSeq   atomic.Uint64
	streamEpoch = time.Now().UnixNano()
)

func newStreamID() string {
	return fmt.Sprintf("%x-%x", streamEpoch, streamSeq.Add(1))
}

// retryable reports whether an attempt outcome is worth another try:
// transport errors (no response at all) and the server's explicit
// backpressure/timeout answers.
func retryable(status int, err error) bool {
	if err != nil && status == 0 {
		return true
	}
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusRequestTimeout:
		return true
	}
	return false
}

// retryHint parses a Retry-After header (delay-seconds form only).
func retryHint(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	sec, err := strconv.Atoi(v)
	if err != nil || sec < 0 {
		return 0
	}
	return time.Duration(sec) * time.Second
}

// WaitReady polls /readyz until the server reports ready, ctx expires, or
// the deadline passes. Transport errors are retried (the server may still
// be binding its listener) — the smoke scripts' startup gate.
func (c *Client) WaitReady(ctx context.Context, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var lastErr error
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.hc().Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("readyz: %s", resp.Status)
		} else {
			lastErr = err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve client: server not ready: %w (last: %v)", ctx.Err(), lastErr)
		case <-time.After(50 * time.Millisecond):
		}
	}
}
