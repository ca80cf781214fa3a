// Package load is the open-loop traffic harness: it offers work to a
// target on a Poisson arrival schedule regardless of how fast the target
// absorbs it, which is what separates "tasks/s in a closed-loop benchmark"
// from "traffic served under an SLO". A closed loop waits for each response
// before sending the next request, so a saturated server silently slows the
// generator and the tail latency it reports is a lie; an open loop keeps
// arriving on schedule and lets the queues (and the 429/503 backpressure)
// tell the truth.
//
// The package is transport-agnostic: a Sender is any function that tries to
// deliver one batch of tasks and reports how many were accepted and how the
// attempt was classified (accepted / backpressure / server error).
// internal/serve provides one Sender per persistent stream over
// hdcps-serve; tests drive in-process fakes.
package load

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"hdcps/internal/obs"
)

// Outcome classifies one submit attempt for the generator's accounting.
type Outcome int

const (
	// Accepted: the batch (or a prefix of it) was admitted.
	Accepted Outcome = iota
	// Backpressure: the target refused with an explicit, retryable signal
	// (HTTP 429/503, quota, overload shed). Expected under saturation.
	Backpressure
	// ServerError: the target failed (HTTP 5xx, transport error). Never
	// expected; the serve gate's zero-5xx canary keys off this.
	ServerError
)

// Sender tries to deliver one batch of n tasks to the target. It returns
// how many tasks were actually admitted (under every outcome: a refused or
// failed batch may have an admitted prefix) and the outcome class. err
// carries detail for logging; the generator only counts it. Run calls each
// Sender from one goroutine of its own, one batch at a time.
type Sender func(n int) (accepted int, out Outcome, err error)

// backlog is how many scheduled batches a sender may lag by before the
// clock sheds its further arrivals.
const backlog = 1024

// Options configure one open-loop run.
type Options struct {
	// Rate is the offered task arrival rate, tasks/second. Each arrival
	// submits one batch, so batches arrive at Rate/Batch per second.
	Rate float64
	// Batch is the number of tasks per submit (default 16).
	Batch int
	// Duration is how long arrivals are generated.
	Duration time.Duration
	// Seed fixes the arrival schedule.
	Seed int64
}

// Result is one open-loop run's accounting. Offered counts every task the
// schedule generated (shed arrivals included); Accepted only those the
// target admitted.
type Result struct {
	Offered      int64
	Accepted     int64
	Rejected     int64 // tasks of dispatched batches the target did not admit
	Shed         int64 // tasks shed because their sender was backlog batches behind
	Requests     int64
	Window       time.Duration  // the schedule: Duration, or less if ctx ended it
	Elapsed      time.Duration  // start to the last answer
	Hist         *obs.Histogram // per-batch latency (ns) from its scheduled arrival
	LastErr      error
	BatchesByOut [3]int64 // batches per Outcome

	// Clock-slip accounting. The loop is open only if the generator itself
	// keeps schedule: when the arrival clock cannot keep up (scheduler
	// starvation, a rate beyond what one goroutine can clock), offered rate
	// silently degrades and a measured "knee" is a property of the
	// generator, not the target. GenLagMax is the worst dispatch lag behind
	// the scheduled arrival time; GenSlipped counts arrivals dispatched more
	// than a mean inter-arrival gap (floored at 1ms) late; GeneratorBound is
	// set when the schedule overran its deadline by more than
	// max(Duration/20, 5ms) — results from such a run measure the generator
	// and must not be read as server capacity.
	GenLagMax      time.Duration
	GenSlipped     int64
	GeneratorBound bool
}

// OfferedRate returns offered tasks/second over the schedule window.
func (r Result) OfferedRate() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.Offered) / r.Window.Seconds()
}

// AcceptedRate returns accepted tasks/second over the run until the last
// answer.
func (r Result) AcceptedRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Accepted) / r.Elapsed.Seconds()
}

// sender is one Sender's goroutine-local accounting.
type sender struct {
	due                     chan time.Time
	accepted, rejected, req int64
	byOut                   [3]int64
	lastErr                 error
}

// Run drives one open-loop session. The calling goroutine owns the clock:
// it walks a Poisson schedule for o.Duration and hands each arrival,
// stamped with the time it was due, to the next sender's backlog, shedding
// it when that backlog is full. Latency runs from the stamp, so time a batch
// waits behind its stream counts, and a slow target cannot stretch the
// schedule (no coordinated omission). Run returns once every sender has
// answered its backlog.
func Run(ctx context.Context, senders []Sender, o Options) Result {
	if o.Batch <= 0 {
		o.Batch = 16
	}
	res := Result{Hist: obs.NewHistogram()}
	if o.Rate <= 0 || o.Duration <= 0 || len(senders) == 0 {
		return res
	}
	ss := make([]*sender, len(senders))
	var wg sync.WaitGroup
	for i, send := range senders {
		s := &sender{due: make(chan time.Time, backlog)}
		ss[i] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for due := range s.due {
				n, out, err := send(o.Batch)
				res.Hist.ObserveDuration(time.Since(due))
				s.req++
				s.byOut[out]++
				// Whatever the outcome, n is the prefix the target confirmed:
				// a batch that failed part-way still admitted it.
				s.accepted += int64(n)
				s.rejected += int64(o.Batch - n)
				if err != nil {
					s.lastErr = err
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(o.Seed))
	gap := float64(time.Second) * float64(o.Batch) / o.Rate
	// An arrival dispatched more than a mean gap (floored at 1ms) behind its
	// scheduled time counts as slipped.
	slipTol := max(time.Duration(gap), time.Millisecond)
	start := time.Now()
	deadline := start.Add(o.Duration)
	for at, i := start, 0; ctx.Err() == nil; i++ {
		at = at.Add(time.Duration(rng.ExpFloat64() * gap))
		if at.After(deadline) {
			break
		}
		if !waitUntil(ctx, at) {
			break
		}
		lag := time.Since(at)
		res.GenLagMax = max(res.GenLagMax, lag)
		if lag > slipTol {
			res.GenSlipped++
		}
		res.Offered += int64(o.Batch)
		select {
		case ss[i%len(ss)].due <- at:
		default:
			res.Shed += int64(o.Batch)
		}
	}
	res.Window = o.Duration
	if ctx.Err() != nil {
		res.Window = min(time.Since(start), o.Duration)
	}
	// Schedule overrun is measured at clock exit, before the senders answer
	// their backlog: a slow target stretches the wait, never the clock.
	if overrun := time.Since(deadline); ctx.Err() == nil &&
		overrun > max(o.Duration/20, 5*time.Millisecond) {
		res.GeneratorBound = true
	}
	for _, s := range ss {
		close(s.due)
	}
	wg.Wait()
	res.Elapsed = max(time.Since(start), res.Window)
	for _, s := range ss {
		res.Accepted += s.accepted
		res.Rejected += s.rejected
		res.Requests += s.req
		for k := range s.byOut {
			res.BatchesByOut[k] += s.byOut[k]
		}
		if s.lastErr != nil {
			res.LastErr = s.lastErr
		}
	}
	return res
}

// waitUntil paces the clock to at: it sleeps through the long gaps and
// yields through the short ones, because the runtime's timers are too
// coarse for sub-100µs spacing. It reports false if ctx ended first.
func waitUntil(ctx context.Context, at time.Time) bool {
	for {
		wait := time.Until(at)
		switch {
		case ctx.Err() != nil:
			return false
		case wait <= 0:
			return true
		case wait > 100*time.Microsecond:
			t := time.NewTimer(wait - 50*time.Microsecond)
			select {
			case <-ctx.Done():
				t.Stop()
				return false
			case <-t.C:
			}
		default:
			runtime.Gosched()
		}
	}
}
