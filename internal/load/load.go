// Package load is the open-loop traffic harness: it offers work to a
// target at an externally clocked arrival rate — Poisson, uniform, or
// bursty schedules — regardless of how fast the target absorbs it, which
// is what separates "tasks/s in a closed-loop benchmark" from "traffic
// served under an SLO". A closed loop waits for each response before
// sending the next request, so a saturated server silently slows the
// generator and the tail latency it reports is a lie; an open loop keeps
// arriving on schedule and lets the queues (and the 429/503 backpressure)
// tell the truth.
//
// The package is transport-agnostic: a Submitter is any function that
// tries to deliver one batch of tasks and reports how many were accepted
// and how the attempt was classified (accepted / backpressure / server
// error). internal/serve provides an HTTP Submitter over hdcps-serve;
// tests drive in-process fakes.
package load

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
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

// Submitter tries to deliver one batch of n tasks to the target. It
// returns how many tasks were actually admitted (under every outcome: a
// refused or failed batch may have an admitted prefix) and the outcome
// class. err carries detail for logging; the generator only counts it.
type Submitter func(n int) (accepted int, out Outcome, err error)

// Options configure one open-loop run.
type Options struct {
	// Rate is the offered task arrival rate, tasks/second. Each arrival
	// event submits one batch, so requests arrive at Rate/Batch per second.
	Rate float64
	// Batch is the number of tasks per submit (default 16).
	Batch int
	// Duration is how long arrivals are generated.
	Duration time.Duration
	// Arrivals picks the schedule: "poisson" (default), "uniform", or
	// "bursty".
	Arrivals string
	// BurstFactor is the bursty schedule's peak-to-mean ratio (default 4):
	// the on-phase offers BurstFactor×Rate, the off-phase idles, and the
	// duty cycle keeps the mean at Rate.
	BurstFactor float64
	// BurstPeriod is the bursty schedule's full on+off cycle (default 200ms).
	BurstPeriod time.Duration
	// Seed fixes the arrival randomness.
	Seed int64
	// MaxInFlight caps concurrent submit calls (default 128). An arrival
	// with no slot free is shed and counted — a truly open loop never
	// blocks the clock on the target.
	MaxInFlight int
	// Hist receives per-request latencies (ns). Nil allocates a fresh one.
	Hist *obs.Histogram
}

func (o Options) withDefaults() Options {
	if o.Batch <= 0 {
		o.Batch = 16
	}
	if o.Arrivals == "" {
		o.Arrivals = "poisson"
	}
	if o.BurstFactor <= 1 {
		o.BurstFactor = 4
	}
	if o.BurstPeriod <= 0 {
		o.BurstPeriod = 200 * time.Millisecond
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 128
	}
	if o.Hist == nil {
		o.Hist = obs.NewHistogram()
	}
	return o
}

// Result is one open-loop run's accounting. Offered counts every task the
// schedule generated (shed arrivals included); Accepted only those the
// target admitted. OfferedRate/AcceptedRate are per-second over Elapsed.
type Result struct {
	Offered      int64
	Accepted     int64
	Rejected     int64 // tasks of dispatched batches the target did not admit
	ServerErrs   int64 // batches that hit a server error (5xx/transport)
	Shed         int64 // tasks shed because MaxInFlight was exhausted
	Requests     int64
	Elapsed      time.Duration
	Hist         *obs.Histogram
	LastErr      error
	BatchesByOut [3]int64 // batches per Outcome

	// Clock-slip accounting. The loop is open only if the generator itself
	// keeps schedule: when the arrival clock cannot keep up (scheduler
	// starvation, dispatch overhead, a rate beyond what one goroutine can
	// clock), offered rate silently degrades and a measured "knee" is a
	// property of the generator, not the target. GenLagMax is the worst
	// dispatch lag behind the scheduled arrival time; GenSlipped counts
	// arrivals dispatched more than a mean inter-arrival gap (floored at
	// 1ms) late; GeneratorBound is set when the schedule overran its
	// deadline by more than max(Duration/20, 5ms) — results from such a run
	// measure the generator and must not be read as server capacity.
	GenLagMax      time.Duration
	GenSlipped     int64
	GeneratorBound bool
}

// OfferedRate returns offered tasks/second.
func (r Result) OfferedRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Offered) / r.Elapsed.Seconds()
}

// AcceptedRate returns accepted tasks/second.
func (r Result) AcceptedRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Accepted) / r.Elapsed.Seconds()
}

// arrival yields successive inter-arrival gaps. Implementations are called
// from the single generator goroutine and may keep state (bursty phase).
type arrival func() time.Duration

// newArrival builds the schedule for o (already defaulted); reqRate is the
// request (batch) arrival rate.
func newArrival(o Options, reqRate float64) arrival {
	rng := rand.New(rand.NewSource(o.Seed))
	mean := time.Duration(float64(time.Second) / reqRate)
	switch o.Arrivals {
	case "uniform":
		return func() time.Duration { return mean }
	case "bursty":
		// Square-wave modulation: the on-phase runs Poisson at
		// BurstFactor×reqRate for Period/BurstFactor, then the schedule
		// idles for the rest of the period, keeping the long-run mean at
		// reqRate. State is the position within the current period.
		onDur := time.Duration(float64(o.BurstPeriod) / o.BurstFactor)
		offDur := o.BurstPeriod - onDur
		var pos time.Duration
		onRate := reqRate * o.BurstFactor
		return func() time.Duration {
			gap := time.Duration(rng.ExpFloat64() * float64(time.Second) / onRate)
			if pos+gap < onDur {
				pos += gap
				return gap
			}
			// The gap crosses one or more off-phases: pay each idle window
			// the on-time skips over.
			total := pos + gap
			skips := int64(total / onDur)
			pos = total % onDur
			return gap + time.Duration(skips)*offDur
		}
	default: // poisson
		return func() time.Duration {
			return time.Duration(rng.ExpFloat64() * float64(mean))
		}
	}
}

// Run drives one open-loop session: arrivals are generated on schedule for
// o.Duration, each dispatching a submit on its own goroutine (bounded by
// MaxInFlight), and the call returns once every in-flight submit finished.
// The schedule is clocked against absolute arrival times so a slow target
// cannot stretch it (no coordinated omission).
func Run(ctx context.Context, submit Submitter, o Options) Result {
	o = o.withDefaults()
	res := Result{Hist: o.Hist}
	if o.Rate <= 0 || o.Duration <= 0 {
		return res
	}
	reqRate := o.Rate / float64(o.Batch)
	next := newArrival(o, reqRate)

	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		accepted atomic.Int64
		rejected atomic.Int64
		serverE  atomic.Int64
		requests atomic.Int64
		byOut    [3]atomic.Int64
		lastErr  atomic.Pointer[error]
	)
	// An arrival dispatched more than a mean gap (floored at 1ms) behind its
	// scheduled time counts as slipped.
	slipTol := time.Duration(float64(time.Second) / reqRate)
	if slipTol < time.Millisecond {
		slipTol = time.Millisecond
	}
	start := time.Now()
	deadline := start.Add(o.Duration)
	at := start
	for {
		at = at.Add(next())
		if at.After(deadline) {
			break
		}
		if d := time.Until(at); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		} else if lag := -d; lag > 0 {
			if lag > res.GenLagMax {
				res.GenLagMax = lag
			}
			if lag > slipTol {
				res.GenSlipped++
			}
		}
		if ctx.Err() != nil {
			break
		}
		res.Offered += int64(o.Batch)
		if inflight.Load() >= int64(o.MaxInFlight) {
			res.Shed += int64(o.Batch)
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			t0 := time.Now()
			n, out, err := submit(o.Batch)
			o.Hist.ObserveDuration(time.Since(t0))
			requests.Add(1)
			byOut[out].Add(1)
			// Whatever the outcome, n is the prefix the target confirmed: a
			// batch that failed part-way still admitted it.
			accepted.Add(int64(n))
			rejected.Add(int64(o.Batch - n))
			if out == ServerError {
				serverE.Add(1)
			}
			if err != nil {
				lastErr.Store(&err)
			}
		}()
	}
	// Schedule overrun is measured at arrival-loop exit, before waiting for
	// in-flight submits: a slow target stretches wg.Wait, never the clock.
	if overrun := time.Since(deadline); ctx.Err() == nil &&
		overrun > max(o.Duration/20, 5*time.Millisecond) {
		res.GeneratorBound = true
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if res.Elapsed < o.Duration && ctx.Err() == nil {
		// The schedule ran to its deadline; rates denominate over the
		// scheduled window even when the last arrival landed early (a bursty
		// run can end mid off-phase).
		res.Elapsed = o.Duration
	}
	res.Accepted = accepted.Load()
	res.Rejected = rejected.Load()
	res.ServerErrs = serverE.Load()
	res.Requests = requests.Load()
	for i := range byOut {
		res.BatchesByOut[i] = byOut[i].Load()
	}
	if p := lastErr.Load(); p != nil {
		res.LastErr = *p
	}
	return res
}
