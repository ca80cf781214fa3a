package load

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// fastSender accepts everything instantly.
func fastSender(calls *atomic.Int64) Sender {
	return func(n int) (int, Outcome, error) {
		calls.Add(1)
		return n, Accepted, nil
	}
}

// slowSender accepts everything after d.
func slowSender(d time.Duration) Sender {
	return func(n int) (int, Outcome, error) {
		time.Sleep(d)
		return n, Accepted, nil
	}
}

func TestOpenLoopHitsTargetRate(t *testing.T) {
	var calls atomic.Int64
	res := Run(context.Background(), []Sender{fastSender(&calls), fastSender(&calls)}, Options{
		Rate: 8000, Batch: 8, Duration: 300 * time.Millisecond, Seed: 1,
	})
	if res.Accepted != res.Offered || res.Offered == 0 {
		t.Fatalf("fast target must accept all offers: %+v", res)
	}
	// Offered rate within 30% of target (short window, Poisson noise,
	// loaded CI box).
	if r := res.OfferedRate(); math.Abs(r-8000)/8000 > 0.30 {
		t.Fatalf("offered rate %.0f strays too far from 8000", r)
	}
	if res.Hist.Count() != res.Requests || calls.Load() != res.Requests {
		t.Fatalf("one latency sample and one call per request: %d, %d, %d",
			res.Hist.Count(), calls.Load(), res.Requests)
	}
}

func TestOpenLoopDoesNotBlockOnSlowTarget(t *testing.T) {
	// Two senders slower than the arrival rate: the open loop must keep
	// offering on schedule instead of slowing the clock.
	res := Run(context.Background(), []Sender{slowSender(10 * time.Millisecond), slowSender(10 * time.Millisecond)}, Options{
		Rate: 2000, Batch: 4, Duration: 100 * time.Millisecond, Seed: 3,
	})
	if r := res.OfferedRate(); r < 2000*0.6 {
		t.Fatalf("offered rate %.0f collapsed: the loop blocked on the target", r)
	}
	if res.Accepted != res.Offered {
		t.Fatalf("every arrival fits a sender's backlog and must be answered: %+v", res)
	}
}

// TestLatencyCountsTheWaitBehindTheStream: one sender slower than the
// arrival gap falls behind the schedule, and each batch's latency runs from
// its scheduled arrival, so the queue it waited in shows in the tail — not
// just the service time of its own submit.
func TestLatencyCountsTheWaitBehindTheStream(t *testing.T) {
	const service = 2 * time.Millisecond
	res := Run(context.Background(), []Sender{slowSender(service)}, Options{
		Rate: 1000, Batch: 1, Duration: 150 * time.Millisecond, Seed: 10,
	})
	if res.Requests < 50 {
		t.Fatalf("too few requests to read a tail: %+v", res)
	}
	if p90 := time.Duration(res.Hist.Quantile(0.90)); p90 < 5*service {
		t.Fatalf("p90 %s with one sender twice as slow as the arrivals, want above %s: the wait behind the stream is not counted",
			p90, 5*service)
	}
}

func TestSlowTargetIsNotGeneratorBound(t *testing.T) {
	// A target far slower than the arrival rate must not trip the clock-slip
	// detector: submits run off the clock goroutine, so only the clock's own
	// pacing matters.
	res := Run(context.Background(), []Sender{slowSender(10 * time.Millisecond), slowSender(10 * time.Millisecond)}, Options{
		Rate: 2000, Batch: 16, Duration: 150 * time.Millisecond, Seed: 6,
	})
	if res.GeneratorBound {
		t.Fatalf("slow target flagged generator-bound: lagMax %s slipped %d",
			res.GenLagMax, res.GenSlipped)
	}
}

func TestOverdrivenScheduleIsGeneratorBound(t *testing.T) {
	// A schedule one goroutine cannot possibly clock (one arrival every
	// 10ns) must be flagged: its offered rate measures the generator, not
	// the target.
	var calls atomic.Int64
	res := Run(context.Background(), []Sender{fastSender(&calls)}, Options{
		Rate: 1e8, Batch: 1, Duration: 2 * time.Millisecond, Seed: 7,
	})
	if !res.GeneratorBound {
		t.Fatalf("overdriven schedule not flagged generator-bound: %+v", res)
	}
	if res.GenSlipped == 0 || res.GenLagMax <= 0 {
		t.Fatalf("slip accounting empty on an overdriven run: lagMax %s slipped %d",
			res.GenLagMax, res.GenSlipped)
	}
}

// TestFullBacklogSheds: arrivals for a sender already backlog batches
// behind are shed and counted, never queued without bound.
func TestFullBacklogSheds(t *testing.T) {
	// The sender answers nothing until well after the schedule ends, then
	// its backlog at once.
	open := time.Now().Add(60 * time.Millisecond)
	stuck := func(n int) (int, Outcome, error) {
		time.Sleep(time.Until(open))
		return n, Accepted, nil
	}
	res := Run(context.Background(), []Sender{stuck}, Options{
		Rate: 1e6, Batch: 1, Duration: 20 * time.Millisecond, Seed: 11,
	})
	if res.Shed == 0 || res.Requests > backlog+1 {
		t.Fatalf("a stuck sender must cap its backlog at %d and shed the rest: %+v", backlog, res)
	}
	if res.Offered != res.Shed+res.Requests {
		t.Fatalf("offered %d != shed %d + requests %d", res.Offered, res.Shed, res.Requests)
	}
}

func TestOutcomeAccounting(t *testing.T) {
	var i atomic.Int64
	mixed := func(n int) (int, Outcome, error) {
		switch i.Add(1) % 3 {
		case 0:
			return 0, ServerError, errors.New("boom")
		case 1:
			return 0, Backpressure, nil
		default:
			return n, Accepted, nil
		}
	}
	res := Run(context.Background(), []Sender{mixed, mixed}, Options{
		Rate: 3000, Batch: 3, Duration: 100 * time.Millisecond, Seed: 4,
	})
	if res.BatchesByOut[ServerError] == 0 || res.Rejected == 0 || res.Accepted == 0 {
		t.Fatalf("all three outcomes must be counted: %+v", res)
	}
	if res.LastErr == nil {
		t.Fatal("server-error detail must be retained")
	}
	sum := res.BatchesByOut[Accepted] + res.BatchesByOut[Backpressure] + res.BatchesByOut[ServerError]
	if sum != res.Requests {
		t.Fatalf("outcome batches %d != requests %d", sum, res.Requests)
	}
}

// TestServerErrorKeepsAdmittedPrefix: a batch that fails after the target
// admitted part of it counts that part as accepted and the rest as rejected,
// so the client's total matches the target's ledger.
func TestServerErrorKeepsAdmittedPrefix(t *testing.T) {
	partial := func(n int) (int, Outcome, error) { return 5, ServerError, errors.New("boom") }
	res := Run(context.Background(), []Sender{partial}, Options{
		Rate: 4000, Batch: 8, Duration: 100 * time.Millisecond, Seed: 8,
	})
	if res.Requests == 0 || res.BatchesByOut[ServerError] != res.Requests {
		t.Fatalf("every batch is a server error: %+v", res)
	}
	if res.Accepted != 5*res.Requests || res.Rejected != 3*res.Requests {
		t.Fatalf("accepted %d rejected %d over %d batches, want 5 and 3 a batch",
			res.Accepted, res.Rejected, res.Requests)
	}
}

func TestRunRespectsContextCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var calls atomic.Int64
	start := time.Now()
	Run(ctx, []Sender{fastSender(&calls)}, Options{Rate: 100, Batch: 1, Duration: 10 * time.Second, Seed: 5})
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancelled run did not stop promptly")
	}
}
