package load

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// fastSubmitter accepts everything instantly.
func fastSubmitter(calls *atomic.Int64) Submitter {
	return func(n int) (int, Outcome, error) {
		calls.Add(1)
		return n, Accepted, nil
	}
}

func TestOpenLoopHitsTargetRate(t *testing.T) {
	var calls atomic.Int64
	res := Run(context.Background(), fastSubmitter(&calls), Options{
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
	if res.Hist.Count() != res.Requests {
		t.Fatalf("one latency sample per request: %d != %d", res.Hist.Count(), res.Requests)
	}
}

func TestOpenLoopUniformAndBurstyMeanRate(t *testing.T) {
	for _, kind := range []string{"uniform", "bursty"} {
		var calls atomic.Int64
		res := Run(context.Background(), fastSubmitter(&calls), Options{
			Rate: 6000, Batch: 6, Duration: 400 * time.Millisecond,
			Arrivals: kind, Seed: 2,
		})
		if res.Offered == 0 {
			t.Fatalf("%s: no arrivals", kind)
		}
		if r := res.OfferedRate(); math.Abs(r-6000)/6000 > 0.35 {
			t.Fatalf("%s: mean offered rate %.0f strays too far from 6000", kind, r)
		}
	}
}

func TestOpenLoopDoesNotBlockOnSlowTarget(t *testing.T) {
	// A submitter slower than the arrival rate: the open loop must keep
	// offering (shedding beyond MaxInFlight) instead of slowing the clock.
	slow := func(n int) (int, Outcome, error) {
		time.Sleep(50 * time.Millisecond)
		return n, Accepted, nil
	}
	res := Run(context.Background(), slow, Options{
		Rate: 4000, Batch: 4, Duration: 250 * time.Millisecond,
		Seed: 3, MaxInFlight: 2,
	})
	if res.Shed == 0 {
		t.Fatalf("slow target with MaxInFlight=2 must shed: %+v", res)
	}
	if r := res.OfferedRate(); r < 4000*0.6 {
		t.Fatalf("offered rate %.0f collapsed: the loop blocked on the target", r)
	}
}

func TestSlowTargetIsNotGeneratorBound(t *testing.T) {
	// A target far slower than the arrival rate must not trip the clock-slip
	// detector: submits run off the generator goroutine, so only the
	// generator's own clock matters.
	slow := func(n int) (int, Outcome, error) {
		time.Sleep(50 * time.Millisecond)
		return n, Accepted, nil
	}
	res := Run(context.Background(), slow, Options{
		Rate: 2000, Batch: 16, Duration: 250 * time.Millisecond,
		Seed: 6, MaxInFlight: 2,
	})
	if res.GeneratorBound {
		t.Fatalf("slow target flagged generator-bound: lagMax %s slipped %d",
			res.GenLagMax, res.GenSlipped)
	}
}

func TestOverdrivenScheduleIsGeneratorBound(t *testing.T) {
	// A schedule the generator goroutine cannot possibly clock (one arrival
	// every 200ns) must be flagged: its offered rate measures the generator,
	// not the target.
	// MaxInFlight is uncapped so every arrival pays the dispatch cost instead
	// of taking the cheap shed path.
	var calls atomic.Int64
	res := Run(context.Background(), fastSubmitter(&calls), Options{
		Rate: 5e6, Batch: 1, Duration: 20 * time.Millisecond, Seed: 7,
		MaxInFlight: 1 << 30,
	})
	if !res.GeneratorBound {
		t.Fatalf("overdriven schedule not flagged generator-bound: %+v", res)
	}
	if res.GenSlipped == 0 || res.GenLagMax <= 0 {
		t.Fatalf("slip accounting empty on an overdriven run: lagMax %s slipped %d",
			res.GenLagMax, res.GenSlipped)
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
	res := Run(context.Background(), mixed, Options{
		Rate: 3000, Batch: 3, Duration: 300 * time.Millisecond, Seed: 4,
	})
	if res.ServerErrs == 0 || res.Rejected == 0 || res.Accepted == 0 {
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
	res := Run(context.Background(), partial, Options{
		Rate: 4000, Batch: 8, Duration: 100 * time.Millisecond, Seed: 8,
	})
	if res.Requests == 0 || res.ServerErrs != res.Requests {
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
	Run(ctx, fastSubmitter(&calls), Options{Rate: 100, Batch: 1, Duration: 10 * time.Second, Seed: 5})
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancelled run did not stop promptly")
	}
}
