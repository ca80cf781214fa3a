// Package chaos is the fault-injection harness for the native runtime: a
// Transport wrapper that perturbs inter-worker task transfer with seeded,
// deterministic faults — delivery delay, duplication, reordering, transient
// ring-full rejections, and worker stalls — plus an invariant checker that
// asserts the engine's conservation ledger and termination guarantees hold
// under every mix.
//
// The harness exists to *prove* the fault layer's two claims rather than
// assume them:
//
//   - no task loss: Submitted + Spawned == Processed + BagsRetired +
//     Quarantined at every quiescent checkpoint (runtime's conservation
//     ledger, see internal/runtime/fault.go);
//   - termination: Drain always returns — quiescence or a *StallError —
//     no matter which faults fire.
//
// Determinism: every fault decision comes from a per-endpoint seeded RNG
// (the same splitmix/xorshift generator the engine uses for destination
// selection), so a seed reproduces the same fault *decision stream*. The OS
// scheduler still interleaves workers differently run to run — the harness
// makes the faults reproducible, not the whole execution.
//
// Faults are measured in transport turns (Recv rounds), not wall-clock
// time: a held batch is released after a fixed number of owner polls, and a
// stalled endpoint wakes after a fixed number of rounds. Since workers keep
// polling while work is outstanding, every held task is eventually
// delivered and termination is preserved by construction.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"hdcps/internal/graph"
	"hdcps/internal/runtime"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// Config is one fault mix. Probabilities are per-opportunity in [0, 1]; the
// zero value injects nothing (a transparent wrapper).
type Config struct {
	// Seed drives every fault decision (per-endpoint streams derive from it).
	Seed uint64
	// Delay is the probability that a drained Recv batch is held back and
	// redelivered DelayTurns polls later (message delay).
	Delay float64
	// DelayTurns is how many Recv rounds a held batch waits. 0 defaults to 3.
	DelayTurns int
	// Duplicate is the probability, per non-empty Recv batch, that one task
	// from the batch is re-submitted through the engine (message
	// duplication). Duplicates enter the conservation ledger as submissions,
	// so the no-loss invariant stays exact; workloads tolerate duplicated
	// tasks by contract. Requires BindResubmit (chaos.Engine wires it).
	Duplicate float64
	// Reorder is the probability that a drained Recv batch is shuffled
	// before delivery (priority-order perturbation).
	Reorder float64
	// RingFull is the probability that a Send is bounced as if the
	// destination were saturated, exercising the engine's spill-to-local
	// flow-control path.
	RingFull float64
	// Stall is the probability, per Recv round, that the endpoint goes deaf
	// for StallFor rounds (a stalled/descheduled worker: its ring keeps
	// filling, nothing drains).
	Stall float64
	// StallFor is how many Recv rounds a stall lasts. 0 defaults to 8.
	StallFor int
}

func (c Config) withDefaults() Config {
	if c.DelayTurns <= 0 {
		c.DelayTurns = 3
	}
	if c.StallFor <= 0 {
		c.StallFor = 8
	}
	return c
}

// DefaultMix is a moderate everything-on mix: every fault class fires often
// enough to be exercised in a short run without drowning the workload.
func DefaultMix(seed uint64) Config {
	return Config{
		Seed:      seed,
		Delay:     0.05,
		Duplicate: 0.02,
		Reorder:   0.10,
		RingFull:  0.05,
		Stall:     0.01,
	}
}

// ParseSpec parses a "key=value,key=value" fault-mix spec, e.g.
//
//	seed=42,delay=0.1,dup=0.02,reorder=0.2,ringfull=0.05,stall=0.01
//
// Keys: seed, delay, delayturns, dup (alias duplicate), reorder, ringfull,
// stall, stallfor. The spec "default" (or "seed=N" alone with "default")
// is not special — an empty spec returns DefaultMix(1).
func ParseSpec(spec string) (Config, error) {
	cfg := Config{Seed: 1}
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "default" {
		return DefaultMix(1), nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		if kv == "default" {
			base := DefaultMix(cfg.Seed)
			base.Seed = cfg.Seed
			cfg = base
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: bad spec element %q (want key=value)", kv)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		switch k {
		case "seed", "delayturns", "stallfor":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("chaos: bad %s %q: %v", k, v, err)
			}
			switch k {
			case "seed":
				cfg.Seed = n
			case "delayturns":
				cfg.DelayTurns = int(n)
			case "stallfor":
				cfg.StallFor = int(n)
			}
		case "delay", "dup", "duplicate", "reorder", "ringfull", "stall":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return Config{}, fmt.Errorf("chaos: bad probability %s=%q (want [0,1])", k, v)
			}
			switch k {
			case "delay":
				cfg.Delay = p
			case "dup", "duplicate":
				cfg.Duplicate = p
			case "reorder":
				cfg.Reorder = p
			case "ringfull":
				cfg.RingFull = p
			case "stall":
				cfg.Stall = p
			}
		default:
			return Config{}, fmt.Errorf("chaos: unknown spec key %q", k)
		}
	}
	return cfg, nil
}

// String renders the mix back in ParseSpec's syntax.
func (c Config) String() string {
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	add := func(k string, p float64) {
		if p > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, p))
		}
	}
	add("delay", c.Delay)
	add("dup", c.Duplicate)
	add("reorder", c.Reorder)
	add("ringfull", c.RingFull)
	add("stall", c.Stall)
	return strings.Join(parts, ",")
}

// Stats counts injected faults (atomics: read them while the fleet runs).
type Stats struct {
	DelayedBatches atomic.Int64 // Recv batches held back
	DelayedTasks   atomic.Int64 // tasks inside held batches
	Duplicates     atomic.Int64 // tasks re-submitted as duplicates
	Reordered      atomic.Int64 // Recv batches shuffled
	Rejected       atomic.Int64 // sends bounced as transient ring-full
	Stalls         atomic.Int64 // stall episodes started
}

func (s *Stats) String() string {
	return fmt.Sprintf(
		"delayed %d batches (%d tasks), duplicated %d, reordered %d, rejected %d, stalls %d",
		s.DelayedBatches.Load(), s.DelayedTasks.Load(), s.Duplicates.Load(),
		s.Reordered.Load(), s.Rejected.Load(), s.Stalls.Load())
}

// heldBatch is a delayed delivery parked at its destination endpoint.
type heldBatch struct {
	release uint64 // Recv round at which the batch is delivered
	tasks   []task.Task
}

// endpoint is one worker's chaos state. Recv and Send for a given id are
// called only by that worker's goroutine (the Transport contract), so the
// RNG and the held/stall state need no locks.
type endpoint struct {
	rng        *graph.RNG
	round      uint64 // Recv polls so far (the endpoint's clock)
	stallUntil uint64 // deaf until this round
	held       []heldBatch
}

// Transport wraps an inner runtime.Transport with fault injection. Build
// one with Wrap (or let chaos.Engine do the wiring) and pass it to the
// engine via runtime.Config.NewTransport.
type Transport struct {
	cfg   Config
	inner runtime.Transport
	eps   []endpoint
	stats Stats

	// resubmit re-enters duplicated tasks through Engine.Submit so they are
	// ledger-counted submissions, not phantom deliveries. Set by
	// BindResubmit before Start; nil disables duplication.
	resubmit func(...task.Task) error
}

// Wrap layers fault injection over inner for a fleet of `workers` endpoints.
func Wrap(inner runtime.Transport, workers int, cfg Config) *Transport {
	cfg = cfg.withDefaults()
	ct := &Transport{cfg: cfg, inner: inner, eps: make([]endpoint, workers)}
	for i := range ct.eps {
		// Distinct decision stream per endpoint, derived from the mix seed
		// with the same odd-constant stride the engine uses per worker.
		ct.eps[i].rng = graph.NewRNG((cfg.Seed ^ 0xc2b2ae3d27d4eb4f) + uint64(i)*0x9e3779b97f4a7c15)
	}
	return ct
}

// BindResubmit wires the duplication path to the engine's Submit. Must be
// called before the engine starts (chaos.Engine does this); without it the
// Duplicate probability is ignored.
func (ct *Transport) BindResubmit(fn func(...task.Task) error) { ct.resubmit = fn }

// Stats exposes the live fault counters.
func (ct *Transport) Stats() *Stats { return &ct.stats }

func (ct *Transport) Send(src, dst int, t task.Task) []task.Task {
	ep := &ct.eps[src]
	if ct.cfg.RingFull > 0 && ep.rng.Float64() < ct.cfg.RingFull {
		// Transient saturation: bounce the task exactly as a full
		// destination would, driving the sender's spill-to-local path.
		ct.stats.Rejected.Add(1)
		return []task.Task{t}
	}
	return ct.inner.Send(src, dst, t)
}

func (ct *Transport) Pending(src int) int { return ct.inner.Pending(src) }

func (ct *Transport) Flush(src int) []task.Task { return ct.inner.Flush(src) }

func (ct *Transport) Recv(id int, dst []task.Task) []task.Task {
	ep := &ct.eps[id]
	ep.round++

	// A stalled endpoint is deaf: nothing drains, its ring keeps filling.
	// Bounded in rounds, so the stall always ends while work remains.
	if ep.round < ep.stallUntil {
		return dst
	}
	if ct.cfg.Stall > 0 && ep.rng.Float64() < ct.cfg.Stall {
		ep.stallUntil = ep.round + uint64(ct.cfg.StallFor)
		ct.stats.Stalls.Add(1)
		return dst
	}

	// Release held batches that have served their delay.
	if len(ep.held) > 0 {
		kept := ep.held[:0]
		for _, h := range ep.held {
			if h.release <= ep.round {
				dst = append(dst, h.tasks...)
			} else {
				kept = append(kept, h)
			}
		}
		ep.held = kept
	}

	base := len(dst)
	dst = ct.inner.Recv(id, dst)
	fresh := dst[base:]
	if len(fresh) == 0 {
		return dst
	}

	if ct.cfg.Delay > 0 && ep.rng.Float64() < ct.cfg.Delay {
		// Hold the freshly drained batch; it re-emerges DelayTurns polls
		// from now. The tasks stay outstanding the whole time, so no park.
		ep.held = append(ep.held, heldBatch{
			release: ep.round + uint64(ct.cfg.DelayTurns),
			tasks:   append([]task.Task(nil), fresh...),
		})
		ct.stats.DelayedBatches.Add(1)
		ct.stats.DelayedTasks.Add(int64(len(fresh)))
		return dst[:base]
	}

	if ct.cfg.Reorder > 0 && len(fresh) > 1 && ep.rng.Float64() < ct.cfg.Reorder {
		for i := len(fresh) - 1; i > 0; i-- {
			j := ep.rng.Intn(i + 1)
			fresh[i], fresh[j] = fresh[j], fresh[i]
		}
		ct.stats.Reordered.Add(1)
	}

	if ct.cfg.Duplicate > 0 && ct.resubmit != nil && ep.rng.Float64() < ct.cfg.Duplicate {
		// Through Submit, not the ring: the duplicate becomes a counted
		// submission, keeping the conservation ledger exact. A duplicate
		// racing Stop may be refused (ErrStopped) — that is fine, it never
		// entered the ledger. A drawn bag marker is not duplicated: it names
		// a payload slot that only one pop may open and release.
		dup := fresh[ep.rng.Intn(len(fresh))]
		if !runtime.IsBagMarker(dup) && ct.resubmit(dup) == nil {
			ct.stats.Duplicates.Add(1)
		}
	}
	return dst
}

func (ct *Transport) Inject(id int, ts []task.Task) { ct.inner.Inject(id, ts) }

func (ct *Transport) Spills(id int) int64 { return ct.inner.Spills(id) }

// Engine builds a native engine whose transport is wrapped with the fault
// mix, wiring the duplication path back into Submit. The returned Transport
// exposes the fault counters. Call Start on the engine as usual.
func Engine(w workload.Workload, rcfg runtime.Config, ccfg Config) (*runtime.Engine, *Transport) {
	var ct *Transport
	rcfg.NewTransport = func(fc runtime.Config) runtime.Transport {
		ct = Wrap(runtime.NewDefaultTransport(fc), fc.Workers, ccfg)
		return ct
	}
	e := runtime.NewEngine(w, rcfg)
	ct.BindResubmit(func(ts ...task.Task) error { return e.Submit(ts...) })
	return e, ct
}
