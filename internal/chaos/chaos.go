// Package chaos is the fault-injection harness for the native runtime: a
// runtime.FaultHook that perturbs inter-worker task transfer on the engine's
// one ring transport with seeded, deterministic faults — delivery delay,
// duplication, reordering, transient ring-full rejections, and worker
// stalls — plus an invariant checker that asserts the engine's conservation
// ledger and termination guarantees hold under every mix. The engine under
// fault is the production engine: the hook only refuses sends and filters
// drains, and everything else — batching, stealing, the idle skip — runs as
// it does with no hook.
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
// Determinism: every fault decision comes from seeded per-worker RNGs, one
// for the send side and one for the receive side (the same splitmix/xorshift
// generator the engine uses for destination selection), so a seed reproduces
// the same fault *decision stream* per call sequence. The OS scheduler still
// interleaves workers differently run to run — the harness makes the faults
// reproducible, not the whole execution.
//
// Faults are measured in transport turns (drains of a receive side), not
// wall-clock time: a held batch is released after a fixed number of drains,
// and a stalled endpoint wakes after a fixed number of rounds. The hook
// reports what it holds (Holding), so an idle worker keeps polling its
// receive side while anything is held; every held task is eventually
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
	// tasks by contract. chaos.Engine wires the resubmission.
	Duplicate float64
	// Reorder is the probability that a drained Recv batch is shuffled
	// before delivery (priority-order perturbation).
	Reorder float64
	// RingFull is the probability that a Send is bounced as if the
	// destination were saturated, exercising the engine's spill-to-local
	// flow-control path.
	RingFull float64
	// Stall is the probability, per Recv round, that the endpoint goes deaf
	// for StallFor rounds (a stalled/descheduled worker: whatever reaches it
	// waits out the stall).
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
	if spec = strings.TrimSpace(spec); spec == "" {
		spec = "default"
	}
	cfg := Config{Seed: 1}
	probs := map[string]*float64{"delay": &cfg.Delay, "dup": &cfg.Duplicate, "duplicate": &cfg.Duplicate,
		"reorder": &cfg.Reorder, "ringfull": &cfg.RingFull, "stall": &cfg.Stall}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		if kv == "default" {
			cfg = DefaultMix(cfg.Seed)
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: bad spec element %q (want key=value)", kv)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if p, ok := probs[k]; ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				return Config{}, fmt.Errorf("chaos: bad probability %s=%q (want [0,1])", k, v)
			}
			*p = f
			continue
		}
		n, err := strconv.ParseUint(v, 10, 64)
		switch {
		case k != "seed" && k != "delayturns" && k != "stallfor":
			return Config{}, fmt.Errorf("chaos: unknown spec key %q", k)
		case err != nil:
			return Config{}, fmt.Errorf("chaos: bad %s %q: %v", k, v, err)
		case k == "seed":
			cfg.Seed = n
		case k == "delayturns":
			cfg.DelayTurns = int(n)
		default:
			cfg.StallFor = int(n)
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

// sendHalf is one worker's send-side state. Only that worker's goroutine
// calls Refuse for it, so the RNG needs no lock.
type sendHalf struct {
	rng graph.RNG
	_   [56]byte // off the neighbours' lines
}

// recvHalf is one worker's receive-side state. The engine never overlaps two
// Filter calls for one worker — its owner drains under its lock in a stealing
// fleet, and a thief drains it under the same lock — so the RNG, the round
// clock, the stall and the held batches need no lock of their own. holding
// is atomic because any goroutine may ask Holding.
type recvHalf struct {
	rng        graph.RNG
	round      uint64 // drains so far (the endpoint's clock)
	stallUntil uint64 // deaf until this round
	held       []heldBatch
	holding    atomic.Int64 // tasks inside held
	_          [64]byte
}

// hook is the runtime.FaultHook a mix runs as.
type hook struct {
	cfg   Config
	send  []sendHalf
	recv  []recvHalf
	stats Stats

	// resubmit re-enters duplicated tasks through Engine.Submit so they are
	// ledger-counted submissions, not phantom deliveries. Set before Start;
	// nil disables duplication.
	resubmit func(...task.Task) error
}

func newHook(workers int, cfg Config) *hook {
	cfg = cfg.withDefaults()
	h := &hook{cfg: cfg, send: make([]sendHalf, workers), recv: make([]recvHalf, workers)}
	for i := range h.send {
		// Distinct decision streams per worker and side, derived from the
		// mix seed with the same odd-constant stride the engine uses per
		// worker.
		stride := uint64(i) * 0x9e3779b97f4a7c15
		h.send[i].rng = *graph.NewRNG((cfg.Seed ^ 0xc2b2ae3d27d4eb4f) + stride)
		h.recv[i].rng = *graph.NewRNG((cfg.Seed ^ 0x165667b19e3779f9) + stride)
	}
	return h
}

// Refuse bounces a send as if the destination were saturated, driving the
// sender's spill-to-local path.
func (h *hook) Refuse(src, _ int, _ task.Task) bool {
	if h.cfg.RingFull > 0 && h.send[src].rng.Float64() < h.cfg.RingFull {
		h.stats.Rejected.Add(1)
		return true
	}
	return false
}

// Filter is one drain of worker id's receive side: the round clock ticks, a
// stalled endpoint holds what it drained until the stall ends, a fresh batch
// may be held for DelayTurns rounds, shuffled, or have one task duplicated,
// and held batches whose time has come are delivered.
func (h *hook) Filter(id int, ts []task.Task, from int) []task.Task {
	r := &h.recv[id]
	r.round++
	// A stalled endpoint is deaf; bounded in rounds, so the stall always ends
	// while work remains.
	if r.round < r.stallUntil {
		return r.hold(ts, from, r.stallUntil)
	}
	if h.cfg.Stall > 0 && r.rng.Float64() < h.cfg.Stall {
		r.stallUntil = r.round + uint64(h.cfg.StallFor)
		h.stats.Stalls.Add(1)
		return r.hold(ts, from, r.stallUntil)
	}
	if fresh := ts[from:]; len(fresh) > 0 {
		if h.cfg.Delay > 0 && r.rng.Float64() < h.cfg.Delay {
			// The tasks stay outstanding the whole time, so no worker parks.
			h.stats.DelayedBatches.Add(1)
			h.stats.DelayedTasks.Add(int64(len(fresh)))
			return r.release(r.hold(ts, from, r.round+uint64(h.cfg.DelayTurns)))
		}
		if h.cfg.Reorder > 0 && len(fresh) > 1 && r.rng.Float64() < h.cfg.Reorder {
			for i := len(fresh) - 1; i > 0; i-- {
				j := r.rng.Intn(i + 1)
				fresh[i], fresh[j] = fresh[j], fresh[i]
			}
			h.stats.Reordered.Add(1)
		}
		if h.cfg.Duplicate > 0 && h.resubmit != nil && r.rng.Float64() < h.cfg.Duplicate {
			// Through Submit, not the ring: the duplicate becomes a counted
			// submission, keeping the conservation ledger exact. A duplicate
			// racing Stop may be refused (ErrStopped) — that is fine, it never
			// entered the ledger. A drawn bag marker is not duplicated: it
			// names a payload slot that only one pop may open and release.
			dup := fresh[r.rng.Intn(len(fresh))]
			if !runtime.IsBagMarker(dup) && h.resubmit(dup) == nil {
				h.stats.Duplicates.Add(1)
			}
		}
	}
	return r.release(ts)
}

// Holding reports whether worker id's receive side holds undelivered tasks.
func (h *hook) Holding(id int) bool { return h.recv[id].holding.Load() > 0 }

// hold parks ts[from:] until round release and returns ts[:from].
func (r *recvHalf) hold(ts []task.Task, from int, release uint64) []task.Task {
	if fresh := ts[from:]; len(fresh) > 0 {
		r.held = append(r.held, heldBatch{release: release, tasks: append([]task.Task(nil), fresh...)})
		r.holding.Add(int64(len(fresh)))
	}
	return ts[:from]
}

// release appends the held batches due by this round to ts.
func (r *recvHalf) release(ts []task.Task) []task.Task {
	if len(r.held) == 0 {
		return ts
	}
	kept := r.held[:0]
	for _, b := range r.held {
		if b.release <= r.round {
			ts = append(ts, b.tasks...)
			r.holding.Add(-int64(len(b.tasks)))
		} else {
			kept = append(kept, b)
		}
	}
	clear(r.held[len(kept):])
	r.held = kept
	return ts
}

// Engine builds a native engine whose ring transport injects the fault mix,
// wiring the duplication path back into Submit. The returned Stats count the
// injected faults while the fleet runs. Call Start on the engine as usual.
func Engine(w workload.Workload, rcfg runtime.Config, ccfg Config) (*runtime.Engine, *Stats) {
	h := newHook(runtime.DefaultConfig(rcfg.Workers).Workers, ccfg)
	rcfg.Faults = h
	e := runtime.NewEngine(w, rcfg)
	h.resubmit = func(ts ...task.Task) error { return e.Submit(ts...) }
	return e, &h.stats
}
