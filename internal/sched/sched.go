// Package sched implements every concurrent priority scheduler the paper
// evaluates, all running on the deterministic simulator in package sim:
//
//   - Sequential: the single-core baseline speedups are measured against.
//   - RELD: push-style per-core locked priority queues, random distribution.
//   - OBIM: pull-style global bag map with fixed priority quantization.
//   - PMOD: OBIM with runtime bag merge/split.
//   - Software Minnow: OBIM with dedicated prefetch (minnow) cores.
//   - Hardware Minnow: per-worker offload engines for worklist operations.
//   - HD-CPS: the paper's contribution, §III, in all its configurations
//     (sRQ, +TDF, +AC, +SC, hRQ, hRQ+hPQ) — RELD is its degenerate preset.
//   - Swarm: idealized speculative ordered execution with conflict aborts.
//
// Each scheduler charges the simulator for every operation it models; the
// cost constants live in sim.Config so software mode (Xeon-like) and
// hardware mode (Table I) share one fabric.
//
// Every handler embeds base, whose step is the package's one task step
// (current priority, Process, count, compute charge); every Run goes through
// simulate, the one run harness (machine, drift probe, common stats.Run
// fields); and ByName and Names both read registry, the one list of names.
// A new scheduler is a base embedder, a Run over simulate and a registry
// entry.
package sched

import (
	"fmt"

	"hdcps/internal/graph"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// Scheduler runs a workload on a simulated machine and reports the
// paper's metrics.
type Scheduler interface {
	// Name returns the label used in figures.
	Name() string
	// Run executes w to completion on a fresh machine with cfg and returns
	// the run's metrics. It resets w first. Implementations must be
	// deterministic for a fixed (w, cfg, seed).
	Run(w workload.Workload, cfg sim.Config, seed uint64) stats.Run
}

// idlePrio is the per-core "no current task" sentinel excluded from drift
// sampling.
const idlePrio = int64(1) << 62

// driftProbeInterval is the machine-cycle spacing of the figure-level drift
// sampler (the fixed sampling interval of Fig. 3's drift metric).
const driftProbeInterval = 50_000

// costModel bundles the cycle accounting shared by all schedulers.
type costModel struct {
	cfg sim.Config
	g   *graph.CSR
}

// Synthetic address space for the cache model: workload node state, the CSR
// adjacency arrays, and per-core scheduler structures live in disjoint
// regions so the private caches see realistic reuse patterns.
const (
	addrNodeBase  = uint64(0x1000_0000)
	addrEdgeBase  = uint64(0x4000_0000)
	addrSchedBase = uint64(0x8000_0000)
	schedStride   = uint64(1) << 24 // per-core scheduler heap region
)

func nodeAddr(u graph.NodeID) uint64 { return addrNodeBase + uint64(u)*8 }
func edgeAddr(off uint32) uint64     { return addrEdgeBase + uint64(off)*8 }

// taskCostAt charges the memory system for processing task t on core, `at`
// cycles into the core's current step (reading the node's state, streaming
// its adjacency list, touching each neighbor's state), and returns the total
// compute cycles: fixed base + per-edge work + memory latency.
func (c *costModel) taskCostAt(m *sim.Machine, core int, t task.Task, edges int, at int64) int64 {
	u := t.Node
	cost := c.cfg.TaskBaseCycles + int64(edges)*c.cfg.EdgeCycles
	cost += m.MemAccessAt(core, nodeAddr(u), 8, at+cost)
	if edges > 0 {
		lo := c.g.Off[u]
		cost += m.MemAccessAt(core, edgeAddr(lo), 8*edges, at+cost) // sequential stream
		dsts, _ := c.g.Neighbors(u)
		for i := 0; i < edges && i < len(dsts); i++ {
			cost += m.MemAccessAt(core, nodeAddr(dsts[i]), 8, at+cost)
		}
	}
	return cost
}

// swPQCost returns the software priority-queue operation cost for a queue
// of length n: base + per-log2(n) rebalancing, the O(log n) the paper
// identifies as a dominant overhead.
func (c *costModel) swPQCost(n int) int64 {
	cost := c.cfg.SWPQBase
	for n > 1 {
		cost += c.cfg.SWPQPerLog
		n >>= 1
	}
	return cost
}

// lockModel serializes a shared software lock: acquire at time t returns
// the wait (contention) cycles; the lock is then held for hold cycles.
type lockModel struct{ free int64 }

func (l *lockModel) acquire(t, hold int64) (wait int64) {
	if l.free > t {
		wait = l.free - t
	}
	l.free = t + wait + hold
	return wait
}

// base is the plumbing every handler embeds: the workload and its cost
// model, each core's current task priority (what the drift probe samples),
// the processed-task count and the per-task child scratch.
type base struct {
	w         workload.Workload
	cm        costModel
	curPrio   []int64 // idlePrio while the core runs no task
	processed int64

	// emit appends a child to children: one closure for the handler's
	// lifetime, as the native worker does it.
	children []task.Task
	emit     func(task.Task)
}

// init readies b in place (emit closes over b, so b must not move after).
func (b *base) init(w workload.Workload, mcfg sim.Config) {
	b.w = w
	b.cm = costModel{cfg: mcfg, g: w.Graph()}
	b.curPrio = make([]int64, mcfg.Cores)
	for i := range b.curPrio {
		b.curPrio[i] = idlePrio
	}
	b.emit = func(ch task.Task) { b.children = append(b.children, ch) }
}

// step runs task t on core, `at` cycles into the core's current step: t's
// priority becomes the core's, its children land in b.children, and its
// compute cycles are charged and returned.
func (b *base) step(m *sim.Machine, core int, t task.Task, at int64) int64 {
	b.curPrio[core] = t.Prio
	b.children = b.children[:0]
	edges := b.w.Process(t, b.emit)
	b.processed++
	cost := b.cm.taskCostAt(m, core, t, edges, at)
	m.Charge(core, sim.Compute, cost)
	return cost
}

// activePriorities reports each busy core's current task priority for the
// machine-level drift probe.
func (b *base) activePriorities() []int64 {
	out := make([]int64, 0, len(b.curPrio))
	for _, p := range b.curPrio {
		if p != idlePrio {
			out = append(out, p)
		}
	}
	return out
}

// Receive ignores messages; handlers that send them override it.
func (*base) Receive(*sim.Machine, int, sim.Message) int64 { return 0 }

func (b *base) shared() *base { return b }

// handler is a sim.Handler built on base.
type handler interface {
	sim.Handler
	shared() *base
}

// simulate is the one run harness: a fresh machine, the handler build makes
// for its normalised config, the workload reset serial (one goroutine runs
// every simulated core, so the kernels need no atomics), the drift probe
// when probe is set, and the stats.Run fields every scheduler reports. The
// caller adds its own fields from the returned handler.
func simulate[H handler](label string, w workload.Workload, cfg sim.Config, probe bool,
	build func(sim.Config) H) (stats.Run, H) {
	m := sim.New(cfg)
	h := build(m.Config())
	b := h.shared()
	workload.ResetSerial(w)
	if probe {
		m.SetDriftProbe(b.activePriorities, driftProbeInterval)
	}
	total, bds := m.Run(h)
	r := stats.Run{
		Scheduler:      label,
		Workload:       w.Name(),
		Input:          w.Graph().Name,
		Cores:          m.Cores(),
		CompletionTime: total,
		TasksProcessed: b.processed,
		MessagesSent:   m.MessagesSent(),
		DriftTrace:     m.DriftTrace(),
	}
	for _, bd := range bds {
		r.Breakdown.Add(bd)
	}
	r.L1Hits, r.L2Hits, r.MemMisses = m.MemStats()
	return r, h
}

// registry is every named scheduler, in the order Names lists them. A
// Scheduler is an immutable value, so ByName hands out the entry itself.
var registry = []Scheduler{
	Sequential{}, RELD(), VariantSRQ(), VariantSRQTDF(), VariantSRQTDFAC(), HDCPSSW(),
	VariantHRQ(), HDCPSHW(), OBIM(), PMOD(), SWMinnow(4), HWMinnow(), Swarm(),
	Steal(), Ordered(), MultiQ(),
}

// ByName returns the scheduler registered under name. Available names:
// seq, reld, obim, pmod, swminnow, hwminnow, hdcps-sw, hdcps-hw, swarm, the
// HD-CPS ablation variants (srq, srq+tdf, srq+tdf+ac, hrq), and the §II
// motivation baselines (steal, ordered, multiq).
func ByName(name string) (Scheduler, error) {
	for _, s := range registry {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("sched: unknown scheduler %q", name)
}

// Names lists the registered scheduler names.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name()
	}
	return out
}
