package sched

import (
	"hdcps/internal/pq"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
	"hdcps/internal/workload"
)

// Swarm models the speculative strictly-ordered architecture of [14] at the
// abstraction level the paper compares against (§IV-B): dedicated hardware
// task queues give every core access to the *globally* highest-priority
// available task at hardware latency, tasks execute speculatively out of
// order across cores, and ordering violations cost rollbacks that are
// charged to compute (as the paper does, §IV-C).
//
// Abstraction notes (see DESIGN.md): the per-core task/commit queues are
// collapsed into one zero-software-cost global queue — exactly the best
// schedule those queues plus speculation converge to — and a mis-speculation
// is detected when a task improves (writes) a node that a higher-timestamp
// task consumed within the speculation window; the squashed task's work is
// re-charged as rollback, and its re-execution is the duplicate task the
// workload's relaxed-tolerance already generates. This keeps the two traits
// the paper's comparison rests on: near-sequential work efficiency and a
// visible rollback cost on conflict-heavy inputs.
type swarmScheduler struct{}

// Swarm returns the speculative ordered-execution scheduler.
func Swarm() Scheduler { return swarmScheduler{} }

func (swarmScheduler) Name() string { return "swarm" }

// swarmWindow is the speculation depth in cycles: writes landing within
// this window of a later-priority read are treated as ordering violations.
const swarmWindow = 4096

// swarmXferCycles approximates the NoC cost of steering a task to the core
// that executes it (a few hops of hardware messaging).
const swarmXferCycles = 8

func (swarmScheduler) Run(w workload.Workload, cfg sim.Config, seed uint64) stats.Run {
	r, h := simulate("swarm", w, cfg, true, func(mcfg sim.Config) *swarmHandler {
		n := w.Graph().NumNodes()
		h := &swarmHandler{
			gq:       pq.NewBinaryHeap(1024),
			doneAt:   make([]int64, n),
			donePrio: make([]int64, n),
			idle:     make([]bool, mcfg.Cores),
		}
		h.init(w, mcfg)
		for i := range h.doneAt {
			h.doneAt[i] = -swarmWindow - 1
			h.donePrio[i] = int64(1) << 62
		}
		return h
	})
	r.Aborts = h.aborts
	return r
}

type swarmHandler struct {
	base
	gq *pq.BinaryHeap // idealized hardware global task queue

	doneAt   []int64 // per node: cycle its task last executed
	donePrio []int64 // per node: priority of that task

	idle   []bool
	aborts int64
}

func (h *swarmHandler) Start(m *sim.Machine) {
	for _, t := range h.w.InitialTasks() {
		h.gq.Push(t)
	}
	for i := 0; i < len(h.idle); i++ {
		m.Wake(i)
	}
}

func (h *swarmHandler) Ready(m *sim.Machine, core int) (int64, bool) {
	t, ok := h.gq.Pop()
	if !ok {
		h.curPrio[core] = idlePrio
		h.idle[core] = true
		return 0, true
	}
	// Hardware dequeue + task steering across the NoC.
	cost := h.cm.cfg.HWQueueCycles + swarmXferCycles
	m.Charge(core, sim.Dequeue, h.cm.cfg.HWQueueCycles)
	m.Charge(core, sim.Comm, swarmXferCycles)
	// Issued at offset 0, not after the dequeue: TestGoldenCycles pins it so.
	cost += h.step(m, core, t, 0)

	now := m.Now()
	for _, c := range h.children {
		// A child task is a write to c.Node. If a higher-timestamp task
		// consumed that node within the speculation window, it executed on
		// stale state: squash it (the child is its re-execution) and charge
		// the wasted work as rollback.
		if now-h.doneAt[c.Node] <= swarmWindow && h.donePrio[c.Node] > t.Prio {
			h.aborts++
			rb := h.cm.cfg.TaskBaseCycles +
				int64(h.cm.g.OutDegree(c.Node))*h.cm.cfg.EdgeCycles
			m.Charge(core, sim.Compute, rb)
			cost += rb
		}
		h.gq.Push(c)
		m.Charge(core, sim.Enqueue, h.cm.cfg.HWQueueCycles)
		cost += h.cm.cfg.HWQueueCycles
	}
	h.doneAt[t.Node] = now
	h.donePrio[t.Node] = t.Prio
	if len(h.children) > 0 {
		h.wakeIdle(m, len(h.children))
	}
	return cost, false
}

// wakeIdle re-arms up to n parked cores to pick up freshly pushed tasks.
func (h *swarmHandler) wakeIdle(m *sim.Machine, n int) {
	for i := 0; i < len(h.idle) && n > 0; i++ {
		if h.idle[i] {
			h.idle[i] = false
			m.Wake(i)
			n--
		}
	}
}
