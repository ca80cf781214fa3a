package sched

import (
	"hdcps/internal/pq"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
	"hdcps/internal/task"
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
	m := sim.New(cfg)
	n := w.Graph().NumNodes()
	h := &swarmHandler{
		cm:       costModel{cfg: m.Config(), g: w.Graph()},
		w:        w,
		gq:       pq.NewBinaryHeap(1024),
		curPrio:  make([]int64, m.Config().Cores),
		doneAt:   make([]int64, n),
		donePrio: make([]int64, n),
		idle:     make([]bool, m.Config().Cores),
	}
	h.emit = func(c task.Task) { h.children = append(h.children, c) }
	for i := range h.curPrio {
		h.curPrio[i] = idlePrio
	}
	for i := range h.doneAt {
		h.doneAt[i] = -swarmWindow - 1
		h.donePrio[i] = int64(1) << 62
	}
	w.Reset()
	m.SetDriftProbe(h.activePriorities, driftProbeInterval, 0)
	total, bds := m.Run(h)
	r := newRun("swarm", w, m.Config())
	finishRun(&r, total, bds, m)
	r.TasksProcessed = h.processed
	r.Aborts = h.aborts
	return r
}

type swarmHandler struct {
	cm costModel
	w  workload.Workload
	gq *pq.BinaryHeap // idealized hardware global task queue

	curPrio  []int64
	doneAt   []int64 // per node: cycle its task last executed
	donePrio []int64 // per node: priority of that task

	idle      []bool
	processed int64
	aborts    int64
	children  []task.Task
	emit      func(task.Task) // appends to children; built once
}

func (h *swarmHandler) activePriorities() []int64 {
	out := make([]int64, 0, len(h.curPrio))
	for _, p := range h.curPrio {
		if p != idlePrio {
			out = append(out, p)
		}
	}
	return out
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
	h.curPrio[core] = t.Prio
	// Hardware dequeue + task steering across the NoC.
	cost := h.cm.cfg.HWQueueCycles + swarmXferCycles
	m.Charge(core, sim.Dequeue, h.cm.cfg.HWQueueCycles)
	m.Charge(core, sim.Comm, swarmXferCycles)

	h.children = h.children[:0]
	edges := h.w.Process(t, h.emit)
	h.processed++
	comp := h.cm.taskCost(m, core, t, edges)
	m.Charge(core, sim.Compute, comp)
	cost += comp

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

func (h *swarmHandler) Receive(m *sim.Machine, core int, msg sim.Message) int64 { return 0 }
