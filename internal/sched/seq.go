package sched

import (
	"hdcps/internal/pq"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// Sequential is the single-core, strict-priority-order baseline every
// speedup in the paper is measured against (its "optimized sequential
// implementation"). It uses one software priority queue and processes tasks
// in exact priority order, so it also defines the work-efficiency
// denominator (SeqTasks).
type Sequential struct{}

// Name implements Scheduler.
func (Sequential) Name() string { return "seq" }

// Run implements Scheduler.
func (Sequential) Run(w workload.Workload, cfg sim.Config, seed uint64) stats.Run {
	cfg.Cores = 1
	m := sim.New(cfg)
	h := &seqHandler{
		cm: costModel{cfg: m.Config(), g: w.Graph()},
		w:  w,
		q:  pq.NewBinaryHeap(1024),
	}
	h.emit = func(c task.Task) { h.children = append(h.children, c) }
	w.Reset()
	total, bds := m.Run(h)
	r := newRun("seq", w, m.Config())
	finishRun(&r, total, bds, m)
	r.TasksProcessed = h.processed
	r.SeqTasks = h.processed
	return r
}

type seqHandler struct {
	cm        costModel
	w         workload.Workload
	q         *pq.BinaryHeap
	processed int64
	children  []task.Task
	emit      func(task.Task) // appends to children; built once
}

func (h *seqHandler) Start(m *sim.Machine) {
	for _, t := range h.w.InitialTasks() {
		h.q.Push(t)
	}
	m.Wake(0)
}

func (h *seqHandler) Ready(m *sim.Machine, core int) (int64, bool) {
	t, ok := h.q.Pop()
	if !ok {
		return 0, true
	}
	var cost int64
	deq := h.cm.swPQCost(h.q.Len() + 1)
	m.Charge(core, sim.Dequeue, deq)
	cost += deq

	h.children = h.children[:0]
	edges := h.w.Process(t, h.emit)
	h.processed++
	comp := h.cm.taskCost(m, core, t, edges)
	m.Charge(core, sim.Compute, comp)
	cost += comp

	for _, c := range h.children {
		h.q.Push(c)
		enq := h.cm.swPQCost(h.q.Len())
		m.Charge(core, sim.Enqueue, enq)
		cost += enq
	}
	return cost, false
}

func (h *seqHandler) Receive(m *sim.Machine, core int, msg sim.Message) int64 { return 0 }
