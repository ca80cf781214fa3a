package sched

import (
	"hdcps/internal/pq"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
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
	r, h := simulate("seq", w, cfg, false, func(mcfg sim.Config) *seqHandler {
		h := &seqHandler{q: pq.NewBinaryHeap(1024)}
		h.init(w, mcfg)
		return h
	})
	r.SeqTasks = h.processed
	return r
}

type seqHandler struct {
	base
	q *pq.BinaryHeap
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
	cost := h.cm.swPQCost(h.q.Len() + 1)
	m.Charge(core, sim.Dequeue, cost)
	// Issued at offset 0, not after the dequeue: TestGoldenCycles pins it so.
	cost += h.step(m, core, t, 0)

	for _, c := range h.children {
		h.q.Push(c)
		enq := h.cm.swPQCost(h.q.Len())
		m.Charge(core, sim.Enqueue, enq)
		cost += enq
	}
	return cost, false
}
