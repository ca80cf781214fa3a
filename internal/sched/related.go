package sched

import (
	"hdcps/internal/graph"
	"hdcps/internal/pq"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// Related-work baselines from the paper's motivation (§II): the two ends of
// the ordering spectrum and the best-known relaxed concurrent priority
// queue.
//
//   - Steal: *unordered* execution — per-core LIFO deques with work
//     stealing. Maximum parallelism, no priority awareness; the paper's §II
//     argument is that the resulting extra iterations destroy work
//     efficiency.
//   - Ordered: *strictly ordered* execution — one global software priority
//     queue under a lock, the execution model whose synchronization KDG
//     [12] showed outweighs its work-efficiency gains.
//   - MultiQ: the MultiQueue relaxed priority queue [5] — c·P sub-queues;
//     push to a random queue, pop the better head of two random queues.
//
// None of these is in the paper's evaluation figures; the "motivation"
// experiment uses them to quantify §II's ordering-spectrum argument on the
// same simulator.

// stealBackoff is the poll interval of an empty deque looking for victims.
const stealBackoff = 400

// Steal returns the unordered work-stealing baseline.
func Steal() Scheduler { return relatedScheduler{kind: relSteal, label: "steal"} }

// Ordered returns the strict-global-order baseline.
func Ordered() Scheduler { return relatedScheduler{kind: relOrdered, label: "ordered"} }

// MultiQ returns the MultiQueue relaxed scheduler with c = 2 queues per
// core.
func MultiQ() Scheduler { return relatedScheduler{kind: relMultiQ, label: "multiq"} }

type relKind int

const (
	relSteal relKind = iota
	relOrdered
	relMultiQ
)

type relatedScheduler struct {
	kind  relKind
	label string
}

func (s relatedScheduler) Name() string { return s.label }

func (s relatedScheduler) Run(w workload.Workload, cfg sim.Config, seed uint64) stats.Run {
	r, _ := simulate(s.label, w, cfg, true, func(mcfg sim.Config) *relatedHandler {
		return newRelatedHandler(s.kind, w, mcfg, seed)
	})
	return r
}

type relatedHandler struct {
	base
	kind relKind
	mcfg sim.Config

	// Steal: per-core LIFO deques with a lock each (victims contend).
	deques []([]task.Task)
	locks  []lockModel

	// Ordered: one global heap behind one lock.
	global     *pq.BinaryHeap
	globalLock lockModel

	// MultiQ: c*P sub-queues, each behind its own lock.
	queues []*pq.BinaryHeap
	qlocks []lockModel

	rngs        []*graph.RNG
	outstanding int64
}

// multiQFactor is MultiQueue's c: queues per core.
const multiQFactor = 2

func newRelatedHandler(kind relKind, w workload.Workload, mcfg sim.Config, seed uint64) *relatedHandler {
	h := &relatedHandler{kind: kind, mcfg: mcfg, rngs: make([]*graph.RNG, mcfg.Cores)}
	h.init(w, mcfg)
	for i := range h.rngs {
		h.rngs[i] = graph.NewRNG(seed + uint64(i)*0x51ed)
	}
	switch kind {
	case relSteal:
		h.deques = make([][]task.Task, mcfg.Cores)
		h.locks = make([]lockModel, mcfg.Cores)
	case relOrdered:
		h.global = pq.NewBinaryHeap(1024)
	case relMultiQ:
		n := multiQFactor * mcfg.Cores
		h.queues = make([]*pq.BinaryHeap, n)
		h.qlocks = make([]lockModel, n)
		for i := range h.queues {
			h.queues[i] = pq.NewBinaryHeap(64)
		}
	}
	return h
}

func (h *relatedHandler) Start(m *sim.Machine) {
	initial := h.w.InitialTasks()
	h.outstanding = int64(len(initial))
	for i, t := range initial {
		switch h.kind {
		case relSteal:
			h.deques[i%m.Cores()] = append(h.deques[i%m.Cores()], t)
		case relOrdered:
			h.global.Push(t)
		case relMultiQ:
			h.queues[i%len(h.queues)].Push(t)
		}
	}
	for i := 0; i < m.Cores(); i++ {
		m.Wake(i)
	}
}

func (h *relatedHandler) Ready(m *sim.Machine, core int) (int64, bool) {
	t, acquireCost, ok := h.acquire(m, core)
	if !ok {
		h.curPrio[core] = idlePrio
		if h.outstanding == 0 {
			return acquireCost, true // real termination
		}
		// Work exists somewhere (another core holds it or it is in a
		// queue we missed): poll again after a backoff, charging it as
		// communication/idle time.
		m.Charge(core, sim.Comm, stealBackoff)
		return acquireCost + stealBackoff, false
	}
	cost := acquireCost + h.step(m, core, t, acquireCost)
	h.outstanding += int64(len(h.children)) - 1
	cost += h.release(m, core, cost)
	return cost, false
}

// acquire obtains the next task according to the discipline.
func (h *relatedHandler) acquire(m *sim.Machine, core int) (task.Task, int64, bool) {
	switch h.kind {
	case relSteal:
		d := h.deques[core]
		if n := len(d); n > 0 {
			t := d[n-1] // LIFO
			h.deques[core] = d[:n-1]
			m.Charge(core, sim.Dequeue, h.mcfg.AtomicRMW)
			return t, h.mcfg.AtomicRMW, true
		}
		// Steal half from a random victim.
		var cost int64
		for attempt := 0; attempt < 4; attempt++ {
			v := int(h.rngs[core].Uint32n(uint32(len(h.deques))))
			if v == core {
				continue
			}
			wait := h.locks[v].acquire(m.Now()+cost, h.mcfg.SWLockCost)
			cost += wait + h.mcfg.SWLockCost
			m.Charge(core, sim.Comm, wait+h.mcfg.SWLockCost)
			vd := h.deques[v]
			if len(vd) == 0 {
				continue
			}
			half := (len(vd) + 1) / 2
			stolen := append([]task.Task(nil), vd[:half]...) // steal the old end
			h.deques[v] = vd[half:]
			// Transferring the stolen tasks' cache lines.
			xfer := m.MemAccessAt(core, bagPayloadAddr(v, uint64(m.Now())), 16*len(stolen), cost)
			m.Charge(core, sim.Comm, xfer)
			cost += xfer
			t := stolen[len(stolen)-1]
			h.deques[core] = append(h.deques[core], stolen[:len(stolen)-1]...)
			return t, cost, true
		}
		return task.Task{}, cost, false

	case relOrdered:
		op := h.cm.swPQCost(h.global.Len() + 1)
		hold := h.mcfg.SWLockCost + op
		wait := h.globalLock.acquire(m.Now(), hold)
		m.Charge(core, sim.Comm, wait)
		m.Charge(core, sim.Dequeue, hold)
		t, ok := h.global.Pop()
		return t, wait + hold, ok

	default: // relMultiQ: pop the better head of two random queues.
		var cost int64
		for attempt := 0; attempt < 4; attempt++ {
			a := int(h.rngs[core].Uint32n(uint32(len(h.queues))))
			b := int(h.rngs[core].Uint32n(uint32(len(h.queues))))
			qa, qb := h.queues[a], h.queues[b]
			ta, oka := qa.Peek()
			tb, okb := qb.Peek()
			pick := a
			switch {
			case !oka && !okb:
				cost += h.mcfg.AtomicRMW
				m.Charge(core, sim.Dequeue, h.mcfg.AtomicRMW)
				continue
			case oka && okb && tb.Less(ta):
				pick = b
			case !oka:
				pick = b
			}
			op := h.cm.swPQCost(h.queues[pick].Len() + 1)
			hold := h.mcfg.SWLockCost/2 + op
			wait := h.qlocks[pick].acquire(m.Now()+cost, hold)
			m.Charge(core, sim.Comm, wait)
			m.Charge(core, sim.Dequeue, hold)
			cost += wait + hold
			t, ok := h.queues[pick].Pop()
			if ok {
				return t, cost, true
			}
		}
		return task.Task{}, cost, false
	}
}

// release distributes the children produced by the current task.
func (h *relatedHandler) release(m *sim.Machine, core int, at int64) int64 {
	var cost int64
	for _, c := range h.children {
		switch h.kind {
		case relSteal:
			// Local LIFO push: cheap, no communication — the whole point
			// of unordered execution.
			h.deques[core] = append(h.deques[core], c)
			m.Charge(core, sim.Enqueue, 4)
			cost += 4
		case relOrdered:
			op := h.cm.swPQCost(h.global.Len() + 1)
			hold := h.mcfg.SWLockCost + op
			wait := h.globalLock.acquire(m.Now()+at+cost, hold)
			m.Charge(core, sim.Comm, wait)
			m.Charge(core, sim.Enqueue, hold)
			cost += wait + hold
			h.global.Push(c)
			h.wakeAll(m)
		default: // relMultiQ: push to a random queue.
			q := int(h.rngs[core].Uint32n(uint32(len(h.queues))))
			op := h.cm.swPQCost(h.queues[q].Len() + 1)
			hold := h.mcfg.SWLockCost/2 + op
			wait := h.qlocks[q].acquire(m.Now()+at+cost, hold)
			m.Charge(core, sim.Comm, wait)
			m.Charge(core, sim.Enqueue, hold)
			cost += wait + hold
			h.queues[q].Push(c)
			h.wakeAll(m)
		}
	}
	if h.kind == relSteal && len(h.children) > 0 {
		h.wakeAll(m)
	}
	return cost
}

// wakeAll re-arms parked cores; cheap because Wake is a no-op for armed
// cores. Pollers re-park if they find nothing.
func (h *relatedHandler) wakeAll(m *sim.Machine) {
	for i := 0; i < m.Cores(); i++ {
		m.Wake(i)
	}
}
