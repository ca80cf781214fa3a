package sim

import (
	"fmt"

	"hdcps/internal/stats"
	"hdcps/internal/task"
)

// Message is an inter-core message. Kind and the payload fields are owned by
// the scheduler; the simulator only moves messages through the NoC.
type Message struct {
	From, To int
	Kind     int
	Task     task.Task
	Tasks    []task.Task // bag payload (push transport) or batches
	Aux      int64
}

// Handler is a scheduler running on the simulated machine. The machine
// calls Ready each time a core becomes free and Receive when a message
// arrives; handlers charge costs through the Machine's Charge/Busy API and
// re-arm cores with WakeAt/Idle.
type Handler interface {
	// Start seeds the computation (initial tasks, first Ready events).
	Start(m *Machine)
	// Ready performs one scheduling step on a free core. It returns the
	// number of cycles the step consumed; the machine re-invokes Ready
	// after that time. Returning idle = true parks the core instead (a
	// message or an explicit Wake re-arms it); the returned cost is still
	// charged first.
	Ready(m *Machine, core int) (cost int64, idle bool)
	// Receive handles a message arriving at a core. It returns the cycles
	// of core time the delivery consumes (0 for hardware-offloaded
	// receives). If the core is idle it is woken automatically after that
	// cost.
	Receive(m *Machine, core int, msg Message) int64
}

// Machine is the simulated multicore. Create one with New, then Run a
// Handler to completion.
type Machine struct {
	cfg  Config
	now  int64
	evq  eventQueue
	noc  *noc
	mem  *memory
	done bool

	coreFree  []int64 // cycle at which the core finishes its current step
	coreIdle  []bool
	idleSince []int64
	armed     []bool // a Ready event is queued for the core

	breakdown []stats.Breakdown
	msgsSent  int64

	driftFn    func() []int64 // per-core current priorities, for sampling
	driftEvery int64
	driftTrace []float64
}

// New returns a machine with the given configuration.
func New(cfg Config) *Machine {
	cfg = cfg.normalized()
	m := &Machine{
		cfg:       cfg,
		noc:       newNoC(cfg),
		mem:       newMemory(cfg),
		coreFree:  make([]int64, cfg.Cores),
		coreIdle:  make([]bool, cfg.Cores),
		idleSince: make([]int64, cfg.Cores),
		armed:     make([]bool, cfg.Cores),
		breakdown: make([]stats.Breakdown, cfg.Cores),
	}
	// Every core starts parked: a message arriving at a core that has not
	// yet run (or a Wake from the handler's Start) brings it up, and the
	// time it spends parked is idle time accounted into Comm.
	for i := range m.coreIdle {
		m.coreIdle[i] = true
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the current simulated cycle.
func (m *Machine) Now() int64 { return m.now }

// Cores returns the core count.
func (m *Machine) Cores() int { return m.cfg.Cores }

// Wake re-arms an idle core's Ready loop at the current time (or when the
// core's in-flight step completes, whichever is later). Safe to call for a
// busy core: it is a no-op because the core is already armed.
func (m *Machine) Wake(core int) {
	if m.armed[core] {
		return
	}
	at := m.now
	if m.coreFree[core] > at {
		at = m.coreFree[core]
	}
	m.armed[core] = true
	m.evq.push(at, core, evReady)
}

// Charge adds cycles to one component of a core's completion-time breakdown
// without advancing time (the time advance comes from the cost returned by
// Ready/Receive; Charge only attributes it).
func (m *Machine) Charge(core int, component Component, cycles int64) {
	if cycles <= 0 {
		return
	}
	b := &m.breakdown[core]
	switch component {
	case Enqueue:
		b.Enqueue += cycles
	case Dequeue:
		b.Dequeue += cycles
	case Compute:
		b.Compute += cycles
	case Comm:
		b.Comm += cycles
	}
}

// Component selects a breakdown bucket (§IV-C).
type Component int

// Breakdown components.
const (
	Enqueue Component = iota
	Dequeue
	Compute
	Comm
)

// Send injects a message of the given payload size into the NoC at the
// current time plus senderDelay (the point within the sender's current step
// at which the message leaves; a negative delay panics). Delivery is
// scheduled automatically. It returns the in-network latency (for senders
// that block on delivery, e.g. synchronous software transfers; asynchronous
// hardware senders ignore it).
func (m *Machine) Send(msg Message, bits int, senderDelay int64) int64 {
	if uint(msg.To) >= uint(m.cfg.Cores) {
		panic(fmt.Sprintf("sim: Send to core %d of %d", msg.To, m.cfg.Cores))
	}
	if senderDelay < 0 {
		// A message departing before now could arrive before the event
		// whose handler sent it, which Run holds at the queue's root.
		panic(fmt.Sprintf("sim: Send with negative sender delay %d", senderDelay))
	}
	depart := m.now + senderDelay
	arrive := m.noc.route(msg.From, msg.To, m.cfg.Flits(bits), depart)
	m.msgsSent++
	m.evq.pushMessage(arrive, msg)
	return arrive - depart
}

// MessagesSent returns the total messages injected so far.
func (m *Machine) MessagesSent() int64 { return m.msgsSent }

// MemAccess models a load/store of the given byte count at an address,
// returning its latency in cycles for the core. Schedulers use synthetic
// address spaces (see the Addr helpers in package sched) so the private-
// cache model sees realistic locality.
func (m *Machine) MemAccess(core int, addr uint64, bytes int) int64 {
	return m.mem.access(core, addr, bytes, m.now)
}

// MemAccessAt is MemAccess issued delay cycles into the core's current
// step. Handlers performing many accesses within one macro-step must pass
// their accumulated cost so DRAM contention reflects the real access
// spacing instead of an artificial same-cycle burst.
func (m *Machine) MemAccessAt(core int, addr uint64, bytes int, delay int64) int64 {
	return m.mem.access(core, addr, bytes, m.now+delay)
}

// Hops returns the mesh Manhattan distance between two cores, for cost
// models of coherent cache-to-cache transfers.
func (m *Machine) Hops(a, b int) int64 { return m.noc.hops(a, b) }

// SetDriftProbe installs a sampler: every interval cycles the machine
// records Equation-1 drift over probe()'s per-core current priorities, for
// as long as the run lasts. A non-positive interval installs no probe: a
// sampler that re-arms at the current cycle would never let time advance.
func (m *Machine) SetDriftProbe(probe func() []int64, interval int64) {
	if interval <= 0 {
		probe = nil
	}
	m.driftFn = probe
	m.driftEvery = interval
}

// DriftTrace returns the sampled machine-wide drift values.
func (m *Machine) DriftTrace() []float64 { return m.driftTrace }

// Run drives the handler to completion and returns the completion time and
// per-core breakdowns (idle time is accounted into Comm).
func (m *Machine) Run(h Handler) (int64, []stats.Breakdown) {
	if m.done {
		panic("sim: Machine.Run called twice; create a new Machine per run")
	}
	m.done = true
	h.Start(m)
	if m.driftFn != nil {
		m.evq.push(m.driftEvery, 0, evDrift)
	}
	var lastReal int64 // completion excludes trailing drift-probe events
	for m.evq.len() > 0 {
		// The event stays at the root while a ready or drift handler runs
		// (eventQueue says why that is safe); a re-arm replaces it.
		e := m.evq.top()
		core := int(e.core)
		m.now = e.at
		if e.kind != evDrift {
			lastReal = e.at
		}
		switch e.kind {
		case evReady:
			m.armed[core] = false
			m.endIdle(core)
			cost, idle := h.Ready(m, core)
			if cost < 0 {
				panic(fmt.Sprintf("sim: negative Ready cost %d", cost))
			}
			m.coreFree[core] = m.now + cost
			if idle {
				m.evq.pop()
				m.beginIdle(core)
			} else {
				m.armed[core] = true
				m.evq.replaceTop(m.coreFree[core], core, evReady)
			}
		case evMessage:
			m.evq.pop()
			cost := h.Receive(m, core, m.evq.takeMessage(e.ref))
			if cost > 0 {
				// Receiving consumed core time: push the core's free time
				// out (the ISR preempts or queues behind the current step).
				if m.coreFree[core] < m.now {
					m.coreFree[core] = m.now
				}
				m.coreFree[core] += cost
			}
			if m.coreIdle[core] {
				m.endIdle(core)
				m.Wake(core)
			}
		case evDrift:
			m.driftTrace = append(m.driftTrace, eq1(m.driftFn()))
			if m.evq.len() > 1 { // keep sampling while work remains
				m.evq.replaceTop(m.now+m.driftEvery, 0, evDrift)
			} else {
				m.evq.pop()
			}
		}
	}
	// Account trailing idle time up to completion (the last real event,
	// not a trailing drift-probe tick).
	for c := range m.coreFree {
		if m.coreFree[c] > lastReal {
			lastReal = m.coreFree[c]
		}
	}
	m.now = lastReal
	for c := range m.coreIdle {
		if m.coreIdle[c] {
			m.endIdle(c)
		}
	}
	return lastReal, m.breakdown
}

func (m *Machine) beginIdle(core int) {
	m.coreIdle[core] = true
	m.idleSince[core] = m.coreFree[core]
}

func (m *Machine) endIdle(core int) {
	if !m.coreIdle[core] {
		return
	}
	m.coreIdle[core] = false
	if idle := m.now - m.idleSince[core]; idle > 0 {
		m.breakdown[core].Comm += idle
	}
}

// eq1 computes Equation 1 over per-core priorities, skipping cores that
// report no current task (sentinel value <<63-ish handled by caller passing
// only active priorities).
func eq1(prios []int64) float64 {
	if len(prios) == 0 {
		return 0
	}
	ref := prios[0]
	for _, p := range prios[1:] {
		if p < ref {
			ref = p
		}
	}
	var sum float64
	for _, p := range prios {
		d := p - ref
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	return sum / float64(len(prios))
}

// MemStats returns cumulative (L1 hits, L2 hits, misses) counts, for cost
// model diagnostics.
func (m *Machine) MemStats() (l1, l2, misses int64) {
	return m.mem.hits1, m.mem.hits2, m.mem.misses
}
