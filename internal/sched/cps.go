package sched

import (
	"hdcps/internal/bag"
	"hdcps/internal/drift"
	"hdcps/internal/graph"
	"hdcps/internal/pq"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// CPSConfig parameterizes the distributed push-style CPS family. RELD and
// every HD-CPS configuration in the paper are points in this space (§IV-A):
//
//	RELD         = {UseRQ: false, Drift: TDF 100..100, Bags: Never}
//	sRQ          = {UseRQ: true,  Drift: TDF 100..100, Bags: Never}
//	sRQ+TDF      = {UseRQ: true,  Bags: Never}
//	sRQ+TDF+AC   = {UseRQ: true,  Bags: Always}
//	HD-CPS:SW    = {UseRQ: true,  Bags: Selective}
//	hRQ / +hPQ   = HD-CPS:SW on a machine with HRQSize/HPQSize > 0
//
// The TDF is adaptive (§III-C) over Drift's [MinTDF, MaxTDF]; a fixed TDF t
// is the one-point range Drift{MinTDF: t, MaxTDF: t}, which has nothing to
// steer, so its cores send no drift reports.
type CPSConfig struct {
	// Label is the scheduler name shown in figures.
	Label string
	// UseRQ enables the per-core receive queue decoupling of §III-A;
	// without it remote enqueues lock the destination's priority queue
	// (RELD's behaviour).
	UseRQ bool
	// Bags selects the bag-creation policy of §III-B.
	Bags bag.Policy
	// Drift configures the TDF controller (zero fields take the paper's
	// defaults). RELD's continuous random distribution is the fixed TDF 100.
	Drift drift.Config
	// TDFSchedule, when non-nil, overrides the controller with a fixed
	// per-interval schedule — the dynamic-oracle hook (§III-C).
	TDFSchedule func(interval int) int
}

// cpsScheduler is the Scheduler for a CPSConfig.
type cpsScheduler struct{ cfg CPSConfig }

// NewCPS returns a scheduler for an arbitrary point in the CPS design
// space. The named constructors below cover the paper's configurations.
func NewCPS(cfg CPSConfig) Scheduler { return cpsScheduler{cfg} }

// fixedTDF is the one-point Drift range that pins the TDF at t.
func fixedTDF(t int) drift.Config { return drift.Config{MinTDF: t, MaxTDF: t} }

// RELD returns the paper's RELD baseline.
func RELD() Scheduler {
	return NewCPS(CPSConfig{Label: "reld", Drift: fixedTDF(100), Bags: bag.Policy{Mode: bag.Never}})
}

// VariantSRQ returns the sRQ configuration (receive-queue decoupling only).
func VariantSRQ() Scheduler {
	return NewCPS(CPSConfig{Label: "srq", UseRQ: true, Drift: fixedTDF(100), Bags: bag.Policy{Mode: bag.Never}})
}

// VariantSRQTDF returns sRQ + the adaptive TDF heuristic.
func VariantSRQTDF() Scheduler {
	return NewCPS(CPSConfig{Label: "srq+tdf", UseRQ: true, Bags: bag.Policy{Mode: bag.Never}})
}

// VariantSRQTDFAC returns sRQ + TDF + always-create bags.
func VariantSRQTDFAC() Scheduler {
	p := bag.DefaultPolicy()
	p.Mode = bag.Always
	return NewCPS(CPSConfig{Label: "srq+tdf+ac", UseRQ: true, Bags: p})
}

// HDCPSSW returns the full software design (sRQ + TDF + selective bags),
// the configuration the paper calls HD-CPS:SW.
func HDCPSSW() Scheduler {
	return NewCPS(CPSConfig{Label: "hdcps-sw", UseRQ: true, Bags: bag.DefaultPolicy()})
}

// VariantHRQ is HD-CPS:SW run on a machine with only the hardware receive
// queue enabled; HDCPSHW adds the hardware priority queue. Both adjust the
// machine config rather than the scheduler.
func VariantHRQ() Scheduler {
	return hwVariant{inner: HDCPSSW().(cpsScheduler), label: "hrq", hpq: false}
}

// HDCPSHW returns the full hardware design (hRQ + hPQ on Table I sizes).
func HDCPSHW() Scheduler {
	return hwVariant{inner: HDCPSSW().(cpsScheduler), label: "hdcps-hw", hpq: true}
}

type hwVariant struct {
	inner cpsScheduler
	label string
	hpq   bool
}

func (v hwVariant) Name() string { return v.label }

func (v hwVariant) Run(w workload.Workload, cfg sim.Config, seed uint64) stats.Run {
	if cfg.HRQSize == 0 {
		cfg.HRQSize = 32
	}
	if v.hpq {
		if cfg.HPQSize == 0 {
			cfg.HPQSize = 48
		}
	} else {
		cfg.HPQSize = 0
	}
	inner := v.inner
	inner.cfg.Label = v.label
	return inner.Run(w, cfg, seed)
}

func (s cpsScheduler) Name() string { return s.cfg.Label }

func (s cpsScheduler) Run(w workload.Workload, cfg sim.Config, seed uint64) stats.Run {
	r, h := simulate(s.cfg.Label, w, cfg, true, func(mcfg sim.Config) *cpsHandler {
		return newCPSHandler(s.cfg, w, mcfg, seed)
	})
	r.BagsCreated, r.BaggedTasks, r.TDFTrace = h.bagsCreated, h.baggedTasks, h.tdfTrace
	return r
}

// Message kinds of the CPS family.
const (
	cpsMsgTask = iota
	cpsMsgBag
	cpsMsgReport
)

// inEntry is one receive-queue element: a single task or bag metadata.
type inEntry struct {
	t        task.Task
	payloadN int  // extra queue entries consumed by a pushed bag's payload
	hw       bool // arrived into the hardware receive queue
}

// bagTaskNode marks a priority-queue item as bag metadata.
const bagTaskNode = ^graph.NodeID(0)

// bagPayloadAddr synthesizes the memory address of a bag's payload inside
// its owner core's scheduler region.
func bagPayloadAddr(owner int, id uint64) uint64 {
	return addrSchedBase + uint64(owner)*schedStride + (id*128)%schedStride
}

type cpsCore struct {
	// Exactly one of swq/tl backs the core's priority queue: swq when the
	// machine has no hPQ, tl (the two-level hot-buffer + cold-store shape,
	// hot capacity = HPQSize) when it does. The two-level hot buffer
	// reproduces the hPQ's residency semantics (pq's Bounded test oracle),
	// so tl replaces the old hpq+swq composition with identical task
	// ordering; the cost model still charges the hPQ access for hot traffic
	// and the software PQ for cold traffic.
	swq    *pq.BinaryHeap
	tl     *pq.HPQ
	in     []inEntry // software receive queue (unbounded backing store)
	hrqLen int       // entries currently resident in the hardware RQ

	sinceRep int64
	lock     lockModel // PQ lock (RELD-style remote enqueues)
	rng      *graph.RNG
}

// pushSW inserts into the software side of the core's queue: the cold store
// when two-level (bypassing the hot buffer, like the old spill heap), the
// plain heap otherwise.
func (c *cpsCore) pushSW(t task.Task) {
	if c.tl != nil {
		c.tl.PushCold(t)
		return
	}
	c.swq.Push(t)
}

// swLen is the software-resident queue depth (the size the software PQ cost
// model scales with).
func (c *cpsCore) swLen() int {
	if c.tl != nil {
		return c.tl.ColdLen()
	}
	return c.swq.Len()
}

// qLen is the total queued work on this core.
func (c *cpsCore) qLen() int {
	if c.tl != nil {
		return c.tl.Len()
	}
	return c.swq.Len()
}

type bagRecord struct {
	tasks []task.Task
	owner int
}

type cpsHandler struct {
	base
	cfg    CPSConfig
	mcfg   sim.Config
	cores  []cpsCore
	master int

	// Bag payload store for pull transport (payload stays at the sender;
	// the consumer fetches it on dequeue with coherent loads).
	bags      map[uint64]bagRecord
	bagIDs    bag.Counter
	transport bag.Transport

	// TDF state (owned by the master core). steers is false for a one-point
	// Drift range: a fixed TDF, with no reports to send.
	ctrl     *drift.Controller
	steers   bool
	tdf      int
	interval int
	reports  []int64
	tdfTrace []int

	bagsCreated   int64
	baggedTasks   int64
	flowRedirects int64 // capacity-counter re-picks (§III-D flow control)

	part bag.Partitioner // groups a task's children without allocating
}

func newCPSHandler(cfg CPSConfig, w workload.Workload, mcfg sim.Config, seed uint64) *cpsHandler {
	h := &cpsHandler{
		cfg:       cfg,
		mcfg:      mcfg,
		cores:     make([]cpsCore, mcfg.Cores),
		bags:      make(map[uint64]bagRecord),
		transport: cfg.Bags.Transport,
		ctrl:      drift.NewController(cfg.Drift),
	}
	h.init(w, mcfg)
	dc := h.ctrl.Config()
	h.steers = dc.MinTDF != dc.MaxTDF
	h.tdf = h.ctrl.TDF()
	if cfg.TDFSchedule != nil {
		h.tdf = cfg.TDFSchedule(0)
	}
	for i := range h.cores {
		h.cores[i] = cpsCore{rng: graph.NewRNG(seed + uint64(i)*0x9e37)}
		if mcfg.HPQSize > 0 {
			// Binary-heap buckets keep the cold store's pop order identical
			// to the old spill heap's.
			h.cores[i].tl = pq.NewHPQ(mcfg.HPQSize)
		} else {
			h.cores[i].swq = pq.NewBinaryHeap(64)
		}
	}
	return h
}

func (h *cpsHandler) Start(m *sim.Machine) {
	// Seed initial tasks across cores in contiguous slices, as a parallel
	// loop kick-off would, applying the same bag policy the scheduler uses
	// for children (Alg. 1): large seeded workloads (coloring, PageRank)
	// otherwise pay a priority-queue operation per initial task.
	initial := h.w.InitialTasks()
	var slice []task.Task
	for core := 0; core < len(h.cores); core++ {
		// Strided assignment balances degree-correlated work the way a
		// parallel loop's round-robin chunking does.
		slice = slice[:0]
		for i := core; i < len(initial); i += len(h.cores) {
			slice = append(slice, initial[i])
		}
		if len(slice) == 0 {
			continue
		}
		c := &h.cores[core]
		bags, singles := h.part.Partition(slice, h.cfg.Bags, h.bagIDs.Next)
		for _, b := range bags {
			// b.Tasks is the partitioner's scratch; the record outlives it.
			h.bags[b.ID] = bagRecord{tasks: append([]task.Task(nil), b.Tasks...), owner: core}
			c.pushSW(task.Task{Node: bagTaskNode, Prio: b.Prio, Data: b.ID})
		}
		for _, s := range singles {
			c.pushSW(s)
		}
	}
	for i := range h.cores {
		if h.cores[i].qLen() > 0 {
			m.Wake(i)
		}
	}
}

// sampleInterval returns the drift-report spacing in processed tasks.
func (h *cpsHandler) sampleInterval() int64 {
	return int64(h.ctrl.Config().SampleInterval)
}

func (h *cpsHandler) Ready(m *sim.Machine, core int) (int64, bool) {
	c := &h.cores[core]
	var cost int64

	// 1. Drain the receive queue into the priority queue (the ISR + task
	// state machine of §III-D; in software mode the core does it inline).
	cost += h.drain(m, core)

	// 2. Dequeue the highest-priority task or bag.
	t, fromHW, ok := h.dequeue(c)
	if !ok {
		h.curPrio[core] = idlePrio
		return cost, true
	}
	cost += h.chargeDequeue(m, core, c, fromHW)
	h.curPrio[core] = t.Prio

	// 3. Process: a bag unpacks into its payload tasks; a single task runs
	// alone. Children are partitioned and distributed per task (Alg. 1).
	if t.Node == bagTaskNode {
		rec := h.bags[t.Data]
		delete(h.bags, t.Data)
		if h.transport == bag.Pull {
			// Coherent loads fetch the payload on demand from the owner's
			// cache, where it was just written: a cache-to-cache transfer
			// per line (round trip across the mesh), not a DRAM access —
			// this on-demand locality is why the paper prefers pull.
			lines := int64(16*len(rec.tasks)+63) / 64
			perLine := 2*m.Hops(core, rec.owner)*h.mcfg.HopCycles + h.mcfg.L2Hit
			fetch := lines * perLine
			m.Charge(core, sim.Dequeue, fetch)
			cost += fetch
		}
		for _, tk := range rec.tasks {
			cost += h.processOne(m, core, tk, cost)
		}
	} else {
		cost += h.processOne(m, core, t, cost)
	}
	return cost, false
}

// dequeue pops the best task across the hardware and software queues.
func (h *cpsHandler) dequeue(c *cpsCore) (task.Task, bool, bool) {
	if c.tl != nil {
		// PopEx compares the hot front against the cold minimum without
		// refilling, preserving each pop's hardware/software provenance for
		// chargeDequeue — exactly the old hpq-vs-swq peek race.
		return c.tl.PopEx()
	}
	t, ok := c.swq.Pop()
	return t, false, ok
}

func (h *cpsHandler) chargeDequeue(m *sim.Machine, core int, c *cpsCore, fromHW bool) int64 {
	var cost int64
	if c.tl != nil {
		// Parallel constant-latency check of both queues; the software
		// rebalance happens in the background (§III-D), so a software-side
		// pop costs only a fraction of the full software operation.
		cost = h.mcfg.HWQueueCycles
		if !fromHW {
			cost += h.cm.swPQCost(c.swLen()+1) / 4
		}
	} else {
		cost = h.cm.swPQCost(c.swLen() + 1)
		if !h.cfg.UseRQ {
			// RELD: the dequeue must take the core's own PQ lock, which
			// remote enqueuers contend on.
			cost += h.mcfg.SWLockCost + c.lock.acquire(m.Now(), h.mcfg.SWLockCost+cost)
		}
	}
	m.Charge(core, sim.Dequeue, cost)
	return cost
}

// drain moves received entries into the core's priority queue.
func (h *cpsHandler) drain(m *sim.Machine, core int) int64 {
	c := &h.cores[core]
	if len(c.in) == 0 {
		return 0
	}
	var cost int64
	for _, e := range c.in {
		switch {
		case e.hw:
			// Read the metadata entry plus any pushed payload entries.
			cost += h.mcfg.HWQueueCycles * int64(1+e.payloadN)
			c.hrqLen -= 1 + e.payloadN
			cost += h.insertLocal(c, e.t)
		case h.cfg.UseRQ:
			// Local ring pops: one cheap atomic per entry.
			cost += h.mcfg.SWRQCost / 3 * int64(1+e.payloadN)
			cost += h.insertLocal(c, e.t)
		default:
			// RELD: the sender already paid the locked remote insert; the
			// task simply appears in this core's priority queue.
			c.pushSW(e.t)
		}
	}
	c.in = c.in[:0]
	m.Charge(core, sim.Enqueue, cost)
	return cost
}

// insertLocal pushes a task (or bag metadata) into the core's priority
// queue, preferring the hardware queue when present, and returns the cost.
func (h *cpsHandler) insertLocal(c *cpsCore, t task.Task) int64 {
	if c.tl != nil {
		// PushEx applies the hPQ's residency rule (insert into the hot
		// buffer, demoting its worst to the cold store when full); the
		// rebalance is asynchronous (§III-D), so only the hPQ access is
		// charged.
		c.tl.PushEx(t)
		return h.mcfg.HWQueueCycles
	}
	c.swq.Push(t)
	return h.cm.swPQCost(c.swq.Len())
}

// processOne executes a single workload task on core, partitions its
// children into bags and singles (Alg. 1), distributes them according to
// the current TDF, and handles drift reporting (Alg. 3). It returns the
// cycles consumed.
func (h *cpsHandler) processOne(m *sim.Machine, core int, t task.Task, at int64) int64 {
	c := &h.cores[core]
	cost := h.step(m, core, t, at)

	// Partition children into bags and singles (Alg. 1 lines 4-10).
	bags, singles := h.part.Partition(h.children, h.cfg.Bags, h.bagIDs.Next)
	for _, b := range bags {
		h.bagsCreated++
		h.baggedTasks += int64(len(b.Tasks))
		create := h.mcfg.BagBaseCycles + int64(len(b.Tasks))*h.mcfg.BagPerTaskCycles
		// Writing the payload warms the creator's cache, so a local (or
		// pushed) consumer hits while a remote pull pays the transfer.
		create += m.MemAccess(core, bagPayloadAddr(core, uint64(b.ID)), 16*len(b.Tasks))
		m.Charge(core, sim.Enqueue, create)
		cost += create
		cost += h.dispatchBag(m, core, b)
	}
	for _, s := range singles {
		cost += h.dispatchTask(m, core, s)
	}

	// Drift reporting (Alg. 3): after send_threshold tasks, report the
	// latest processed priority to the master core.
	c.sinceRep++
	if c.sinceRep >= h.sampleInterval() && (h.steers || h.cfg.TDFSchedule != nil) {
		c.sinceRep = 0
		if core == h.master {
			h.recordReport(m, t.Prio)
		} else {
			rep := h.reportSendCost()
			m.Charge(core, sim.Comm, rep)
			cost += rep
			m.Send(sim.Message{From: core, To: h.master, Kind: cpsMsgReport, Aux: t.Prio},
				h.mcfg.EntryBits, cost)
		}
	}
	return cost
}

// pickDestination chooses where a task or bag goes: with probability
// TDF% a random *other* core, otherwise the local queue.
func (h *cpsHandler) pickDestination(core int) int {
	c := &h.cores[core]
	if len(h.cores) == 1 {
		return core
	}
	if int(c.rng.Uint32n(100)) >= h.tdf {
		return core
	}
	pick := func() int {
		dst := int(c.rng.Uint32n(uint32(len(h.cores) - 1)))
		if dst >= core {
			dst++
		}
		return dst
	}
	dst := pick()
	// Flow control (§III-D): with hardware messaging, the sender checks the
	// destination's capacity counter and re-picks when the hRQ is full, so
	// bursts spread instead of spilling to the slower software ring.
	if h.mcfg.HRQSize > 0 {
		for try := 0; try < 3 && h.cores[dst].hrqLen >= h.mcfg.HRQSize; try++ {
			h.flowRedirects++
			dst = pick()
		}
	}
	return dst
}

// reportSendCost returns the core cycles a sender pays to inject a drift
// report: a hardware message when available, otherwise one remote atomic.
func (h *cpsHandler) reportSendCost() int64 {
	if h.mcfg.HRQSize > 0 {
		return h.mcfg.HWQueueCycles
	}
	return h.mcfg.AtomicRMW
}

// dispatchTask sends one task to its destination, charging the sender.
func (h *cpsHandler) dispatchTask(m *sim.Machine, core int, t task.Task) int64 {
	dst := h.pickDestination(core)
	if dst == core {
		cost := h.insertLocal(&h.cores[core], t)
		m.Charge(core, sim.Enqueue, cost)
		return cost
	}
	return h.transfer(m, core, dst, sim.Message{From: core, To: dst, Kind: cpsMsgTask, Task: t},
		h.mcfg.EntryBits, 1)
}

// dispatchBag sends a bag's metadata (and, for push transport, its payload)
// to its destination.
func (h *cpsHandler) dispatchBag(m *sim.Machine, core int, b bag.Bag) int64 {
	dst := h.pickDestination(core)
	meta := task.Task{Node: bagTaskNode, Prio: b.Prio, Data: b.ID}
	bits, entries := h.mcfg.EntryBits, 1
	if h.transport == bag.Push {
		// The payload travels with the metadata and is stored entry by
		// entry at the destination.
		bits += h.mcfg.EntryBits * len(b.Tasks)
		entries += len(b.Tasks)
	}
	// b.Tasks is the partitioner's scratch; the record outlives it.
	h.bags[b.ID] = bagRecord{tasks: append([]task.Task(nil), b.Tasks...), owner: core}
	if dst == core {
		cost := h.insertLocal(&h.cores[core], meta)
		m.Charge(core, sim.Enqueue, cost)
		return cost
	}
	return h.transfer(m, core, dst, sim.Message{From: core, To: dst, Kind: cpsMsgBag, Task: meta}, bits, entries)
}

// transfer models one remote enqueue: hardware message, software receive
// ring, or RELD-style remote locked insert, charging the sender. entries is
// the number of queue entries the payload occupies (1 for a single task or
// pull-transport bag metadata; 1+len(payload) for a pushed bag, which is
// what makes the push scheme pay for preemptive payload transport, §III-B).
func (h *cpsHandler) transfer(m *sim.Machine, core, dst int, msg sim.Message, bits, entries int) int64 {
	if entries < 1 {
		entries = 1
	}
	var cost int64
	switch {
	case h.mcfg.HRQSize > 0:
		// Asynchronous hardware message: the sender pays one inject per
		// queue entry.
		cost = h.mcfg.HWQueueCycles * int64(entries)
		m.Charge(core, sim.Comm, cost)
		m.Send(msg, bits, cost)
	case h.cfg.UseRQ:
		// Software receive ring: remote atomic claim + payload stores. The
		// sender stalls for the claim's round trip and pays a store per
		// entry; the data becomes visible at the destination only after the
		// coherence propagation latency (SWTransferCycles).
		lat := m.Send(msg, bits, h.mcfg.SWTransferCycles)
		cost = h.mcfg.SWRQCost + int64(entries-1)*h.mcfg.SWRQCost/2 + lat/4
		m.Charge(core, sim.Comm, cost)
	default:
		// RELD: lock the destination's priority queue and insert remotely.
		// The sender serializes on the victim's lock; every rebalancing
		// step of the remote insert is a coherence miss (RemoteOpPenalty),
		// and the task reaches the destination only after the propagation
		// latency.
		dc := &h.cores[dst]
		insert := h.cm.swPQCost(dc.swLen()+1) * max(1, h.mcfg.RemoteOpPenalty)
		hold := h.mcfg.SWLockCost + insert
		wait := dc.lock.acquire(m.Now(), hold)
		lat := m.Send(msg, bits, wait+hold+h.mcfg.SWTransferCycles)
		cost = wait + hold + lat/4
		m.Charge(core, sim.Comm, wait+lat/4)
		m.Charge(core, sim.Enqueue, hold)
	}
	return cost
}

// recordReport accumulates a drift report at the master and runs one
// Algorithm 2 update when every core has reported.
func (h *cpsHandler) recordReport(m *sim.Machine, prio int64) {
	h.reports = append(h.reports, prio)
	if len(h.reports) < len(h.cores) {
		return
	}
	if h.cfg.TDFSchedule != nil {
		h.interval++
		h.tdf = h.cfg.TDFSchedule(h.interval)
	} else {
		h.tdf = h.ctrl.Update(h.reports)
	}
	h.tdfTrace = append(h.tdfTrace, h.tdf)
	h.reports = h.reports[:0]
	// The TDF computation runs on the master core (Alg. 2); charge it.
	m.Charge(h.master, sim.Compute, int64(len(h.cores))*2)
}

func (h *cpsHandler) Receive(m *sim.Machine, core int, msg sim.Message) int64 {
	c := &h.cores[core]
	switch msg.Kind {
	case cpsMsgReport:
		h.recordReport(m, msg.Aux)
		return h.mcfg.AtomicRMW / 5 // master-side accumulation (Alg. 2 line 2)
	case cpsMsgTask, cpsMsgBag:
		// A pushed bag's payload rides with the metadata and occupies its
		// own receive-queue entries.
		payloadN := 0
		if msg.Kind == cpsMsgBag && h.transport == bag.Push {
			if rec, ok := h.bags[msg.Task.Data]; ok {
				payloadN = len(rec.tasks)
			}
		}
		hw := false
		if h.mcfg.HRQSize > 0 && c.hrqLen+1+payloadN <= h.mcfg.HRQSize {
			hw = true
			c.hrqLen += 1 + payloadN
		}
		c.in = append(c.in, inEntry{t: msg.Task, payloadN: payloadN, hw: hw})
		// Hardware receive consumes no core cycles (the hRQ absorbs it);
		// a software ring write was already paid for by the sender.
		return 0
	}
	return 0
}
