package sched

import (
	"hdcps/internal/pq"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// The OBIM family (§II-A, §IV-A): pull-style schedulers built around a
// globally shared map of priority-quantized buckets ("bags") of tasks.
//
//   - OBIM quantizes priorities with a fixed shift; a core out of work takes
//     a chunk of tasks from the globally best (lowest) non-empty bucket and
//     processes it without further global traffic, publishing the bags its
//     children fill.
//   - PMOD adds runtime adaptation: it widens the quantization when bags
//     come back underutilized and narrows it when they are always full.
//   - Software Minnow splits the cores into workers and minnow (helper)
//     cores; minnows do all global-map traffic and keep per-worker prefetch
//     buffers full, at the cost of cores lost to task processing.
//   - Hardware Minnow gives every worker an offload engine: global-map
//     operations cost the worker no cycles but still serialize on the map
//     and pay NoC latency for prefetch delivery.
//
// The global map is guarded by one software lock — the "high
// synchronization among cores" the paper attributes to OBIM's work-list.

// obimChunkSize is the bag-chunk capacity (tasks per grab). Galois uses a
// manually tuned value; 16 fits the reduced-scale inputs the experiments run
// (DESIGN.md). PMOD additionally adapts its effective chunk size at runtime.
const obimChunkSize = 16

// minnowDepth is the per-worker prefetch buffer target: one bag ahead of
// the one being processed. Deeper buffers hoard the frontier into private
// buffers and starve other workers.
const minnowDepth = 1

// obimAppendCycles is the cost of appending a child to a local pending
// chunk: a pointer bump, not a priority-queue operation.
const obimAppendCycles = 8

// obimKind selects the family member.
type obimKind int

const (
	kindOBIM obimKind = iota
	kindPMOD
	kindSWMinnow
	kindHWMinnow
)

type obimScheduler struct {
	kind    obimKind
	label   string
	minnows int // SW Minnow only
}

// OBIM returns the fixed-quantization global-bag scheduler.
func OBIM() Scheduler { return obimScheduler{kind: kindOBIM, label: "obim"} }

// PMOD returns OBIM with runtime bag merge/split.
func PMOD() Scheduler { return obimScheduler{kind: kindPMOD, label: "pmod"} }

// SWMinnow returns Software Minnow with the given number of dedicated
// minnow cores (the paper's best split on 40 cores is 4).
func SWMinnow(minnows int) Scheduler {
	return obimScheduler{kind: kindSWMinnow, label: "swminnow", minnows: minnows}
}

// HWMinnow returns Minnow with per-worker hardware offload engines.
func HWMinnow() Scheduler { return obimScheduler{kind: kindHWMinnow, label: "hwminnow"} }

func (s obimScheduler) Name() string { return s.label }

// Run draws no random numbers: the seed does not apply.
func (s obimScheduler) Run(w workload.Workload, cfg sim.Config, _ uint64) stats.Run {
	r, h := simulate(s.label, w, cfg, true, func(mcfg sim.Config) *obimHandler {
		return newOBIMHandler(s, w, mcfg)
	})
	r.BagsCreated = h.chunksTaken
	r.BaggedTasks = h.processed
	return r
}

// globalMap is the shared bucket map: tasks grouped by quantized priority,
// served best-bucket-first in chunks.
type globalMap struct {
	buckets map[int64][]task.Task
	order   *pq.BinaryHeap // min-heap over bucket keys currently present
	size    int
	lock    lockModel

	shift int // priority quantization (bucket = prio >> shift)
	cores int // consumers, for the fair-share grab bound

	// PMOD bag-utilization feedback: adapts both the quantization (merge/
	// split priority ranges) and the effective bag-chunk size.
	adapt      bool
	chunkCap   int
	popSizeSum int64
	popReqSum  int64
	popCount   int64
	fetchSeq   uint64
}

const (
	pmodWindow   = 32 // pops between adaptation decisions
	obimShift    = 2  // OBIM's fixed quantization (needs manual tuning)
	pmodMaxShift = 6
)

func (g *globalMap) bucketOf(prio int64) int64 { return prio >> uint(g.shift) }

// push appends tasks to their bucket.
func (g *globalMap) push(bucket int64, ts []task.Task) {
	if len(ts) == 0 {
		return
	}
	if len(g.buckets[bucket]) == 0 {
		g.order.Push(task.Task{Node: bagTaskNode, Prio: bucket})
	}
	g.buckets[bucket] = append(g.buckets[bucket], ts...)
	g.size += len(ts)
}

// popChunk removes up to max tasks from the best non-empty bucket.
func (g *globalMap) popChunk(max int) (int64, []task.Task, bool) {
	for {
		top, ok := g.order.Peek()
		if !ok {
			return 0, nil, false
		}
		b := top.Prio
		ts := g.buckets[b]
		if len(ts) == 0 {
			g.order.Pop()
			delete(g.buckets, b)
			continue
		}
		n := len(ts)
		if g.adapt {
			max = g.chunkCap // PMOD: the adaptive bag size replaces the default
		}
		// Fair-share bound: never grab more than 1/cores of the available
		// work, so a shallow frontier is not hoarded by whoever asks first.
		if g.cores > 0 {
			if fair := g.size / g.cores; fair < max {
				max = fair
			}
		}
		if max < 4 {
			max = 4 // floor: amortize the locked grab over a few tasks
		}
		if n > max {
			n = max
		}
		out := ts[:n:n]
		g.buckets[b] = ts[n:]
		g.size -= n
		if len(g.buckets[b]) == 0 {
			g.order.Pop()
			delete(g.buckets, b)
		}
		if g.adapt {
			// Utilization is judged against what was actually requested
			// (after the fair-share bound), so a shallow frontier is not
			// mistaken for bag under-utilization.
			g.popSizeSum += int64(n)
			g.popReqSum += int64(max)
			g.popCount++
			if g.popCount >= pmodWindow {
				switch {
				case g.popSizeSum*4 < g.popReqSum:
					// Bags underutilized: shrink the over-commit and merge
					// priority ranges so bags refill.
					if g.chunkCap > 4 {
						g.chunkCap /= 2
					}
					if g.shift < pmodMaxShift {
						g.shift++
					}
				case g.popSizeSum >= g.popReqSum:
					// Bags always full: grow them and split priority
					// ranges for tighter ordering.
					if g.chunkCap < 64 {
						g.chunkCap *= 2
					}
					if g.shift > 0 {
						g.shift--
					}
				}
				g.popSizeSum, g.popReqSum, g.popCount = 0, 0, 0
			}
		}
		return b, out, true
	}
}

// opCost is the software cost of one locked map operation given its size.
func (h *obimHandler) opCost() int64 {
	return h.cm.swPQCost(len(h.g.buckets) + 1)
}

// chunkRec is a delivered chunk in a Minnow buffer.
type chunkRec struct {
	id     uint64
	tasks  []task.Task
	bucket int64
}

// obimCore is per-core scheduler state.
type obimCore struct {
	cur       []task.Task           // chunk being processed
	curBucket int64                 // bucket of the current chunk
	pending   map[int64][]task.Task // children grouped by bucket
	keys      []int64               // deterministic pending iteration order
	buffer    []chunkRec            // Minnow prefetch buffer
	outbox    []chunkRec            // SW Minnow: chunks awaiting global push
	inflight  int                   // chunk deliveries in flight
	requested bool                  // a prefetch request was sent and not yet answered
}

type obimHandler struct {
	base
	kind  obimKind // kindOBIM for an SW Minnow with no core to spare
	mcfg  sim.Config
	g     globalMap
	cores []obimCore

	workers int // cores that process tasks (rest are minnows)

	chunksTaken int64

	// spare holds published pending buffers for reuse: the global map copies
	// a bucket's tasks on push, so nothing retains the buffer.
	spare [][]task.Task
	idle  []bool
}

// Message kinds.
const (
	obimMsgDeliver = iota // chunk delivered to a worker's buffer
	obimMsgNotify         // worker -> minnow: outbox/prefetch attention
)

func newOBIMHandler(s obimScheduler, w workload.Workload, mcfg sim.Config) *obimHandler {
	h := &obimHandler{
		kind: s.kind,
		mcfg: mcfg,
		g: globalMap{
			buckets:  make(map[int64][]task.Task),
			order:    pq.NewBinaryHeap(64),
			shift:    obimShift,
			adapt:    s.kind == kindPMOD,
			chunkCap: obimChunkSize,
			cores:    mcfg.Cores,
		},
		cores: make([]obimCore, mcfg.Cores),
		idle:  make([]bool, mcfg.Cores),
	}
	h.init(w, mcfg)
	h.workers = mcfg.Cores
	if s.kind == kindSWMinnow {
		// At least one core stays a worker. With no core to spare for a
		// minnow (one core, or no minnows asked for) the workers do their
		// own global-map traffic, as OBIM's do.
		if spare := min(max(s.minnows, 0), mcfg.Cores-1); spare > 0 {
			h.workers = mcfg.Cores - spare
		} else {
			h.kind = kindOBIM
		}
	}
	for i := range h.cores {
		h.cores[i] = obimCore{pending: make(map[int64][]task.Task)}
	}
	return h
}

// minnowOf maps a worker to its serving minnow core.
func (h *obimHandler) minnowOf(worker int) int {
	return h.workers + worker%(h.mcfg.Cores-h.workers)
}

func (h *obimHandler) isMinnow(core int) bool {
	return h.kind == kindSWMinnow && core >= h.workers
}

func (h *obimHandler) Start(m *sim.Machine) {
	byBucket := make(map[int64][]task.Task)
	var order []int64
	for _, t := range h.w.InitialTasks() {
		b := h.g.bucketOf(t.Prio)
		if _, ok := byBucket[b]; !ok {
			order = append(order, b)
		}
		byBucket[b] = append(byBucket[b], t)
	}
	for _, b := range order {
		h.g.push(b, byBucket[b])
	}
	for i := 0; i < h.mcfg.Cores; i++ {
		m.Wake(i)
	}
}

// wakeAll re-arms every parked core; pushers call it so idle pullers
// re-check the global map (their polling loop).
func (h *obimHandler) wakeAll(m *sim.Machine) {
	for i := 0; i < h.mcfg.Cores; i++ {
		if h.idle[i] {
			h.idle[i] = false
			m.Wake(i)
		}
	}
}

func (h *obimHandler) Ready(m *sim.Machine, core int) (int64, bool) {
	if h.isMinnow(core) {
		return h.minnowReady(m, core)
	}
	c := &h.cores[core]
	var cost int64

	// Refill the current chunk.
	if len(c.cur) == 0 {
		cost += h.flush(m, core)
		refill, _ := h.refill(m, core)
		cost += refill
		if len(c.cur) == 0 {
			// Park. Either the map is empty (a global push re-arms us via
			// wakeAll) or a prefetch delivery is in flight (its message
			// re-arms us); mark idle so wakeAll covers both.
			h.curPrio[core] = idlePrio
			h.idle[core] = true
			return cost, true
		}
	}

	// Process the whole chunk (OBIM executes one bag at a time).
	chunk := c.cur
	c.cur = nil
	for _, t := range chunk {
		cost += h.processOne(m, core, t, cost)
	}
	return cost, false
}

// refill obtains the next chunk for a worker. wait reports that a prefetch
// delivery is in flight (the core parks but stays marked non-idle so only
// the delivery re-arms it).
func (h *obimHandler) refill(m *sim.Machine, core int) (cost int64, wait bool) {
	c := &h.cores[core]
	switch h.kind {
	case kindOBIM, kindPMOD:
		// The map is a concurrent structure: the serialized hand-off is
		// shorter than the full operation, whose cost the core still pays.
		op := h.opCost()
		hold := h.mcfg.SWLockCost / 2
		waitc := h.g.lock.acquire(m.Now(), hold)
		m.Charge(core, sim.Comm, waitc)
		m.Charge(core, sim.Dequeue, hold+op)
		cost = waitc + hold + op
		bucket, ts, ok := h.g.popChunk(obimChunkSize)
		if !ok {
			h.idle[core] = true
			return cost, false
		}
		h.chunksTaken++
		h.g.fetchSeq++
		fetch := m.MemAccess(core, bagPayloadAddr(core%8, h.g.fetchSeq), 16*len(ts))
		m.Charge(core, sim.Dequeue, fetch)
		c.cur, c.curBucket = ts, bucket
		return cost + fetch, false

	case kindSWMinnow:
		if len(c.buffer) > 0 {
			rec := c.buffer[0]
			c.buffer = c.buffer[1:]
			fetch := m.MemAccess(core, bagPayloadAddr(core%8, rec.id), 16*len(rec.tasks))
			m.Charge(core, sim.Dequeue, fetch+h.mcfg.SWPQBase/2)
			c.cur, c.curBucket = rec.tasks, rec.bucket
			if len(c.buffer) < minnowDepth && c.inflight == 0 && !c.requested {
				// Low water: overlap the next prefetch with processing.
				c.requested = true
				h.notifyMinnow(m, core, fetch)
			}
			return fetch + h.mcfg.SWPQBase/2, false
		}
		if c.inflight == 0 && !c.requested {
			c.requested = true
			h.notifyMinnow(m, core, 0)
		}
		return h.mcfg.AtomicRMW, true // park until the delivery arrives

	default: // kindHWMinnow
		if len(c.buffer) > 0 {
			rec := c.buffer[0]
			c.buffer = c.buffer[1:]
			m.Charge(core, sim.Dequeue, h.mcfg.HWQueueCycles)
			c.cur, c.curBucket = rec.tasks, rec.bucket
			h.enginePrefetch(m, core) // keep the buffer ahead
			return h.mcfg.HWQueueCycles, false
		}
		h.enginePrefetch(m, core)
		if c.inflight == 0 {
			h.idle[core] = true
			return 0, false // nothing in flight and the map is empty
		}
		return 0, true
	}
}

// notifyMinnow pings the worker's minnow core (a software flag write, so it
// propagates with coherence latency).
func (h *obimHandler) notifyMinnow(m *sim.Machine, core int, delay int64) {
	m.Charge(core, sim.Comm, h.mcfg.AtomicRMW)
	// The minnow spins on its service flags, so the notify is visible after
	// roughly one coherence transfer, already part of the atomic's cost.
	m.Send(sim.Message{From: core, To: h.minnowOf(core), Kind: obimMsgNotify, Aux: int64(core)},
		64, delay+h.mcfg.AtomicRMW)
}

// enginePrefetch models the HW Minnow engine pulling a chunk from the
// global map on the worker's behalf: zero worker cycles, but the engine
// serializes on the map lock and the delivery crosses the NoC.
func (h *obimHandler) enginePrefetch(m *sim.Machine, core int) {
	c := &h.cores[core]
	if c.inflight > 0 || len(c.buffer) >= minnowDepth {
		return
	}
	op := h.mcfg.SWLockCost/4 + h.opCost()/4 // hardware-assisted map access
	wait := h.g.lock.acquire(m.Now(), op)
	bucket, ts, ok := h.g.popChunk(obimChunkSize)
	if !ok {
		return
	}
	h.chunksTaken++
	h.g.fetchSeq++
	c.inflight++
	m.Send(sim.Message{From: core, To: core, Kind: obimMsgDeliver, Tasks: ts,
		Aux: bucket, Task: task.Task{Data: h.g.fetchSeq}},
		h.mcfg.EntryBits*len(ts), wait+op)
}

// minnowReady runs one helper-core step: push its workers' outboxes to the
// global map and refill their low buffers.
func (h *obimHandler) minnowReady(m *sim.Machine, core int) (int64, bool) {
	var cost int64
	pushed := false
	for w := 0; w < h.workers; w++ {
		if h.minnowOf(w) != core {
			continue
		}
		wc := &h.cores[w]
		for _, rec := range wc.outbox {
			op := h.opCost()
			hold := h.mcfg.SWLockCost / 2
			wait := h.g.lock.acquire(m.Now()+cost, hold)
			m.Charge(core, sim.Comm, wait)
			m.Charge(core, sim.Enqueue, hold+op)
			cost += wait + hold + op
			h.g.push(rec.bucket, rec.tasks)
			h.spare = append(h.spare, rec.tasks[:0])
			pushed = true
		}
		wc.outbox = wc.outbox[:0]
		for len(wc.buffer)+wc.inflight < minnowDepth {
			op := h.opCost()
			hold := h.mcfg.SWLockCost / 2
			wait := h.g.lock.acquire(m.Now()+cost, hold)
			bucket, ts, ok := h.g.popChunk(obimChunkSize)
			if !ok {
				break
			}
			h.chunksTaken++
			h.g.fetchSeq++
			m.Charge(core, sim.Comm, wait)
			m.Charge(core, sim.Dequeue, hold+op)
			cost += wait + hold + op
			wc.inflight++
			m.Send(sim.Message{From: core, To: w, Kind: obimMsgDeliver, Tasks: ts,
				Aux: bucket, Task: task.Task{Data: h.g.fetchSeq}},
				h.mcfg.EntryBits, cost)
		}
	}
	if pushed {
		h.wakeAll(m)
	}
	if cost > 0 {
		// Did work: run again right away; more may have arrived meanwhile
		// (a real minnow core spins on its service loop).
		return cost, false
	}
	h.idle[core] = true
	return cost, true // re-armed by worker notifications or map pushes
}

// processOne executes one task, groups its children into pending buckets,
// and publishes buckets that are full or better than the current chunk.
func (h *obimHandler) processOne(m *sim.Machine, core int, t task.Task, at int64) int64 {
	c := &h.cores[core]
	cost := h.step(m, core, t, at)

	for _, ch := range h.children {
		b := h.g.bucketOf(ch.Prio)
		buf, ok := c.pending[b]
		if !ok {
			c.keys = append(c.keys, b)
			if n := len(h.spare); n > 0 {
				buf, h.spare = h.spare[n-1], h.spare[:n-1]
			}
		}
		c.pending[b] = append(buf, ch)
		m.Charge(core, sim.Enqueue, obimAppendCycles)
		cost += obimAppendCycles
		// Publish a bucket when it fills, or immediately when it holds
		// higher-priority work than what this core is processing — other
		// cores must see it (OBIM's fast propagation through the map).
		if len(c.pending[b]) >= obimChunkSize || b < c.curBucket {
			cost += h.emitBucket(m, core, b)
		}
	}
	return cost
}

// emitBucket publishes one pending bucket to the global map (or the
// worker's outbox under SW Minnow).
func (h *obimHandler) emitBucket(m *sim.Machine, core int, bucket int64) int64 {
	c := &h.cores[core]
	ts := c.pending[bucket]
	delete(c.pending, bucket)
	for i, k := range c.keys {
		if k == bucket {
			c.keys = append(c.keys[:i], c.keys[i+1:]...)
			break
		}
	}
	if len(ts) == 0 {
		return 0
	}
	switch h.kind {
	case kindSWMinnow:
		// Hand the chunk to the minnow through the shared store buffer: the
		// worker pays one flag write; the minnow publishes it to the map.
		c.outbox = append(c.outbox, chunkRec{tasks: ts, bucket: bucket})
		notify := h.mcfg.AtomicRMW
		m.Charge(core, sim.Enqueue, notify)
		m.Send(sim.Message{From: core, To: h.minnowOf(core), Kind: obimMsgNotify}, 64, notify)
		return notify
	case kindHWMinnow:
		// The engine pushes in the background: worker pays only the inject.
		op := h.mcfg.SWLockCost/4 + h.opCost()/4
		h.g.lock.acquire(m.Now(), op)
		h.g.push(bucket, ts)
		h.spare = append(h.spare, ts[:0])
		m.Charge(core, sim.Enqueue, h.mcfg.HWQueueCycles)
		h.wakeAll(m)
		return h.mcfg.HWQueueCycles
	default:
		op := h.opCost()
		hold := h.mcfg.SWLockCost / 2
		wait := h.g.lock.acquire(m.Now(), hold)
		m.Charge(core, sim.Comm, wait)
		m.Charge(core, sim.Enqueue, hold+op)
		h.g.push(bucket, ts)
		h.spare = append(h.spare, ts[:0])
		h.wakeAll(m)
		return wait + hold + op
	}
}

// flush publishes every pending bucket; called before refilling so no
// tasks are stranded while the core looks for new work.
func (h *obimHandler) flush(m *sim.Machine, core int) int64 {
	c := &h.cores[core]
	var cost int64
	for len(c.keys) > 0 { // emitBucket removes the key it publishes
		cost += h.emitBucket(m, core, c.keys[0])
	}
	return cost
}

func (h *obimHandler) Receive(m *sim.Machine, core int, msg sim.Message) int64 {
	c := &h.cores[core]
	switch msg.Kind {
	case obimMsgDeliver:
		c.buffer = append(c.buffer, chunkRec{id: msg.Task.Data, tasks: msg.Tasks, bucket: msg.Aux})
		if c.inflight > 0 {
			c.inflight--
		}
		c.requested = false
		h.idle[core] = false
		return 0
	case obimMsgNotify:
		h.idle[core] = false
		return 0
	}
	return 0
}
