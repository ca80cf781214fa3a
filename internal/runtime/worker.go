package runtime

// The worker loop: what is left of a worker once the job scheduler
// (jobsched.go), the ledger (ledger.go), the placement rule (place.go) and the
// cycle-start section thieves synchronize with (steal.go) are cut out. It moves
// tasks — receive, pop a batch, run each one, place its children — and calls
// those units at the points their contracts name.

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"hdcps/internal/bag"
	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/task"
)

// bagMarker tags a ring task as bag metadata (node IDs never reach 2^32-1).
const bagMarker = ^graph.NodeID(0)

// keptUnit is a unit kept for the next cycle start with the worker's queue
// for its job, nil when the worker had none yet.
type keptUnit struct {
	t task.Task
	q *workerJQ
}

type worker struct {
	id int

	// sched picks which job's queue the next pop comes from; led holds what
	// the popped tasks did to the ledger until the next settle.
	sched jobSched
	led   ledger

	// rng is held by value: separately allocated 8-byte generators would
	// share a cache line across workers, and dispatch draws from it per child.
	rng graph.RNG

	// batch is the dequeue batch (batchK long): the loop pops up to
	// len(batch) tasks and processes them back to back, prefetching the
	// next task's CSR row between items. batchQ[i] is the queue batch[i]
	// came from — the worker's queue for its job — so the loop does not look
	// the job up again per task. batchPos/batchLen let a worker restart
	// (runWorkerGuarded) requeue the not-yet-started tail so a mid-batch
	// crash strands no tasks.
	batch    []task.Task
	batchQ   []*workerJQ
	batchPos int
	batchLen int

	// kept holds the units this worker placed on itself since its last cycle
	// start (Engine.keep), inbox the scratch its receive side and a steal's
	// drain of a peer's ring land in, and stale the job of a stale pop since
	// the last cycle start: the trigger to steal (steal.go).
	kept  []keptUnit
	inbox []task.Task
	stale *jobState

	// store holds this worker's outgoing bag payloads (pull transport): the
	// consumer resolves the metadata's Data field against it and releases
	// the slot when done.
	store payloadStore

	// children is the per-task scratch emit buffer; emit is the one
	// allocation-free closure appending to it, and part the reusable-scratch
	// bag partitioner (its output is consumed before the next task).
	children []task.Task
	emit     func(task.Task)
	newBagID func() uint64
	part     bag.Partitioner

	// tasks is the loop's clock: tasks this worker has run to completion. It
	// strides the trace sampler and, against flushedAt and reportedAt, spaces
	// the forced transport flush (flushInterval) and the drift report
	// (Algorithm 3's send threshold).
	tasks      int64
	flushedAt  int64
	reportedAt int64

	// n is the worker's counts, plain and indexed by obs.Counter: every event
	// site adds to its slot by name. The ledger's terms are not among them:
	// settle stores those in the worker's rows of the jobs (ledger.go).
	// popCount strides the rank sampler at the recorder's task-sample mask.
	n        obs.Counts
	popCount int64

	// parked is set while the worker blocks in the park/wake handshake
	// (Snapshot's WorkerStats.Parked, and so StallError, read it).
	parked atomic.Bool

	// row is the worker's published counters, which Snapshot and WriteTrace
	// read: the worker stores n there (settle, publish and the rare sites
	// that must show at once), and senders add overflow_spills to it
	// (transport.go), the one slot the worker does not write.
	row obs.Row

	// inTask is set while a task handler runs (processOne): a panic that
	// unwinds with it set is the task's, and is quarantined; any other is
	// the engine's own and goes on to runWorkerGuarded.
	inTask bool

	// prefetchSink receives the batched loop's CSR-offset loads; writing
	// them to a field keeps the loads from being dead-code-eliminated.
	prefetchSink uint32

	// mu guards the worker's strict queues, its queue set and their rotation
	// flags against thieves (steal.go). Thieves try it from other cores, so
	// it sits on a line of its own.
	_  [64]byte
	mu sync.Mutex
	_  [64]byte
}

// publish stores the worker's counts into its row: every slot that moved but
// overflow_spills, which senders add to. The queue fallbacks are a gauge,
// recounted here.
func (me *worker) publish() {
	var fallbacks int64
	// A thief's ring drain may push into these queues: read them under the
	// lock.
	me.mu.Lock()
	for _, q := range me.sched.jqs {
		if q != nil && q.tl != nil && q.tl.FellBack() {
			fallbacks++
		}
	}
	me.mu.Unlock()
	me.n[obs.CQueueFallbacks] = fallbacks
	for c := range me.n {
		if v := me.n[c]; obs.Counter(c) != obs.COverflowSpills && me.row[c].Load() != v {
			me.row[c].Store(v)
		}
	}
}

// park blocks the worker until work is submitted or the engine stops, and
// reports whether the worker should keep running.
func (e *Engine) park(me *worker) bool {
	me.n[obs.CIdleParks]++
	// The caller has settled; publish() flushes the remaining counter slots
	// (parks, edges, bags), so the row is fully caught up whenever the
	// worker idles; a parked worker reports no priority.
	me.publish()
	e.control.idle(me.id)
	if rec := e.obs; rec != nil {
		rec.Event(me.id, obs.EvPark, 0, 0, 0)
	}
	me.parked.Store(true)
	e.mu.Lock()
	for e.outstanding.Load() == 0 && !e.stop.Load() {
		e.cond.Wait()
	}
	e.mu.Unlock()
	me.parked.Store(false)
	if rec := e.obs; rec != nil {
		rec.Event(me.id, obs.EvWake, 0, 0, 0)
	}
	return !e.stop.Load()
}

// push lands one task in this worker's queue for the task's job — or, when
// the job is cancelled, discards it straight into the cancellation sink. The
// caller holds the worker's lock: cycleStart (kept units, arrivals, a steal)
// or a restart's requeue.
func (e *Engine) push(me *worker, t task.Task) {
	e.pushTo(me, me.sched.queue(e.jobStateFor(t.Job)), t)
}

// pushTo is push into q, already known to be the worker's queue for t's job.
func (e *Engine) pushTo(me *worker, q *workerJQ, t task.Task) {
	if q.js.cancelled.Load() {
		e.discard(me, q, t)
		return
	}
	if me.sched.shared {
		// The shared structure shows the task to the fleet at once: settle
		// before ship.
		e.settle(me)
		q.push(t)
		return
	}
	q.push(t)
	me.sched.activate(q)
}

// discard retires one unit of a cancelled job without executing it: a plain
// task counts one cancellation; a bag marker resolves its payload, counts
// every payload task as cancelled, and retires the bag itself.
func (e *Engine) discard(me *worker, q *workerJQ, t task.Task) {
	if t.Node != bagMarker {
		me.led.cancel(q, 1)
		return
	}
	st := &e.workers[int(t.Data>>32)].store
	s := st.get(uint32(t.Data))
	me.led.cancel(q, int64(len(s.tasks)))
	me.led.retireBag(q)
	st.release(s)
}

// runWorkerGuarded runs the worker loop, recovering any panic that escapes
// the task isolation of runBatchFrom and runPayload — an engine-internal
// bug, not a task handler fault. It reports true on a clean (stop-requested) exit and false
// when the loop died and should be restarted. Accounting already performed
// by the interrupted iteration is preserved (counters are monotone and the
// outstanding ledger is adjusted before work becomes visible), so a restart
// can at worst re-deliver the interrupted task's siblings, never lose the
// count that lets Drain terminate.
func (e *Engine) runWorkerGuarded(id int) (clean bool) {
	defer func() {
		if r := recover(); r != nil {
			clean = false
			me := &e.workers[id]
			me.n[obs.CWorkerRestarts]++
			me.row[obs.CWorkerRestarts].Store(me.n[obs.CWorkerRestarts])
			if rec := e.obs; rec != nil {
				rec.Event(id, obs.EvWorkerRestart, 0, 0, 0)
			}
		}
	}()
	e.runWorker(id)
	return true
}

func (e *Engine) runWorker(id int) {
	me := &e.workers[id]
	defer func() {
		me.publish()
		e.settle(me)
	}()
	// A restarted worker may have died mid-batch: requeue the popped but
	// not-yet-started tail so the crash strands no tasks. The task at
	// batchPos was in flight when the loop died; like the pre-batching
	// single-task loop, its accounting was already preserved by processOne's
	// ordering, so only the untouched tail needs to go back.
	if me.batchLen > 0 {
		me.mu.Lock()
		for _, t := range me.batch[me.batchPos+1 : me.batchLen] {
			e.push(me, t)
		}
		me.mu.Unlock()
		me.batchPos, me.batchLen = 0, 0
	}
	idle, spin := 0, idleSpin()
	for {
		if e.stop.Load() {
			return
		}
		// The cycle start (steal.go), under the worker's lock: the units kept
		// during the last batch and the receive side (ring + spilled batches)
		// go into the queues, a worker behind steals, and the job scheduler
		// fills up to batchK tasks across the active jobs, which are then
		// processed back to back. The batch amortizes the stop/recv/flush
		// checks and gives the loop a known next task whose CSR row it can
		// prefetch; the cost is bounded priority relaxation (a child of
		// batch[i] cannot preempt batch[i+1:], at most batchK-1 tasks of it).
		// Every way back here settles first, so nothing the section shows a
		// thief is uncounted.
		n := e.cycleStart(me)
		if n == 0 {
			// Cancellation sweeps may have retired work with no batch to
			// process: settle those deltas before deciding the fleet is idle,
			// or the counts they hold back would stall quiescence.
			e.settle(me)
			if e.transport.Pending(id) > 0 {
				// Out of local work: ship every partial batch before idling
				// so no task waits on this worker's buffers.
				e.flush(me)
				continue
			}
			if e.outstanding.Load() == 0 {
				// Quiescent fleet: park until Submit or Stop.
				if !e.park(me) {
					return
				}
				idle = 0
				continue
			}
			// Publish once on idle entry so a worker waiting out another
			// worker's tail never holds counters stale (the hot loop only
			// republishes at flush boundaries). Later idle iterations skip
			// the stores: an empty-queue spin cannot change any counter. Its
			// drift reports go too: an idle worker is at no priority.
			if idle == 0 {
				me.publish()
				e.control.idle(id)
			}
			// Adaptive backoff: re-poll hot for a moment (work often lands
			// within a few hundred ns), then yield the P so the workers
			// holding tasks can run, then park briefly so an idle worker
			// stops costing the scheduler anything.
			idle++
			switch {
			case idle <= spin:
			case idle <= 2*spin:
				stdruntime.Gosched()
			default:
				time.Sleep(idleSleep)
			}
			continue
		}
		idle = 0
		e.runBatch(me, n)
		if me.tasks-me.flushedAt >= flushInterval && e.transport.Pending(id) > 0 {
			e.flush(me)
			me.publish()
		}
	}
}

// runBatch processes the n tasks the cycle start put in the dequeue batch,
// each against the queue it was popped from, then settles.
func (e *Engine) runBatch(me *worker, n int) {
	me.batchLen = n
	for i := 0; i < n; i = e.runBatchFrom(me, i, n) {
	}
	me.batchLen = 0
	// Settle the batch's accumulated retirements — the batched loop's other
	// throughput lever besides the prefetch: up to batchK childless tasks
	// retire for the price of one outstanding.Add a job and one for the
	// engine (and one processed-count store) instead of one each.
	e.settle(me)
}

// runBatchFrom runs batch[i:n] and returns n, or, when a task handler
// panics, quarantines that task (batch[batchPos]) and returns the index after
// it, where runBatch resumes. One deferred recover serves the whole batch, since a
// frame per task made a solve 3-4% slower and a handler's panic is the rare
// case. openBag's payload gets the same frame (runPayload).
func (e *Engine) runBatchFrom(me *worker, i, n int) (next int) {
	defer func() {
		if me.inTask {
			me.inTask = false
			e.handleFault(me, me.batchQ[me.batchPos], me.batch[me.batchPos], recover())
			next = me.batchPos + 1
		}
	}()
	for ; i < n; i++ {
		me.batchPos = i
		if i+1 < n {
			me.prefetchRow(me.batchQ[i+1], me.batch[i+1])
		}
		t, q := me.batch[i], me.batchQ[i]
		if t.Node == bagMarker {
			e.openBag(me, q, t)
		} else {
			e.processOne(me, q, t)
		}
	}
	return n
}

// fillBatch fills the worker's dequeue batch from the queues the job
// scheduler names, telling it how each pop went. Cancelled jobs met on the
// way are swept into the cancellation sink without consuming batch slots.
// Every strict queue it leaves in the rotation or takes out of it is exposed
// (steal.go) before it returns.
func (e *Engine) fillBatch(me *worker) int {
	s := &me.sched
	if s.shared {
		s.syncJobs(*e.jobs.Load())
	}
	n := 0
	for n < len(me.batch) {
		q := s.next()
		if q == nil {
			break
		}
		if q.js.cancelled.Load() {
			e.drainCancelled(me, q)
			if s.shared && (q.delta.out != 0 || q.js.outstanding.Load() != 0) {
				// Another worker may still be pushing this job's tasks into
				// the shared structure: keep the queue in the rotation so
				// later rounds sweep the stragglers; once the job's ledger is
				// empty no new task can appear and it can leave.
				s.miss(q)
			} else {
				s.deactivate(q)
				e.expose(me, q)
			}
			continue
		}
		t, ok := q.pop()
		if !ok {
			s.miss(q)
			e.expose(me, q)
			continue
		}
		s.hit(q)
		if e.obsMask >= 0 {
			e.sampleRank(me, q, t)
		}
		me.batch[n], me.batchQ[n] = t, q
		n++
	}
	if e.steals {
		for _, q := range s.act {
			e.expose(me, q)
		}
	}
	return n
}

// drainCancelled sweeps every queued task of a cancelled job into the
// cancellation sink. For the strict kinds this empties the worker's private
// queue for the job; for multiqueue it drains whatever the shared structure
// yields to this worker's handle (other workers sweep their share).
func (e *Engine) drainCancelled(me *worker, q *workerJQ) {
	swept := int64(0)
	for {
		t, ok := q.pop()
		if !ok {
			break
		}
		e.discard(me, q, t)
		swept++
	}
	if swept > 0 {
		if rec := e.obs; rec != nil {
			rec.Event(me.id, obs.EvCancel, swept, int64(q.js.id), 0)
		}
	}
}

// sampleRank measures how far a freshly popped task strayed from the best
// work this worker could observe, at the recorder's task-sample stride.
// Only called with obs enabled (obsMask >= 0) — a disabled engine pays one
// predictable branch at the pop site and nothing else.
//
// For the relaxed multiqueue the measure is the shared structure's
// RankEstimate: the number of shards whose lock-free cached top is strictly
// better than the popped priority — a lower bound on the true global rank
// error, zero exactly when no inversion was observable. For the strict
// kinds the local queue IS the worker's priority order, so the sample
// degrades to a Peek-after-pop canary: the queue's next task having a lower
// Prio than the one just popped can only mean a structural bug, which is
// why TestEngineRankCounters demands 0 inversions from heap/dheap/twolevel.
func (e *Engine) sampleRank(me *worker, q *workerJQ, t task.Task) {
	me.popCount++
	if me.popCount&e.obsMask != 0 {
		return
	}
	var rank int64
	if q.mq != nil {
		r, _ := q.mq.Queue().RankEstimate(t.Prio)
		rank = int64(r)
	} else if next, ok := q.peek(); ok && next.Prio < t.Prio {
		// Strictly-less on Prio, not task.Less: the strict kinds promise the
		// priority order only (twolevel pops equal priorities FIFO, the
		// heaps by Node).
		rank = 1
	}
	me.n[obs.CRankSamples]++
	if rank > 0 {
		me.n[obs.CPrioInversions]++
		me.n[obs.CRankErrSum] += rank
		me.n[obs.CRankErrMax] = max(me.n[obs.CRankErrMax], rank)
	}
	for c := obs.CRankSamples; c <= obs.CRankErrMax; c++ {
		me.row[c].Store(me.n[c])
	}
	e.obs.Event(me.id, obs.EvRankSample, rank, t.Prio, int64(q.js.id))
}

// prefetchRow touches the next batched task's CSR row bounds (in its job's
// graph, q being the worker's queue for the job) so the offset line is
// resident by the time processing reaches that task. The summed loads land
// in prefetchSink to keep them alive past the optimizer.
func (me *worker) prefetchRow(q *workerJQ, t task.Task) {
	if t.Node == bagMarker {
		return
	}
	off := q.js.off
	if i := int(t.Node); i+1 < len(off) {
		me.prefetchSink = off[i] + off[i+1]
	}
}

// openBag resolves a popped bag marker against its creator's payload store
// and runs the payload inline.
func (e *Engine) openBag(me *worker, q *workerJQ, t task.Task) {
	st := &e.workers[int(t.Data>>32)].store
	s := st.get(uint32(t.Data))
	me.n[obs.CBagsOpened]++
	if rec := e.obs; rec != nil {
		rec.Event(me.id, obs.EvBagOpened, int64(len(s.tasks)), 0, 0)
	}
	for k := 0; k < len(s.tasks); k = e.runPayload(me, q, s.tasks, k) {
	}
	// The marker's pop paid for one task, but len(s.tasks) were just retired:
	// the job's fairness balance owes the rest.
	me.sched.charge(q, int64(len(s.tasks))-1)
	st.release(s)
	me.led.retireBag(q)
}

// runPayload runs a bag's payload ts[k:] and returns len(ts), or, when a task
// handler panics, quarantines that task and returns the index after it.
func (e *Engine) runPayload(me *worker, q *workerJQ, ts []task.Task, k int) (next int) {
	defer func() {
		if me.inTask {
			me.inTask = false
			e.handleFault(me, q, ts[next], recover())
			next++
		}
	}()
	for next = k; next < len(ts); next++ {
		e.processOne(me, q, ts[next])
	}
	return next
}

// handleFault quarantines one task of q's job whose handler panicked (pv is
// the recover value): the children it emitted before the panic are discarded
// (a task's effects land whole or not at all), and the task retires into the
// poison list, keeping the job's ledger balanced so Drain still terminates.
func (e *Engine) handleFault(me *worker, q *workerJQ, t task.Task, pv any) {
	me.children = me.children[:0]
	e.faults.quarantine(t, me.id, pv)
	if rec := e.obs; rec != nil {
		rec.Event(me.id, obs.EvQuarantine, t.Prio, int64(q.js.id), 0)
	}
	// The quarantine term is in the worker's row and its deferred terms are
	// settled before the task leaves the outstanding counts at once, the
	// job's first, then the engine's — the ledger's publication order,
	// without waiting for the batch boundary.
	add(&q.row.quarantined, 1)
	e.settle(me)
	q.js.outstanding.Add(-1)
	e.account(-1)
}

// processOne executes one task and distributes its children. q is the
// worker's queue for the task's job: its ledger delta accumulator, and the
// queue whose length gates dispatch. A handler that panics unwinds out of
// here to the caller's recover (runBatchFrom, runPayload).
func (e *Engine) processOne(me *worker, q *workerJQ, t task.Task) {
	js := q.js
	me.children = me.children[:0]
	me.inTask = true
	edges := js.w.Process(t, me.emit)
	me.inTask = false
	if edges == 0 {
		// A stale pop: a better path reached the node first, so this worker
		// is behind on the job (steal.go).
		me.stale = js
	}
	me.n[obs.CEdgesExamined] += int64(edges)
	me.tasks++
	// The task's retirement and its children go into the worker's deferred
	// deltas only: no shared line is touched here (ledger.go says when they
	// settle).
	me.led.retire(q)
	// With a recorder attached, the sampled trace path records here, with an
	// edge-count refresh so the row lags by at most one sample stride.
	if m := e.obsMask; m >= 0 && me.tasks&m == 0 {
		edges := me.n[obs.CEdgesExamined]
		me.row[obs.CEdgesExamined].Store(edges)
		e.obs.Event(me.id, obs.EvTask, t.Prio, me.tasks, edges)
	}

	if len(me.children) > 0 {
		// Children inherit the parent's tenant: identity flows with the
		// work, so every spawned task is billed to the job that created it.
		for i := range me.children {
			me.children[i].Job = t.Job
		}
		bags, singles := me.part.Partition(me.children, bag.DefaultPolicy(), me.newBagID)
		bagged := int64(countTasks(bags))
		me.n[obs.CTasksBagged] += bagged
		me.led.spawn(q, int64(len(bags))+bagged+int64(len(singles)))
		for _, b := range bags {
			me.n[obs.CBagsCreated]++
			s := me.store.get(uint32(b.ID))
			s.tasks = append(s.tasks[:0], b.Tasks...)
			if rec := e.obs; rec != nil {
				rec.Event(me.id, obs.EvBagCreated, b.Prio, int64(len(b.Tasks)), 0)
			}
			e.dispatch(me, q, task.Task{Node: bagMarker, Job: t.Job, Prio: b.Prio, Data: b.ID}, b.Tasks[0].Node)
		}
		for _, c := range singles {
			e.dispatch(me, q, c, c.Node)
		}
	}

	// Drift reporting (Algorithm 3's send threshold).
	if me.tasks-me.reportedAt >= e.sampleInterval {
		me.reportedAt = me.tasks
		me.n[obs.CDriftReports]++
		e.control.Report(&me.n, me.id, js.id, t.Prio)
	}
}

func countTasks(bags []bag.Bag) int {
	n := 0
	for _, b := range bags {
		n += len(b.Tasks)
	}
	return n
}

// dispatch routes one unit (task or bag metadata) where the placement rule
// says, under the drift controller's TDF. node is the unit's node — a bag
// marker's is its first task's — and names the unit's owner. Remote units go
// through the transport's batching; local units are kept for the worker's
// queue for the job (q).
func (e *Engine) dispatch(me *worker, q *workerJQ, t task.Task, node graph.NodeID) {
	// The draw comes from a copy of the generator that is kept only if the
	// gate let the unit through: the gate uses no randomness, so the
	// placements past it are one stream however often it fired. The gate
	// reads the queue's spare (steal.go); a shared queue is not gated.
	rng := me.rng
	owner := ownerOf(node, q.js.owners, len(e.workers))
	dst, kept := place(rng.Uint64(), q.spare, batchK, e.control.TDF(),
		me.id, owner, len(e.workers), me.sched.shared)
	if kept {
		me.n[obs.CUnitsKeptLocal]++
	} else {
		me.rng = rng
	}
	if dst == me.id {
		if !kept && owner >= 0 && owner != me.id {
			me.n[obs.CUnitsKeptOffBlock]++
		}
		e.keep(me, q, t)
		return
	}
	e.send(me, dst, t)
}
