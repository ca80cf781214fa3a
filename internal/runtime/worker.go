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
	// next task's CSR row between items. batchPos/batchLen let a worker
	// restart (runWorkerGuarded) requeue the not-yet-started tail so a
	// mid-batch crash strands no tasks.
	batch    []task.Task
	batchPos int
	batchLen int

	// kept holds the units this worker placed on itself since its last cycle
	// start (Engine.keep), inbox the scratch its receive side and a steal's
	// drain of a peer's ring land in, and stale the job of a stale pop since
	// the last cycle start: the trigger to steal (steal.go).
	kept  []task.Task
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

	// Diagnostics outside the ledger: plain fields on the hot path, mirrored
	// into pub by publish at flush/park/exit boundaries (stolen, the tasks
	// this worker took from peers, as tasks_stolen; bagsOpened and
	// driftReports as bags_opened and drift_reports; keptLocal, the units the
	// dispatch gate held back, as units_kept_local; baggedTasks, the tasks
	// put in bags, as tasks_bagged).
	bags         int64
	bagsOpened   int64
	edges        int64
	idleParks    int64
	redirects    int64
	driftReports int64
	keptLocal    int64
	baggedTasks  int64
	stolen       int64

	// Scheduling-quality accounting (obs-gated: all five stay untouched
	// when no recorder is attached). popCount strides the sampler at the
	// recorder's task-sample mask; the rest accumulate the sampled rank
	// errors Snapshot and the bench gate read. For strict kinds the sample
	// is a Peek-after-pop structural canary (any inversion is a queue bug);
	// for multiqueue it is the sharded-witness rank estimate.
	popCount    int64
	rankSamples int64
	inversions  int64
	rankErrSum  int64
	rankErrMax  int64

	// parked is set while the worker blocks in the park/wake handshake
	// (Snapshot's WorkerStats.Parked, and so StallError, read it).
	parked atomic.Bool

	// pub is the worker's counter row, indexed by obs.Counter and the one
	// home of every count the worker causes: its own pubLocal normally, or
	// the attached recorder's row for this worker. Sharing the row means an
	// enabled recorder costs the per-task path no atomics beyond the ones the
	// engine already pays, and the recorder's view of these counters is
	// exactly the engine's. The worker is the only writer of every slot but
	// overflow_spills, which senders add to (transport.go): the four ledger
	// terms at settle, quarantines and restarts where they happen, the drift
	// plane's clamped reports and TDF steps in Report, the rest in publish.
	pub      *obs.Row
	pubLocal obs.Row

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

// publish mirrors the worker-local diagnostics into their atomic shadows (the
// ledger's terms publish at settle, the rank counters at each sample).
func (me *worker) publish() {
	me.pub[obs.CBagsCreated].Store(me.bags)
	me.pub[obs.CBagsOpened].Store(me.bagsOpened)
	me.pub[obs.CEdgesExamined].Store(me.edges)
	me.pub[obs.CIdleParks].Store(me.idleParks)
	me.pub[obs.COverflowRedirects].Store(me.redirects)
	me.pub[obs.CDriftReports].Store(me.driftReports)
	me.pub[obs.CTasksStolen].Store(me.stolen)
	me.pub[obs.CTasksBagged].Store(me.baggedTasks)
	me.pub[obs.CUnitsKeptLocal].Store(me.keptLocal)
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
	me.pub[obs.CQueueFallbacks].Store(fallbacks)
}

// park blocks the worker until work is submitted or the engine stops, and
// reports whether the worker should keep running.
func (e *Engine) park(me *worker) bool {
	me.idleParks++
	// The caller has settled; publish() flushes the remaining counter slots
	// (parks, edges, bags), so the recorder is fully caught up whenever the
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
// caller holds the worker's lock: cycleStart (kept units, arrivals, a steal),
// a restart's requeue, a pre-start seed.
func (e *Engine) push(me *worker, t task.Task) {
	js := e.jobStateFor(t.Job)
	q := me.sched.queue(js)
	if js.cancelled.Load() {
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
// the per-task isolation in processOne — an engine-internal bug, not a task
// handler fault. It reports true on a clean (stop-requested) exit and false
// when the loop died and should be restarted. Accounting already performed
// by the interrupted iteration is preserved (counters are monotone and the
// outstanding ledger is adjusted before work becomes visible), so a restart
// can at worst re-deliver the interrupted task's siblings, never lose the
// count that lets Drain terminate.
func (e *Engine) runWorkerGuarded(id int) (clean bool) {
	defer func() {
		if r := recover(); r != nil {
			clean = false
			e.workers[id].pub[obs.CWorkerRestarts].Add(1)
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
		// Counters first, then the deferred retirements: a reader that sees
		// outstanding drop must already see the totals behind it.
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

		me.batchLen = n
		for i := 0; i < n; i++ {
			me.batchPos = i
			if i+1 < n {
				e.prefetchRow(me, me.batch[i+1])
			}
			t := me.batch[i]
			q := me.sched.queue(e.jobStateFor(t.Job))
			if t.Node == bagMarker {
				e.openBag(me, q, t)
			} else {
				e.processOne(me, q, t)
			}
		}
		me.batchLen = 0
		// Settle the batch's accumulated retirements in one shared atomic per
		// counter — the batched loop's other throughput lever besides the
		// prefetch: up to batchK childless tasks retire for the price of one
		// outstanding.Add (and one processed-count store) instead of one each.
		e.settle(me)

		if me.tasks-me.flushedAt >= flushInterval && e.transport.Pending(id) > 0 {
			e.flush(me)
			me.publish()
		}
	}
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
		me.batch[n] = t
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
	me.rankSamples++
	js := q.js
	js.rankSamples.Add(1)
	if rank > 0 {
		me.inversions++
		me.rankErrSum += rank
		if rank > me.rankErrMax {
			me.rankErrMax = rank
		}
		js.inversions.Add(1)
		js.rankErrSum.Add(rank)
		for {
			cur := js.rankErrMax.Load()
			if rank <= cur || js.rankErrMax.CompareAndSwap(cur, rank) {
				break
			}
		}
	}
	me.pub[obs.CRankSamples].Store(me.rankSamples)
	me.pub[obs.CPrioInversions].Store(me.inversions)
	me.pub[obs.CRankErrSum].Store(me.rankErrSum)
	me.pub[obs.CRankErrMax].Store(me.rankErrMax)
	e.obs.Event(me.id, obs.EvRankSample, rank, t.Prio, int64(js.id))
}

// prefetchRow touches the next batched task's CSR row bounds (in its job's
// graph) so the offset line is resident by the time processing reaches that
// task. The summed loads land in prefetchSink to keep them alive past the
// optimizer.
func (e *Engine) prefetchRow(me *worker, t task.Task) {
	if t.Node == bagMarker {
		return
	}
	off := e.jobStateFor(t.Job).off
	if i := int(t.Node); i+1 < len(off) {
		me.prefetchSink = off[i] + off[i+1]
	}
}

// openBag resolves a popped bag marker against its creator's payload store
// and runs the payload inline.
func (e *Engine) openBag(me *worker, q *workerJQ, t task.Task) {
	st := &e.workers[int(t.Data>>32)].store
	s := st.get(uint32(t.Data))
	me.bagsOpened++
	if rec := e.obs; rec != nil {
		rec.Event(me.id, obs.EvBagOpened, int64(len(s.tasks)), 0, 0)
	}
	for _, bt := range s.tasks {
		e.processOne(me, q, bt)
	}
	// The marker's pop paid for one task, but len(s.tasks) were just retired:
	// the job's fairness balance owes the rest.
	me.sched.charge(q, int64(len(s.tasks))-1)
	st.release(s)
	me.led.retireBag(q)
}

// runTask executes one task handler under the panic-isolation recover: a
// panicking handler yields its recover() value instead of killing the
// worker. The open-coded defer keeps the no-panic cost to a few
// nanoseconds, which is the whole fault layer's hot-path footprint.
func (e *Engine) runTask(me *worker, js *jobState, t task.Task) (edges int, pv any) {
	defer func() {
		if r := recover(); r != nil {
			pv = r
		}
	}()
	return js.w.Process(t, me.emit), nil
}

// handleFault quarantines one task whose handler panicked: the children it
// emitted before the panic are discarded (a task's effects land whole or not
// at all), and the task retires into the poison list, keeping both
// conservation ledgers balanced so Drain still terminates.
func (e *Engine) handleFault(me *worker, js *jobState, t task.Task, pv any) {
	me.children = me.children[:0]
	e.faults.quarantine(t, me.id, pv)
	me.pub[obs.CTasksQuarantined].Add(1)
	if rec := e.obs; rec != nil {
		rec.Event(me.id, obs.EvQuarantine, t.Prio, int64(js.id), 0)
	}
	// The quarantine record is in the ledger and this worker's totals are
	// published (settle) before the task leaves the outstanding counts at
	// once, per job first, then globally — the ledger's publication order,
	// without waiting for the batch boundary.
	js.quarantined.Add(1)
	e.settle(me)
	js.outstanding.Add(-1)
	e.account(-1)
}

// processOne executes one task and distributes its children. q is the
// worker's queue for the task's job: its ledger delta accumulator, and the
// queue whose length gates dispatch.
func (e *Engine) processOne(me *worker, q *workerJQ, t task.Task) {
	js := q.js
	me.children = me.children[:0]
	edges, pv := e.runTask(me, js, t)
	if pv != nil {
		e.handleFault(me, js, t, pv)
		return
	}
	if edges == 0 {
		// A stale pop: a better path reached the node first, so this worker
		// is behind on the job (steal.go).
		me.stale = js
	}
	me.edges += int64(edges)
	me.tasks++
	// The task's retirement and its children go into the worker's deferred
	// deltas only: no shared line is touched here (ledger.go says when they
	// settle).
	me.led.retire(q)
	// With a recorder attached pub IS the recorder's row for this worker, so
	// only the sampled trace path remains to record here, with an edge-count
	// refresh so the total lags by at most one sample stride.
	if m := e.obsMask; m >= 0 && me.tasks&m == 0 {
		me.pub[obs.CEdgesExamined].Store(me.edges)
		e.obs.Event(me.id, obs.EvTask, t.Prio, me.tasks, me.edges)
	}

	if len(me.children) > 0 {
		// Children inherit the parent's tenant: identity flows with the
		// work, so every spawned task is billed to the job that created it.
		for i := range me.children {
			me.children[i].Job = t.Job
		}
		bags, singles := me.part.Partition(me.children, e.cfg.Bags, me.newBagID)
		bagged := int64(countTasks(bags))
		me.baggedTasks += bagged
		me.led.spawn(q, int64(len(bags))+bagged+int64(len(singles)))
		for _, b := range bags {
			me.bags++
			s := me.store.get(uint32(b.ID))
			s.tasks = append(s.tasks[:0], b.Tasks...)
			if rec := e.obs; rec != nil {
				// The bags counter flows through the shared pub row at
				// publish points; only the trace event is recorded here.
				rec.Event(me.id, obs.EvBagCreated, b.Prio, int64(len(b.Tasks)), 0)
			}
			e.dispatch(me, q, task.Task{Node: bagMarker, Job: t.Job, Prio: b.Prio, Data: b.ID})
		}
		for _, c := range singles {
			e.dispatch(me, q, c)
		}
	}

	// Drift reporting (Algorithm 3's send threshold).
	if me.tasks-me.reportedAt >= e.sampleInterval {
		me.reportedAt = me.tasks
		me.driftReports++
		e.control.Report(me.id, js.id, t.Prio)
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
// says, under the job's effective TDF: the drift controller's global signal
// and the job's TDFBias. Remote units go through the transport's batching;
// local units are kept for the worker's queue for the job (q).
func (e *Engine) dispatch(me *worker, q *workerJQ, t task.Task) {
	// The draw comes from a copy of the generator that is kept only if the
	// gate let the unit through: the gate uses no randomness, so the
	// placements past it are one stream however often it fired. The gate
	// reads the queue's spare (steal.go); a shared queue is not gated.
	rng := me.rng
	dst, kept := place(rng.Uint64(), q.spare, batchK, e.control.TDF(), q.js.tdfBias,
		me.id, len(e.workers), me.sched.shared)
	if kept {
		me.keptLocal++
	} else {
		me.rng = rng
	}
	if dst == me.id {
		e.keep(me, q, t)
		return
	}
	e.send(me, dst, t)
}
