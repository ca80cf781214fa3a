package runtime

// Engine is the long-lived form of the native runtime: a worker fleet that
// accepts externally submitted work while running, quiesces without dying,
// and only exits on Stop. The one-shot Run keeps its historical signature
// as a thin wrapper (Start → Submit(InitialTasks) → Drain → Stop).
//
// Layering: the engine owns the worker loop and the outstanding-task
// accounting; inter-worker transfer lives behind Transport (transport.go),
// the private priority queue behind LocalQueue (localq.go), bag payloads in
// payloadStore (payload.go), and drift/TDF policy in controlPlane
// (control.go).
//
// Termination protocol (epoch-aware): every task in the system is counted
// in `outstanding`, and the count for a task's children is added before any
// child becomes visible to another worker (workers settle their deferred
// ledger deltas before they ship — see worker.acct), so outstanding can never
// dip to zero while work exists. A worker that finds outstanding == 0 does not
// exit — it parks on the fleet's condition variable. Submit increments
// outstanding, publishes the tasks through the transport, advances the
// submission epoch, and broadcasts; because the parked worker re-checks
// outstanding under the same lock the broadcast takes, a Submit can never
// slip between the check and the wait (no lost wakeup). Stop sets the stop
// flag and broadcasts, which is the only way a parked worker exits.

import (
	"context"
	"errors"
	"fmt"
	"io"
	stdruntime "runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdcps/internal/bag"
	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// ErrStopped is returned by Submit and Drain once Stop has been requested.
var ErrStopped = errors.New("runtime: engine stopped")

// Engine lifecycle states.
const (
	stateNew int32 = iota
	stateRunning
	stateStopping
	stateStopped
)

// bagMarker tags a ring task as bag metadata (node IDs never reach 2^32-1).
const bagMarker = ^graph.NodeID(0)

// Engine is a running instance of the native HD-CPS scheduler. Construct
// with NewEngine, then Start; Submit/Drain/Snapshot may be called from any
// goroutine while it runs. A single workload instance must not be shared
// across simultaneous engines.
type Engine struct {
	cfg       Config
	w         workload.Workload
	transport Transport
	// rt is the devirtualized view of the default transport: non-nil when
	// transport is the stock ringTransport, letting the worker loop make
	// direct (inlinable) calls instead of paying interface dispatch on
	// every iteration. Custom transports take the interface path.
	rt      *ringTransport
	control *controlPlane
	workers []worker
	// obs is the optional observability recorder (Config.Obs). Every
	// recording site is guarded by one nil check, so a disabled engine pays
	// a single predictable branch and allocates nothing.
	obs *obs.Recorder
	// obsMask caches obs.SampleMask() (-1 when obs is nil or task events
	// are disabled) so the per-task sampling test is one load and branch.
	obsMask int64

	sampleInterval int64

	// jobs is the COW tenant table, indexed by task.JobID. Job 0 is the
	// workload the engine was constructed over; NewJob appends under jobMu
	// and publishes a fresh slice, so readers (every worker, every Submit)
	// pay one atomic pointer load and never lock. Jobs are never removed —
	// a JobID stays valid for the engine's lifetime.
	jobs  atomic.Pointer[[]*jobState]
	jobMu sync.Mutex

	// outstanding counts every task (and bag) emitted but not yet fully
	// processed; zero means the system is quiescent.
	outstanding atomic.Int64
	// submitted counts externally injected tasks — the left side of the
	// conservation ledger (see fault.go). Incremented before outstanding so
	// an observer that sees the work also sees its ledger entry.
	submitted atomic.Int64
	// epoch counts Submit calls; parked workers wake when it advances.
	epoch atomic.Uint64
	stop  atomic.Bool
	state atomic.Int32

	// faults is the panic-isolation ledger: retry attempts, the poison-task
	// quarantine, and worker-restart counts (fault.go).
	faults faultState

	mu   sync.Mutex // guards the park/wake handshake
	cond *sync.Cond

	quiet chan struct{} // signaled when outstanding reaches zero
	done  chan struct{} // closed when every worker has exited
	wg    sync.WaitGroup

	startedAt time.Time
	elapsed   time.Duration // set by the monitor before done closes
}

type worker struct {
	id  int
	eng *Engine // backref for the queue shims and the guarded restart path

	// jqs is the worker's per-job queue set, indexed by task.JobID and
	// materialized lazily on a job's first local task. act is the round-robin
	// ring of jobs with queued work; the batch fill rotates over it with a
	// deficit-round-robin balance per queue (workerJQ.deficit, deposited
	// weight*drrQuantum per visit, charged per retired task), which is the
	// job-level scheduling layer: weighted fair task shares across tenants,
	// task-priority order within each tenant's queue. Only this worker's
	// goroutine touches any of it (pre-start submits run under the fleet
	// lock before workers exist).
	jqs    []*workerJQ
	act    []*workerJQ
	actPos int
	cur    *workerJQ
	// dirtyJQ is the set of job queues holding unflushed ledger deltas,
	// drained at batch boundaries (flushBatchAccts).
	dirtyJQ []*workerJQ
	// nJobs is how many entries of the engine's job table this worker has
	// registered (multiqueue only: shared structures make job activation
	// non-local, so every known job stays active — see syncJobs).
	nJobs int
	// mqKind notes the multiqueue regime once, off the engine config.
	mqKind bool

	// rng is held by value: separately allocated 8-byte generators would
	// share a cache line across workers, and dispatch draws from it per child.
	rng graph.RNG

	// batch is the dequeue batch (Config.BatchK): the loop pops up to
	// len(batch) tasks and processes them back to back, prefetching the
	// next task's CSR row between items. batchPos/batchLen let a worker
	// restart (runWorkerGuarded) requeue the not-yet-started tail so a
	// mid-batch crash strands no tasks.
	batch    []task.Task
	batchPos int
	batchLen int

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

	// Run-local counters: plain fields on the hot path, mirrored into the
	// pub* atomics at flush/park/exit boundaries so Snapshot can read them
	// race-free while the worker runs. spawned and bagsRetired are the
	// conservation ledger's add/retire sides and are additionally stored
	// before the outstanding-count transition that makes them observable,
	// so the ledger is exact at quiescence (fault.go). keptLocal and
	// baggedTasks are plain diagnostics summed at Result, once the worker
	// has exited: children the dispatch gate held back, tasks put in bags.
	processed   int64
	bags        int64
	edges       int64
	idleParks   int64
	spawned     int64
	bagsRetired int64
	cancelled   int64 // tasks discarded into the cancellation ledger sink
	redirects   int64
	keptLocal   int64
	baggedTasks int64
	sinceReport int64
	sinceFlush  int

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

	// acct accumulates this worker's pending change to the shared outstanding
	// count — spawned-1 per processed task, -1 per unpacked bag or discarded
	// task — and flushBatchAccts settles it, with the per-job deltas
	// (workerJQ.d*), in one atomic add per counter at the batch boundary, on
	// idle entry and on worker exit. Both signs are deferred, so one rule
	// carries the termination invariant: settle before any call that can make
	// a task visible to another worker. Local pushes of the strict queue kinds
	// show nothing; Engine.send settles before a Send that completes a
	// destination batch (every Send of a custom Transport), every flush site
	// follows flushBatchAccts, and Engine.push settles before a push into a
	// shared multiqueue. Until it settles, a worker's whole popped batch is
	// still counted, so outstanding (and each job's) can read low by at most
	// one batch's spawn per worker but never zero while work exists and never
	// negative — which is also why handleFault's immediate -1 is safe.
	// runWorker's exit path settles, so a panic cannot strand the count.
	acct int64

	// parked is set while the worker blocks in the park/wake handshake
	// (StallError diagnostics read it).
	parked atomic.Bool

	// pub is the row of atomic shadows the loop publishes into, indexed by
	// obs.Counter: the worker's own pubLocal normally, or the attached
	// recorder's row for this worker when observability is on. Sharing the
	// row means an enabled recorder costs the per-task path no atomics
	// beyond the ones the engine already pays, and the recorder's view of
	// these counters is exactly the engine's. The worker is the only writer
	// of the slots it publishes.
	pub      *obs.Row
	pubLocal obs.Row

	// prefetchSink receives the batched loop's CSR-offset loads; writing
	// them to a field keeps the loads from being dead-code-eliminated.
	prefetchSink uint32

	_pad [4]int64 // reduce false sharing between workers
}

// jobQueue returns this worker's queue for the given job, materializing it
// on first use. Only the owning worker (or a pre-start Submit under the
// fleet lock) calls it.
func (me *worker) jobQueue(js *jobState) *workerJQ {
	id := int(js.id)
	if id >= len(me.jqs) {
		grown := make([]*workerJQ, id+1)
		copy(grown, me.jqs)
		me.jqs = grown
	}
	if q := me.jqs[id]; q != nil {
		return q
	}
	q := newWorkerJQ(me.eng.cfg, js)
	me.jqs[id] = q
	return q
}

// activate adds a job queue to the round-robin ring; deactivate removes it
// (swap-delete: the ring is small and order across rounds is what matters).
func (me *worker) activate(q *workerJQ) {
	if !q.active {
		q.active = true
		me.act = append(me.act, q)
	}
}

func (me *worker) deactivate(q *workerJQ) {
	if !q.active {
		return
	}
	q.active = false
	for i, x := range me.act {
		if x == q {
			last := len(me.act) - 1
			me.act[i] = me.act[last]
			me.act[last] = nil
			me.act = me.act[:last]
			if me.actPos >= last && last > 0 {
				me.actPos = 0
			}
			break
		}
	}
	if me.cur == q {
		me.cur = nil
	}
}

// syncJobs registers every job the engine knows into this worker's active
// ring (multiqueue only). Shared structures make activation non-local —
// another worker's push is invisible to this worker's handle until a pop
// finds it — so under multiqueue every live job stays active and the batch
// fill's miss counter provides idle detection instead.
func (me *worker) syncJobs(e *Engine) {
	jobs := *e.jobs.Load()
	if me.nJobs == len(jobs) {
		return
	}
	for _, js := range jobs[me.nJobs:] {
		q := me.jobQueue(js)
		if !js.cancelled.Load() {
			me.activate(q)
		}
	}
	me.nJobs = len(jobs)
}

// markDirty queues a job queue's deferred ledger deltas for the next
// batch-boundary flush.
func (me *worker) markDirty(q *workerJQ) {
	if !q.dirty {
		q.dirty = true
		me.dirtyJQ = append(me.dirtyJQ, q)
	}
}

// qpush and qpop are the single-queue-era shims the restart-requeue path and
// white-box tests still use: push routes through the engine's job-aware push
// (cancellation check included), pop sweeps the job queues in table order
// ignoring fairness credit (tests only — the hot path batch fill is
// fillBatch).
func (me *worker) qpush(t task.Task) {
	me.eng.push(me, t)
}

func (me *worker) qpop() (task.Task, bool) {
	for _, q := range me.jqs {
		if q == nil {
			continue
		}
		if t, ok := q.pop(); ok {
			return t, ok
		}
	}
	return task.Task{}, false
}

// publish mirrors the worker-local counters into their atomic shadows.
func (me *worker) publish() {
	me.pub[obs.CTasksProcessed].Store(me.processed)
	me.pub[obs.CBagsCreated].Store(me.bags)
	me.pub[obs.CEdgesExamined].Store(me.edges)
	me.pub[obs.CIdleParks].Store(me.idleParks)
	me.pub[obs.CTasksSpawned].Store(me.spawned)
	me.pub[obs.CBagsRetired].Store(me.bagsRetired)
	me.pub[obs.CTasksCancelled].Store(me.cancelled)
	me.pub[obs.COverflowRedirects].Store(me.redirects)
	var fallbacks int64
	for _, q := range me.jqs {
		if q != nil && q.tl != nil && q.tl.FellBack() {
			fallbacks++
		}
	}
	me.pub[obs.CQueueFallbacks].Store(fallbacks)
	me.pub[obs.CRankSamples].Store(me.rankSamples)
	me.pub[obs.CPrioInversions].Store(me.inversions)
	me.pub[obs.CRankErrSum].Store(me.rankErrSum)
	me.pub[obs.CRankErrMax].Store(me.rankErrMax)
}

// NewEngine builds an engine over w (which is Reset) with cfg defaults
// applied; w becomes job 0, the engine's default tenant. Register further
// tenants with NewJob. The engine is inert until Start.
func NewEngine(w workload.Workload, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	w.Reset()
	e := &Engine{
		cfg:     cfg,
		w:       w,
		workers: make([]worker, cfg.Workers),
		control: newControlPlane(cfg),
		obs:     cfg.Obs,
		quiet:   make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	e.sampleInterval = e.control.SampleInterval()
	// w was already Reset above; NewJob would Reset it again, so seed the
	// table directly.
	jobs := []*jobState{newJobState(0, w, cfg.DefaultJob, cfg)}
	e.jobs.Store(&jobs)
	if cfg.NewTransport != nil {
		e.transport = cfg.NewTransport(cfg)
	} else {
		e.transport = NewDefaultTransport(cfg)
	}
	e.rt, _ = e.transport.(*ringTransport)
	for i := range e.workers {
		me := &e.workers[i]
		me.id = i
		me.eng = e
		me.mqKind = cfg.QueueKind == QueueMultiQueue
		me.rng = *graph.NewRNG(cfg.Seed + uint64(i)*0x9e3779b9)
		me.batch = make([]task.Task, cfg.BatchK)
		me.children = make([]task.Task, 0, 16)
		// One closure for the whole engine, so Process calls do not allocate
		// a fresh emit callback per task.
		me.emit = func(c task.Task) { me.children = append(me.children, c) }
		me.newBagID = func() uint64 {
			return uint64(me.id)<<32 | uint64(me.store.alloc().idx)
		}
		me.pub = &me.pubLocal
		if rec := cfg.Obs; rec != nil {
			me.pub = rec.Row(i)
		}
	}
	if cfg.Obs != nil {
		e.obsMask = cfg.Obs.SampleMask()
	} else {
		e.obsMask = -1
	}
	return e
}

// Start launches the worker fleet. It returns an error if the engine was
// already started.
func (e *Engine) Start() error {
	// The state transition happens under the fleet lock so a pre-start
	// Submit (which seeds worker queues directly) cannot interleave with
	// worker launch.
	e.mu.Lock()
	ok := e.state.CompareAndSwap(stateNew, stateRunning)
	e.mu.Unlock()
	if !ok {
		return errors.New("runtime: engine already started")
	}
	e.startedAt = time.Now()
	for i := range e.workers {
		e.wg.Add(1)
		go func(id int) {
			defer e.wg.Done()
			// Label the goroutine so CPU/goroutine profiles attribute samples
			// per worker (pprof labels cost nothing off the profiling path).
			pprof.Do(context.Background(),
				pprof.Labels("hdcps_worker", strconv.Itoa(id)),
				func(context.Context) {
					// Last line of defense: a panic that escapes the per-task
					// recover (an engine or transport bug, not a task fn)
					// must not kill the worker — a dead worker strands its
					// queued tasks and wedges Drain. Restart the loop instead.
					for !e.runWorkerGuarded(id) {
					}
				})
		}(i)
	}
	go func() {
		e.wg.Wait()
		e.elapsed = time.Since(e.startedAt)
		close(e.done)
	}()
	return nil
}

// Submit injects tasks into the engine, waking any parked workers. It is
// safe to call from any number of goroutines, before or while the fleet
// runs. Tasks are spread round-robin across workers through the transport.
// Each task's Job field is honored (out-of-range IDs fold into job 0), so a
// resubmitted task stays billed to its tenant; per-job admission quotas and
// cancellation apply per job, all-or-nothing across the batch. Submitting to
// a stopped engine returns ErrStopped (tasks racing a concurrent Stop may be
// abandoned unprocessed, like all in-flight work).
func (e *Engine) Submit(ts ...task.Task) error {
	if len(ts) == 0 {
		return nil
	}
	if e.stop.Load() {
		return ErrStopped
	}
	jobs := *e.jobs.Load()
	// Fold bogus IDs into the default job in place, and detect the common
	// single-tenant batch so it pays no grouping.
	uniform := true
	for i := range ts {
		if int(ts[i].Job) >= len(jobs) {
			ts[i].Job = 0
		}
		if ts[i].Job != ts[0].Job {
			uniform = false
		}
	}
	if uniform {
		return e.submitJob(jobs[ts[0].Job], ts)
	}
	// Mixed batch: group per job, admission-check every group, then submit
	// group by group (all-or-nothing across the batch up to benign races
	// with concurrent submitters).
	groups := make(map[task.JobID][]task.Task)
	for _, t := range ts {
		groups[t.Job] = append(groups[t.Job], t)
	}
	for id, g := range groups {
		if err := e.admit(jobs[id], len(g)); err != nil {
			return err
		}
	}
	for id, g := range groups {
		if err := e.submitJob(jobs[id], g); err != nil {
			return err
		}
	}
	return nil
}

// admit runs a job's admission checks for a batch of n tasks without
// submitting anything.
func (e *Engine) admit(js *jobState, n int) error {
	if js.cancelled.Load() {
		return fmt.Errorf("runtime: job %d (%s): %w", js.id, js.name, ErrJobCancelled)
	}
	if q := js.quota; q > 0 {
		if out := js.outstanding.Load(); out+int64(n) > q {
			js.rejected.Add(int64(n))
			if rec := e.obs; rec != nil {
				rec.Add(obs.External, obs.CQuotaRejects, int64(n))
				rec.Event(obs.External, obs.EvQuotaReject, int64(n), int64(js.id), 0)
			}
			return &QuotaError{Job: js.id, Name: js.name, Limit: q, Outstanding: out, Tasks: n}
		}
	}
	return nil
}

// submitJob is the single-tenant submission path: admission, then the
// ledger entries (per-job and global, adds before visibility), then
// publication through the transport.
func (e *Engine) submitJob(js *jobState, ts []task.Task) error {
	if err := e.admit(js, len(ts)); err != nil {
		return err
	}
	if e.state.Load() == stateNew && e.submitIdle(js, ts) {
		return nil
	}
	// The ledger entries land first, then the counts, then the tasks are
	// published — preserving both the outstanding-never-falsely-zero
	// invariant and the conservation ledgers' at-quiescence exactness, per
	// job and globally.
	n := int64(len(ts))
	js.submitted.Add(n)
	js.outstanding.Add(n)
	e.submitted.Add(n)
	e.outstanding.Add(n)
	if rec := e.obs; rec != nil {
		rec.Add(obs.External, obs.CTasksSubmitted, n)
		rec.Event(obs.External, obs.EvSubmit, n, int64(js.id), 0)
	}
	if nw := len(e.workers); nw == 1 {
		e.transport.Inject(0, ts)
	} else {
		buckets := make([][]task.Task, nw)
		for i, t := range ts {
			d := i % nw
			buckets[d] = append(buckets[d], t)
		}
		for d, b := range buckets {
			if len(b) > 0 {
				e.transport.Inject(d, b)
			}
		}
	}
	e.epoch.Add(1)
	e.wakeAll()
	return nil
}

// submitIdle seeds ts straight into the worker queues while no worker is
// running yet (Submit before Start), skipping the transport round-trip the
// rings would charge. It re-checks the state under the fleet lock — Start
// transitions out of stateNew under the same lock — so a racing Start either
// sees the tasks already queued or makes this report false and the caller
// falls back to the transport path.
func (e *Engine) submitIdle(js *jobState, ts []task.Task) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state.Load() != stateNew {
		return false
	}
	n := int64(len(ts))
	js.submitted.Add(n)
	js.outstanding.Add(n)
	e.submitted.Add(n)
	e.outstanding.Add(n)
	if rec := e.obs; rec != nil {
		rec.Add(obs.External, obs.CTasksSubmitted, n)
		rec.Event(obs.External, obs.EvSubmit, n, int64(js.id), 0)
	}
	nw := len(e.workers)
	for i, t := range ts {
		me := &e.workers[i%nw]
		e.push(me, t)
	}
	e.epoch.Add(1)
	return true
}

// Drain blocks until the whole engine is quiescent — every task of every
// job, submitted or transitively generated, fully processed, quarantined, or
// cancelled — or ctx is cancelled, in which case it returns a *StallError
// wrapping ctx.Err() with per-worker diagnostics. With Config.StallTimeout
// set, a fleet that makes no progress for that long returns a *StallError
// wrapping ErrStalled even under a background context, so Drain can never
// block forever on a wedged engine. The fleet stays running (parked)
// afterwards; more work may be Submitted.
//
// This is the engine-wide wait: it spans all tenants, so one slow job holds
// it open. To wait on (or diagnose) a single tenant, use Job.Drain — its
// stall diagnostics carry the blocking job's ID and per-job ledger.
func (e *Engine) Drain(ctx context.Context) error {
	// Hot phase: quiescence usually lands within microseconds of the last
	// retired task, so poll briefly before arming timers.
	for spin := 0; spin < 256; spin++ {
		if e.outstanding.Load() == 0 {
			return nil
		}
		if e.stop.Load() {
			return ErrStopped
		}
		if err := ctx.Err(); err != nil {
			return e.stallError("drain", err)
		}
		stdruntime.Gosched()
	}
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	// Liveness watchdog: progress is any ledger movement (a retirement, a
	// quarantine, a new submission). A long-running task is progress-free
	// but legitimate, which is why the watchdog is opt-in per Config.
	lastProgress := time.Now()
	lastLedger := e.ledgerMark()
	for {
		if e.outstanding.Load() == 0 {
			return nil
		}
		if e.stop.Load() {
			return ErrStopped
		}
		if d := e.cfg.StallTimeout; d > 0 {
			if mark := e.ledgerMark(); mark != lastLedger {
				lastLedger = mark
				lastProgress = time.Now()
			} else if time.Since(lastProgress) > d {
				return e.stallError("drain", ErrStalled)
			}
		}
		select {
		case <-e.quiet:
		case <-tick.C:
		case <-ctx.Done():
			return e.stallError("drain", ctx.Err())
		}
	}
}

// ledgerMark folds the conservation ledger's moving parts into one value
// that changes whenever the engine makes progress.
func (e *Engine) ledgerMark() int64 {
	m := e.submitted.Load() + e.faults.nQuarantined.Load() + e.faults.panics.Load()
	for i := range e.workers {
		m += e.workers[i].pub[obs.CTasksProcessed].Load() + e.workers[i].pub[obs.CTasksCancelled].Load()
	}
	return m
}

// Stop asks the fleet to exit — parked workers wake and return, busy
// workers stop after their current task, abandoning unprocessed work (Drain
// first for a clean finish) — and waits for every worker to exit or ctx to
// be cancelled. A cancelled ctx makes Stop return promptly with a
// *StallError wrapping ctx.Err() (per-worker diagnostics attached) while
// workers keep winding down in the background; calling Stop again waits
// for them.
func (e *Engine) Stop(ctx context.Context) error {
	if e.state.CompareAndSwap(stateNew, stateStopped) {
		e.stop.Store(true)
		close(e.done) // never started: nothing to join
		return nil
	}
	e.state.CompareAndSwap(stateRunning, stateStopping)
	e.stop.Store(true)
	e.wakeAll()
	select {
	case <-e.done:
		e.state.Store(stateStopped)
		return nil
	case <-ctx.Done():
		return e.stallError("stop", ctx.Err())
	}
}

// wakeAll broadcasts to parked workers. Taking the lock orders the
// broadcast after any in-flight park decision, closing the lost-wakeup
// window.
func (e *Engine) wakeAll() {
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// park blocks the worker until work is submitted or the engine stops, and
// reports whether the worker should keep running.
func (e *Engine) park(me *worker) bool {
	me.idleParks++
	// publish() flushes every shared counter slot (parks, edges, bags), so
	// the recorder is fully caught up whenever the worker idles.
	me.publish()
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

// account adjusts the outstanding-task count and signals quiescence when it
// reaches zero. Positive deltas (new children) are added before the tasks
// are published, so a zero here always means a truly quiescent system.
func (e *Engine) account(delta int64) {
	if e.outstanding.Add(delta) == 0 {
		select {
		case e.quiet <- struct{}{}:
		default:
		}
	}
}

// recv, send, pending, and flush route the worker loop's per-iteration
// transport calls through the devirtualized rt when the stock transport is
// in use; a custom Transport pays the interface dispatch instead. send and
// flush absorb flow-control rejects: tasks a saturated destination bounced
// stay on the sending worker (spill-to-local). send also enforces the
// settle-before-ship rule; flush callers run flushBatchAccts first.
func (e *Engine) recv(id int, buf []task.Task) []task.Task {
	if e.rt != nil {
		return e.rt.Recv(id, buf)
	}
	return e.transport.Recv(id, buf)
}

func (e *Engine) send(me *worker, dst int, t task.Task) {
	var rej []task.Task
	if rt := e.rt; rt != nil {
		// Settle before ship (worker.acct): only the Send that completes the
		// destination's batch hands tasks to another worker.
		if len(rt.eps[me.id].out[dst])+1 >= rt.batch {
			e.flushBatchAccts(me)
		}
		rej = rt.Send(me.id, dst, t)
	} else {
		// A custom transport may deliver on any Send.
		e.flushBatchAccts(me)
		rej = e.transport.Send(me.id, dst, t)
	}
	if len(rej) > 0 {
		e.redirect(me, rej)
	}
}

func (e *Engine) pending(id int) int {
	if e.rt != nil {
		return e.rt.Pending(id)
	}
	return e.transport.Pending(id)
}

func (e *Engine) flush(me *worker) {
	var rej []task.Task
	if e.rt != nil {
		rej = e.rt.Flush(me.id)
	} else {
		rej = e.transport.Flush(me.id)
	}
	if len(rej) > 0 {
		e.redirect(me, rej)
	}
}

// redirect keeps flow-control-rejected tasks on the sending worker: they go
// into its own local queues instead of growing a saturated destination's
// overflow without bound. Outstanding accounting is untouched — the tasks
// were already counted when they were spawned (a cancelled job's bounce is
// discarded by push like any other arrival).
func (e *Engine) redirect(me *worker, ts []task.Task) {
	for _, t := range ts {
		e.push(me, t)
	}
	me.redirects += int64(len(ts))
	me.pub[obs.COverflowRedirects].Store(me.redirects)
	if rec := e.obs; rec != nil {
		rec.Event(me.id, obs.EvRedirect, int64(len(ts)), 0, 0)
	}
}

// push lands one arriving task (recv, redirect, requeue, local dispatch, or
// pre-start seed) in this worker's queue for the task's job — or, when the
// job is cancelled, discards it straight into the cancellation sink.
func (e *Engine) push(me *worker, t task.Task) {
	js := e.jobStateFor(t.Job)
	q := me.jobQueue(js)
	if js.cancelled.Load() {
		e.discard(me, q, t)
		return
	}
	if me.mqKind {
		// The shared structure shows the task to the fleet at once: settle
		// before ship (worker.acct).
		e.flushBatchAccts(me)
		q.push(t)
		return
	}
	q.push(t)
	me.activate(q)
}

// discard retires one unit of a cancelled job without executing it: a plain
// task counts one cancellation; a bag marker resolves its payload, counts
// every payload task as cancelled, and retires the bag itself. The ledger
// deltas are deferred to the batch boundary exactly like processing's
// (flushBatchAccts preserves the retirement-before-outstanding order).
func (e *Engine) discard(me *worker, q *workerJQ, t task.Task) {
	if t.Node == bagMarker {
		owner, idx := int(t.Data>>32), uint32(t.Data)
		st := &e.workers[owner].store
		s := st.get(idx)
		n := int64(len(s.tasks))
		st.release(s)
		me.cancelled += n
		me.bagsRetired++
		me.pub[obs.CBagsRetired].Store(me.bagsRetired)
		q.dCancelled += n
		q.dBagsRetired++
		q.dOut -= n + 1
		me.acct -= n + 1
	} else {
		me.cancelled++
		q.dCancelled++
		q.dOut--
		me.acct--
	}
	me.markDirty(q)
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
			e.faults.restarts.Add(1)
			if rec := e.obs; rec != nil {
				rec.Add(id, obs.CWorkerRestarts, 1)
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
		// outstanding drop must already see the retirement totals behind it.
		me.publish()
		e.flushBatchAccts(me)
	}()
	// A restarted worker may have died mid-batch: requeue the popped but
	// not-yet-started tail so the crash strands no tasks. The task at
	// batchPos was in flight when the loop died; like the pre-batching
	// single-task loop, its accounting was already preserved by processOne's
	// ordering, so only the untouched tail needs to go back.
	if me.batchLen > 0 {
		for _, t := range me.batch[me.batchPos+1 : me.batchLen] {
			e.push(me, t)
		}
		me.batchPos, me.batchLen = 0, 0
	}
	buf := make([]task.Task, 0, 64)
	idle, spin := 0, idleSpin()
	for {
		if e.stop.Load() {
			return
		}
		// Drain the receive side (ring + spilled batches) into the queues.
		buf = e.recv(id, buf[:0])
		for _, t := range buf {
			e.push(me, t)
		}

		// Batched dequeue: the job-level scheduler fills up to BatchK tasks
		// across the active jobs (deficit round robin), then the tasks are
		// processed back to back. The batch amortizes the stop/recv/flush
		// checks and gives the loop a known next task whose CSR row it can
		// prefetch; the cost is bounded priority relaxation (a child of
		// batch[i] cannot preempt batch[i+1:], at most BatchK-1 tasks of it).
		n := e.fillBatch(me)
		if n == 0 {
			// Cancellation sweeps may have retired work with no batch to
			// process: settle those deltas before deciding the fleet is idle,
			// or the counts they hold back would stall quiescence.
			e.flushBatchAccts(me)
			if e.pending(id) > 0 {
				// Out of local work: ship every partial batch before idling
				// so no task waits on this worker's buffers.
				e.flush(me)
				me.sinceFlush = 0
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
			// the stores: an empty-queue spin cannot change any counter.
			if idle == 0 {
				me.publish()
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
			q := me.jobQueue(e.jobStateFor(t.Job))
			if t.Node == bagMarker {
				owner, idx := int(t.Data>>32), uint32(t.Data)
				st := &e.workers[owner].store
				s := st.get(idx)
				if rec := e.obs; rec != nil {
					rec.Add(id, obs.CBagsOpened, 1)
					rec.Event(id, obs.EvBagOpened, int64(len(s.tasks)), 0, 0)
				}
				for _, bt := range s.tasks {
					e.processOne(id, me, q, bt)
				}
				// Charge the bag's contents to the job's fairness balance:
				// its pop charged one task, but len(s.tasks) were just
				// retired. The balance may go negative — debt the batch
				// fill's rotation collects before this job pops again.
				q.deficit -= int64(len(s.tasks)) - 1
				st.release(s)
				// Publish the bag's retirement before it leaves the
				// outstanding count, mirroring the processed count's ordering
				// (conservation ledger, global and per job).
				me.bagsRetired++
				me.pub[obs.CBagsRetired].Store(me.bagsRetired)
				q.dBagsRetired++
				q.dOut--
				me.markDirty(q)
				me.acct-- // the bag itself; flushed at the batch boundary
			} else {
				e.processOne(id, me, q, t)
			}
		}
		me.batchLen = 0
		// Flush the batch's accumulated retirements in one shared atomic per
		// counter — the batched loop's other throughput lever besides the
		// prefetch: up to BatchK childless tasks retire for the price of one
		// outstanding.Add (and one processed-count store) instead of one each.
		e.flushBatchAccts(me)

		if me.sinceFlush >= e.cfg.FlushInterval && e.pending(id) > 0 {
			e.flush(me)
			me.sinceFlush = 0
			me.publish()
		}
	}
}

// drrQuantum is the deficit-round-robin deposit per unit of job weight, in
// tasks, made each time the batch fill visits a queue. It is the fairness
// granularity: shares converge to the weight ratios over windows much larger
// than weight*drrQuantum, and a large opened bag's debt is repaid in
// debt/(weight*drrQuantum) visits instead of one visit per task (which would
// make the rotation spin thousands of iterations after every big bag on a
// single-tenant engine).
const drrQuantum = 32

// fillBatch is the job-level scheduling layer's pop site: it fills the
// worker's batch by rotating over the active jobs under deficit round robin.
// Each visit deposits weight*drrQuantum into the job's balance; each retired
// task withdraws one — including the tasks inside an opened bag, which are
// charged when the bag opens and can drive the balance negative (debt the
// job repays over later visits). When every contending job is backlogged,
// the task shares therefore converge to the weight shares regardless of how
// each tenant's work is packaged (singles vs bags) or how expensive its
// tasks are; task priority still rules within each job's queue. A queue
// that goes empty forfeits its balance — an unbacklogged tenant banks
// nothing. Cancelled jobs met on the way are swept into the cancellation
// sink without consuming batch slots.
func (e *Engine) fillBatch(me *worker) int {
	if me.mqKind {
		me.syncJobs(e)
	}
	n := 0
	misses := 0
	for n < len(me.batch) {
		q := me.cur
		if q == nil || q.deficit <= 0 || !q.active {
			if len(me.act) == 0 {
				break
			}
			me.actPos++
			if me.actPos >= len(me.act) {
				me.actPos = 0
			}
			q = me.act[me.actPos]
			me.cur = q
			q.deficit += q.js.weight * drrQuantum
			if max := q.js.weight * drrQuantum; q.deficit > max {
				// No banking: a queue visited while already flush holds at
				// most one quantum, so a briefly-idle tenant cannot burst.
				q.deficit = max
			}
			if q.deficit <= 0 {
				// Still repaying bag debt: the visit's deposit is the
				// repayment installment. Move on to the next job.
				me.cur = nil
				continue
			}
		}
		if q.js.cancelled.Load() {
			e.drainCancelled(me, q)
			me.cur = nil
			if me.mqKind && (q.dOut != 0 || q.js.outstanding.Load() != 0) {
				// Another worker may still be pushing this job's tasks into
				// the shared structure: keep the queue active so later
				// rounds sweep the stragglers; once the job's ledger is
				// empty no new task can appear and it can leave the ring.
				misses++
				if misses > len(me.act) {
					break
				}
				continue
			}
			me.deactivate(q)
			continue
		}
		t, ok := q.pop()
		if !ok {
			me.cur = nil
			if q.deficit > 0 {
				// Forfeit unspent balance (no banking while unbacklogged)
				// but never forgive debt — a bag-heavy tenant whose queue
				// momentarily drains still repays before its next turn.
				q.deficit = 0
			}
			if me.mqKind {
				// A shared-structure job is never deactivated on an empty
				// pop — another worker's push may be in flight. The miss
				// counter bounds the scan so an idle fleet still parks.
				misses++
				if misses > len(me.act) {
					break
				}
				continue
			}
			me.deactivate(q)
			continue
		}
		misses = 0
		q.deficit--
		if e.obsMask >= 0 {
			e.sampleRank(me, q, t)
		}
		me.batch[n] = t
		n++
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

// flushBatchAccts settles the worker's deferred ledger deltas (worker.acct):
// the worker's published totals first, then per job the spawn and retirement
// terms before the job's outstanding change, then the one global outstanding
// adjustment — so any reader that observes a count transition already sees
// every ledger term explaining it, per job and globally.
func (e *Engine) flushBatchAccts(me *worker) {
	if len(me.dirtyJQ) > 0 {
		me.pub[obs.CTasksSpawned].Store(me.spawned)
		me.pub[obs.CTasksProcessed].Store(me.processed)
		me.pub[obs.CBagsRetired].Store(me.bagsRetired)
		me.pub[obs.CTasksCancelled].Store(me.cancelled)
		for _, q := range me.dirtyJQ {
			js := q.js
			if q.dSpawned != 0 {
				js.spawned.Add(q.dSpawned)
				q.dSpawned = 0
			}
			if q.dProcessed != 0 {
				js.processed.Add(q.dProcessed)
				q.dProcessed = 0
			}
			if q.dBagsRetired != 0 {
				js.bagsRetired.Add(q.dBagsRetired)
				q.dBagsRetired = 0
			}
			if q.dCancelled != 0 {
				js.cancelledTasks.Add(q.dCancelled)
				q.dCancelled = 0
			}
			if q.dOut != 0 {
				js.outstanding.Add(q.dOut)
				q.dOut = 0
			}
			q.dirty = false
		}
		me.dirtyJQ = me.dirtyJQ[:0]
	}
	// Every site that moves acct also marks a queue dirty, so the totals
	// behind this adjustment were stored above.
	if me.acct != 0 {
		e.account(me.acct)
		me.acct = 0
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

// handleFault routes one caught handler panic: retry under the job's retry
// policy (JobConfig.Retry, falling back to Config.Retry; the task stays
// outstanding and goes back into this worker's queue) or quarantine (the
// task retires into the poison list, keeping both conservation ledgers
// balanced so Drain still terminates). Children emitted before the panic
// are discarded — a task's effects land exactly once, on the attempt that
// completes.
func (e *Engine) handleFault(id int, me *worker, js *jobState, t task.Task, pv any) {
	me.children = me.children[:0]
	policy := js.retryPolicy(e.cfg.Retry)
	attempt, retry := e.faults.recordPanic(t, id, pv, policy)
	if rec := e.obs; rec != nil {
		rec.Add(id, obs.CTaskPanics, 1)
		rec.Event(id, obs.EvPanic, t.Prio, int64(attempt), 0)
	}
	if retry {
		if rec := e.obs; rec != nil {
			rec.Add(id, obs.CTaskRetries, 1)
		}
		if b := policy.Backoff; b > 0 {
			// Served on the failing worker: panics are exceptional, so a
			// brief stall here beats a timer wheel on the happy path.
			time.Sleep(time.Duration(attempt) * b)
		}
		e.push(me, t) // still outstanding; retried by this worker
		return
	}
	if rec := e.obs; rec != nil {
		rec.Add(id, obs.CTasksQuarantined, 1)
		rec.Event(id, obs.EvQuarantine, t.Prio, int64(attempt), 0)
	}
	// The quarantine record is in the ledger (recordPanic) before the task
	// leaves the outstanding count, mirroring the processed count's ordering —
	// per job first, then globally.
	js.quarantined.Add(1)
	js.outstanding.Add(-1)
	me.pub[obs.CTasksProcessed].Store(me.processed)
	e.account(-1)
}

// processOne executes one task and distributes its children. q is the
// worker's queue for the task's job: its ledger delta accumulator, and the
// queue whose length gates dispatch.
func (e *Engine) processOne(id int, me *worker, q *workerJQ, t task.Task) {
	js := q.js
	me.children = me.children[:0]
	edges, pv := e.runTask(me, js, t)
	if pv != nil {
		e.handleFault(id, me, js, t, pv)
		return
	}
	if e.faults.retrying.Load() > 0 {
		// A prior attempt of this task may have panicked; forget its count
		// so the retry map only holds tasks still cycling. One atomic load
		// (of a line that is zero outside fault windows) on the hot path.
		e.faults.clearRetry(t)
	}
	me.edges += int64(edges)
	me.processed++
	q.dProcessed++
	q.dOut--
	me.markDirty(q)
	// With a recorder attached pub IS the recorder's row for this worker,
	// so only the sampled trace path remains to record here.
	if m := e.obsMask; m >= 0 && me.processed&m == 0 {
		e.obs.TaskSample(id, t.Prio, me.processed, me.edges)
	}

	// Account the new work and retire this task in the worker's deferred
	// deltas only: no shared line is touched here. flushBatchAccts settles
	// them at the batch boundary, or earlier when a child is about to become
	// visible to another worker (worker.acct states the rule).
	if len(me.children) > 0 {
		// Children inherit the parent's tenant: identity flows with the
		// work, so every spawned task is billed to the job that created it.
		for i := range me.children {
			me.children[i].Job = t.Job
		}
		bags, singles := me.part.Partition(me.children, e.cfg.Bags, me.newBagID)
		bagged := int64(countTasks(bags))
		spawned := int64(len(bags)) + bagged + int64(len(singles))
		me.spawned += spawned
		me.baggedTasks += bagged
		q.dSpawned += spawned
		q.dOut += spawned
		me.acct += spawned - 1
		for _, b := range bags {
			me.bags++
			s := me.store.get(uint32(b.ID))
			s.tasks = append(s.tasks[:0], b.Tasks...)
			if rec := e.obs; rec != nil {
				// The bags counter flows through the shared pub row at
				// publish points; only the trace event is recorded here.
				rec.Event(id, obs.EvBagCreated, b.Prio, int64(len(b.Tasks)), 0)
			}
			e.dispatch(id, me, q, task.Task{Node: bagMarker, Job: t.Job, Prio: b.Prio, Data: b.ID})
		}
		for _, c := range singles {
			e.dispatch(id, me, q, c)
		}
	} else {
		me.acct--
	}

	// Drift reporting (Algorithm 3's send threshold).
	me.sinceFlush++
	me.sinceReport++
	if me.sinceReport >= e.sampleInterval {
		me.sinceReport = 0
		e.control.Report(id, js.id, t.Prio)
	}
}

func countTasks(bags []bag.Bag) int {
	n := 0
	for _, b := range bags {
		n += len(b.Tasks)
	}
	return n
}

// dispatch routes one unit (task or bag metadata) to a destination chosen
// by the job's effective TDF: the drift controller's global signal scaled by
// the job's TDFBias (percent, capped at always-scatter). Remote units go
// through the transport's batching; local units go straight to the worker's
// queue for the job. Whatever the TDF, a unit stays local while that queue
// (q) holds fewer than BatchK tasks: a worker that cannot fill its own next
// dequeue batch has nothing to spare, and splitting a narrow frontier only
// buys re-relaxations. A multiqueue is shared already, so it skips the gate.
func (e *Engine) dispatch(id int, me *worker, q *workerJQ, t task.Task) {
	dst := id
	if n := len(e.workers); n > 1 {
		if !me.mqKind && q.queue.Len() < e.cfg.BatchK {
			me.keptLocal++
			e.push(me, t)
			return
		}
		tdf := e.control.TDF()
		if b := q.js.tdfBias; b != 100 {
			tdf = tdf * b / 100
			if tdf > 100 {
				tdf = 100
			}
		}
		dst = scatter(me.rng.Uint64(), tdf, id, n)
	}
	if dst == id {
		e.push(me, t)
		return
	}
	e.send(me, dst, t)
}

// scatter places one unit from a single 64-bit draw x: the low half decides
// the TDF test (remote with probability tdf percent), the high half picks
// the destination, uniform over the n-1 workers other than id. Each half is
// scaled by multiply-shift, so a placement costs one draw and no division.
func scatter(x uint64, tdf int64, id, n int) int {
	if int64(uint64(uint32(x))*100>>32) >= tdf {
		return id
	}
	d := int((x >> 32) * uint64(n-1) >> 32)
	if d >= id {
		d++
	}
	return d
}

// WorkerStats is one worker's Snapshot row.
type WorkerStats struct {
	Processed      int64 // tasks executed (bag payloads included)
	Bags           int64 // bags created by this worker
	OverflowSpills int64 // full-ring spills that landed at this worker
	IdleParks      int64 // times the worker parked on a quiescent fleet
	Redirects      int64 // flow-control bounces this worker kept local
}

// Snapshot is a cheap point-in-time view of a running engine: per-worker
// counters plus the live control-plane state.
//
// Coherence contract: TasksProcessed is published before a task's
// retirement can be observed in Outstanding, and Snapshot reads Outstanding
// before the counters, so for any snapshot
//
//	TasksProcessed + Outstanding >= tasks submitted before the call
//
// and once Drain has returned (Outstanding == 0 with no concurrent Submit),
// TasksProcessed is exact — a mid-drain snapshot can no longer under-count
// retired work. Outstanding itself may read low by the children a worker has
// spawned in its current dequeue batch and not yet settled (at most one
// batch's spawn per worker; never zero while work exists, never negative),
// and Spawned publishes at the same settle points, so in any snapshot
//
//	Submitted + Spawned >= TasksProcessed + BagsRetired + Quarantined + Cancelled
//
// (the add side may lag work in progress, the retire side never leads it).
// The remaining counters (Bags, EdgesExamined, spills, parks) are published
// at flush/park/idle boundaries and may lag by at most one flush interval.
type Snapshot struct {
	Epoch       uint64 // Submit calls so far
	Outstanding int64  // tasks submitted or spawned but not yet retired
	TDF         int    // current task-distribution factor (percent)

	TasksProcessed int64
	BagsCreated    int64
	EdgesExamined  int64

	// The conservation ledger (fault.go). At quiescence (Drain returned,
	// no concurrent Submit):
	//
	//	Submitted + Spawned == TasksProcessed + BagsRetired + Quarantined + Cancelled
	//
	// and Outstanding == 0 — the no-task-loss invariant the chaos harness
	// asserts at every checkpoint, globally and per job (Jobs).
	Submitted   int64 // tasks injected via Submit
	Spawned     int64 // children + bag units created by task processing
	BagsRetired int64 // bag units fully unpacked and retired
	Quarantined int64 // poison tasks retired into Engine.Quarantined
	Cancelled   int64 // tasks discarded by job-scoped Cancel (ledger sink)
	Redirects   int64 // flow-control bounces kept local (degradation signal)

	// Local-queue health (zero when QueueKind is not twolevel):
	// QueueFallbacks counts the per-job queues whose bucket ring migrated to
	// the heap because the resident priority span outgrew it. HotSpills is
	// always 0 — the ring has no hot buffer; benchmark/solve.go reads it.
	HotSpills      int64
	QueueFallbacks int64

	// Scheduling quality (obs-gated: all zero when Config.Obs is nil). The
	// engine samples the pop path at the recorder's task-sample stride and
	// asks how far the popped task strayed from the best observable work:
	// RankSamples counts sampled pops, PrioInversions the samples that were
	// not the observable minimum, RankErrorSum the summed rank estimates
	// (mean = sum / samples), RankErrorMax the worst single sample. Strict
	// kinds must report 0 inversions (structural canary); multiqueue
	// reports its bounded relaxation.
	RankSamples    int64
	PrioInversions int64
	RankErrorSum   int64
	RankErrorMax   int64

	Workers []WorkerStats
	// Jobs holds one ledger row per registered tenant, indexed by JobID
	// (job 0 is the engine's default workload). Each row carries the per-job
	// conservation equation documented on JobStats.
	Jobs []JobStats
}

// Snapshot reads the engine's counters without disturbing the workers.
// Safe from any goroutine at any lifecycle stage.
func (e *Engine) Snapshot() Snapshot {
	// Read order matters for the coherence contract: Outstanding first,
	// then the per-worker processed counters. A task retiring between the
	// two reads inflates TasksProcessed, never loses the task — each
	// worker stores its processed total before decrementing outstanding,
	// and sync/atomic's total order makes that store visible to any reader
	// that observed the decrement. The ledger's add side (Spawned,
	// Submitted) is read last for the same reason: a retirement is only
	// published after the spawn or submission behind it, so reading the
	// retire side first keeps it from leading the add side.
	jobs := *e.jobs.Load()
	s := Snapshot{
		Epoch:       e.epoch.Load(),
		Outstanding: e.outstanding.Load(),
		TDF:         int(e.control.TDF()),
		Quarantined: e.faults.nQuarantined.Load(),
		Workers:     make([]WorkerStats, len(e.workers)),
		Jobs:        make([]JobStats, len(jobs)),
	}
	for i, js := range jobs {
		s.Jobs[i] = js.stats()
	}
	for i := range e.workers {
		me := &e.workers[i]
		ws := WorkerStats{
			Processed:      me.pub[obs.CTasksProcessed].Load(),
			Bags:           me.pub[obs.CBagsCreated].Load(),
			OverflowSpills: e.transport.Spills(i),
			IdleParks:      me.pub[obs.CIdleParks].Load(),
			Redirects:      me.pub[obs.COverflowRedirects].Load(),
		}
		s.Workers[i] = ws
		s.TasksProcessed += ws.Processed
		s.BagsCreated += ws.Bags
		s.EdgesExamined += me.pub[obs.CEdgesExamined].Load()
		s.BagsRetired += me.pub[obs.CBagsRetired].Load()
		s.Cancelled += me.pub[obs.CTasksCancelled].Load()
		s.Redirects += ws.Redirects
		s.QueueFallbacks += me.pub[obs.CQueueFallbacks].Load()
		s.RankSamples += me.pub[obs.CRankSamples].Load()
		s.PrioInversions += me.pub[obs.CPrioInversions].Load()
		s.RankErrorSum += me.pub[obs.CRankErrSum].Load()
		if m := me.pub[obs.CRankErrMax].Load(); m > s.RankErrorMax {
			s.RankErrorMax = m
		}
	}
	for i := range e.workers {
		s.Spawned += e.workers[i].pub[obs.CTasksSpawned].Load()
	}
	s.Submitted = e.submitted.Load()
	return s
}

// Result returns the engine's cumulative metrics. It is exact once Stop has
// returned nil (every worker has flushed its counters); on a running engine
// it is the same lagged view Snapshot provides.
func (e *Engine) Result() Result {
	var res Result
	select {
	case <-e.done:
		res.Elapsed = e.elapsed
		// Plain worker-local counts: readable once every worker has exited.
		for i := range e.workers {
			me := &e.workers[i]
			res.BaggedTasks += me.baggedTasks
			res.KeptLocal += me.keptLocal
			res.Dispatched += me.spawned - me.baggedTasks
		}
	default:
		if e.state.Load() != stateNew {
			res.Elapsed = time.Since(e.startedAt)
		}
	}
	for i := range e.workers {
		me := &e.workers[i]
		res.TasksProcessed += me.pub[obs.CTasksProcessed].Load()
		res.BagsCreated += me.pub[obs.CBagsCreated].Load()
		res.EdgesExamined += me.pub[obs.CEdgesExamined].Load()
	}
	res.DriftClamped = e.control.Clamped()
	if hist := e.control.History(); len(hist) > 0 {
		res.DriftTrace = make([]float64, 0, len(hist))
		res.RefTrace = make([]int64, 0, len(hist))
		res.TDFTrace = make([]int, 0, len(hist))
		for _, rec := range hist {
			res.DriftTrace = append(res.DriftTrace, rec.Drift)
			res.RefTrace = append(res.RefTrace, rec.Ref)
			res.TDFTrace = append(res.TDFTrace, rec.TDF)
		}
	}
	return res
}

// Obs returns the engine's observability recorder (nil when Config.Obs was
// unset).
func (e *Engine) Obs() *obs.Recorder { return e.obs }

// Outstanding returns the engine-wide count of tasks submitted or spawned
// but not yet retired — one atomic load, cheap enough for admission checks
// on every request (the serving front-end's global load shed keys off it).
func (e *Engine) Outstanding() int64 { return e.outstanding.Load() }

// ControlTrace returns the control plane's time series so far: one point
// per controller interval with the measured drift, the reference priority,
// and the TDF chosen for the next interval. Safe to call while the fleet
// runs; this is the time-series replacement for reading Snapshot.TDF in a
// loop.
func (e *Engine) ControlTrace() []obs.ControlPoint { return e.control.Series() }

// WriteTrace streams the engine's full observability state as JSONL
// (schema obs.TraceSchema): recorder meta, per-worker counters, per-job
// ledger rows, the retained event trace, and the control plane's
// drift/ref/TDF time series. Requires Config.Obs; without a recorder only
// the control series is written.
func (e *Engine) WriteTrace(w io.Writer) error {
	if e.obs != nil {
		if err := e.obs.WriteJSONL(w); err != nil {
			return err
		}
		jobs := *e.jobs.Load()
		stats := make([]JobStats, 0, len(jobs))
		for _, js := range jobs {
			stats = append(stats, js.stats())
		}
		if err := obs.WriteJobsJSONL(w, JobRows(stats)); err != nil {
			return err
		}
	}
	return obs.WriteControlJSONL(w, e.control.Series())
}

// JobRows adapts per-job ledger stats into the obs trace's job-row schema
// (one {"type":"job"} JSONL line per tenant; see obs.WriteJobsJSONL).
func JobRows(stats []JobStats) []obs.JobRow {
	rows := make([]obs.JobRow, 0, len(stats))
	for _, st := range stats {
		rows = append(rows, obs.JobRow{
			Job:            uint32(st.Job),
			Name:           st.Name,
			Weight:         st.Weight,
			Cancelled:      st.Cancelled,
			Outstanding:    st.Outstanding,
			Submitted:      st.Submitted,
			Spawned:        st.Spawned,
			Processed:      st.Processed,
			BagsRetired:    st.BagsRetired,
			Quarantined:    st.Quarantined,
			CancelledTasks: st.CancelledTasks,
			QuotaRejected:  st.QuotaRejected,
			RankSamples:    st.RankSamples,
			PrioInversions: st.PrioInversions,
			RankErrorSum:   st.RankErrorSum,
			RankErrorMax:   st.RankErrorMax,
		})
	}
	return rows
}
