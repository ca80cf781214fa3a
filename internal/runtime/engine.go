package runtime

// Engine is the native runtime: a worker fleet that accepts externally
// submitted work while running, quiesces without dying, and only exits on
// Stop. A one-shot solve is the same lifecycle driven by exec.RunJobs
// (Submit(InitialTasks) before Start → Drain → Stop).
//
// This file is the lifecycle — NewEngine, Start, Submit, Drain, Stop. The
// fleet it starts runs the worker loop (worker.go) over four units: the job
// scheduler (jobsched.go), the ledger (ledger.go), the placement rule
// (place.go) and the mechanism layers the package comment lists; Snapshot and
// the other read-side views are in snapshot.go.
//
// Termination protocol: every task in the system is counted in
// `outstanding`, and the count for a task's children is added before any
// child becomes visible to another worker (workers settle their deferred
// ledger deltas before they ship — see ledger.go), so outstanding can never
// dip to zero while work exists. A worker that finds outstanding == 0 does not
// exit — it parks on the fleet's condition variable and waits there while
// outstanding is zero. Submit increments outstanding, publishes the tasks
// through the transport, and broadcasts; because the parked worker re-checks
// outstanding under the same lock the broadcast takes, a Submit can never
// slip between the check and the wait (no lost wakeup). Stop sets the stop
// flag and broadcasts, which is the only way a parked worker exits. The
// submission epoch plays no part in it: it only spreads Submit's blocks over
// the fleet (firstWorker) and labels Snapshot and StallError.

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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

// Engine is a running instance of the native HD-CPS scheduler. Construct
// with NewEngine, then Start; Submit/Drain/Snapshot may be called from any
// goroutine while it runs. A single workload instance must not be shared
// across simultaneous engines.
type Engine struct {
	cfg       Config
	transport *ringTransport
	// steals is set when workers steal from each other (steal.go): a strict
	// queue kind and more than one worker.
	steals  bool
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
	jobs atomic.Pointer[[]*jobState]
	// stop is set once, by Stop; every worker loads it once a cycle, so it
	// sits with the read-mostly fields above.
	stop atomic.Bool

	// outstanding counts every task (and bag) emitted but not yet fully
	// processed; zero means the system is quiescent. Every worker's settle
	// writes it, so it has a cache line to itself, whatever the size of the
	// fields before it: on the line of the read-mostly fields each task
	// loads (jobs, obsMask, sampleInterval, stop), it cost sssp-road 6% more
	// CPU a task on a 2-vCPU VM. TestEngineCacheLines pins the layout.
	_           [64]byte
	outstanding atomic.Int64
	_           [56]byte
	// ext is the engine's external counter row: the serving front-end's
	// serve_* decisions, which arise in no worker; every worker count lives
	// in its worker's row, and every ledger term in its job (jobState).
	ext obs.Row
	// epoch counts Submit calls: where the next call's blocks start
	// (firstWorker), and a label in Snapshot and StallError.
	epoch atomic.Uint64
	state atomic.Int32
	jobMu sync.Mutex

	// faults is the poison-task list (fault.go); the quarantine and restart
	// counts live in the rows of the workers that caught them.
	faults faultState

	mu   sync.Mutex // guards the park/wake handshake
	cond *sync.Cond

	quiet chan struct{} // signaled when outstanding reaches zero
	done  chan struct{} // closed when every worker has exited
	wg    sync.WaitGroup
}

// NewEngine builds an engine over w (which is Reset) with cfg defaults
// applied; w becomes job 0, the engine's default tenant. Register further
// tenants with NewJob. The engine is inert until Start.
func NewEngine(w workload.Workload, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	w.Reset()
	e := &Engine{
		cfg:     cfg,
		workers: make([]worker, cfg.Workers),
		obs:     cfg.Obs,
		quiet:   make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	// Every count has one home: a worker's row, the engine's external row,
	// or, for a ledger term, its job. The transport counts spills into the
	// workers' rows.
	rows := make([]*obs.Row, cfg.Workers)
	for i := range e.workers {
		rows[i] = &e.workers[i].row
	}
	e.control = newControlPlane(cfg)
	e.sampleInterval = e.control.SampleInterval()
	// w was already Reset above; NewJob would Reset it again, so seed the
	// table directly.
	jobs := []*jobState{newJobState(0, w, cfg.DefaultJob, cfg)}
	e.jobs.Store(&jobs)
	e.transport = newRingTransport(cfg.Workers, ringSize, sendBatch, overflowCap, rows, cfg.Obs, cfg.Faults)
	// Every job of a stealing fleet has front slots (newJobState).
	e.steals = jobs[0].fronts != nil
	if e.steals {
		e.transport.shipped = e.shipped
	}
	for i := range e.workers {
		me := &e.workers[i]
		me.id = i
		me.sched.cfg = &e.cfg
		me.sched.self = i
		me.sched.shared = cfg.QueueKind == QueueMultiQueue
		me.rng = *graph.NewRNG(cfg.Seed + uint64(i)*0x9e3779b9)
		me.batch = make([]task.Task, batchK)
		me.batchQ = make([]*workerJQ, batchK)
		me.children = make([]task.Task, 0, 16)
		me.inbox = make([]task.Task, 0, 64)
		// One closure for the whole engine, so Process calls do not allocate
		// a fresh emit callback per task.
		me.emit = func(c task.Task) { me.children = append(me.children, c) }
		me.newBagID = func() uint64 {
			return uint64(me.id)<<32 | uint64(me.store.alloc().idx)
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
	// A Submit before Start left its tasks in the receive rings, where each
	// worker's first cycle start finds them, so nothing here races it.
	if !e.state.CompareAndSwap(stateNew, stateRunning) {
		return errors.New("runtime: engine already started")
	}
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
		close(e.done)
	}()
	return nil
}

// Submit injects tasks into the engine, waking any parked workers. It is
// safe to call from any number of goroutines, before or while the fleet
// runs. A call's tasks go through the transport in contiguous blocks, one a
// worker, starting at the worker the submission epoch points to
// (firstWorker); before Start they wait in the rings for each worker's
// first cycle start. A single-job batch that fits the rings allocates
// nothing (a mixed-job batch builds its per-job groups, and a block that
// overflows its ring parks in a fresh overflow node).
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
	// The ledger entries land first, then the tasks are published —
	// preserving both the outstanding-never-falsely-zero invariant and the
	// conservation ledgers' at-quiescence exactness, per job and globally.
	e.enter(js, int64(len(ts)))
	// Contiguous blocks, not a per-task deal: Inject copies each block into
	// its worker's ring, so a batch that fits the rings allocates nothing.
	// Block k goes to the
	// k-th worker from the epoch's, and the first len(ts)%nw blocks hold the
	// extra task, so each worker gets the count a round-robin deal would
	// give it.
	nw := len(e.workers)
	first, base, extra := e.firstWorker(), len(ts)/nw, len(ts)%nw
	for k, lo := 0, 0; lo < len(ts); k++ {
		hi := lo + base
		if k < extra {
			hi++
		}
		e.transport.Inject((first+k)%nw, ts[lo:hi])
		lo = hi
	}
	e.epoch.Add(1)
	e.wakeAll()
	return nil
}

// firstWorker is where a Submit call's spread starts: the submission
// epoch, so a stream of short calls (one-task Submits, an acked serve
// stream's flush-on-idle batches) spreads over the fleet instead of landing
// on worker 0 call after call.
func (e *Engine) firstWorker() int {
	return int(e.epoch.Load() % uint64(len(e.workers)))
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
	return e.waitQuiescent(ctx, &e.outstanding, e.ledgerMark,
		func(cause error) error { return e.stallError("drain", cause, nil) })
}

// waitQuiescent is the one wait behind Engine.Drain, Job.Drain and
// Job.Cancel: it blocks until out — the engine's outstanding count or one
// job's — reads zero, the engine stops, ctx ends, or (with
// Config.StallTimeout set) mark, the scope's progress value, has not moved
// for that long; stalled shapes the diagnostic for the last two.
func (e *Engine) waitQuiescent(ctx context.Context, out *atomic.Int64, mark func() int64, stalled func(cause error) error) error {
	// Hot phase: quiescence usually lands within microseconds of the last
	// retired task, so poll briefly before arming timers.
	for spin := 0; spin < 256; spin++ {
		if out.Load() == 0 {
			return nil
		}
		if e.stop.Load() {
			return ErrStopped
		}
		if err := ctx.Err(); err != nil {
			return stalled(err)
		}
		stdruntime.Gosched()
	}
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	// Liveness watchdog: progress is any ledger movement (a retirement, a
	// quarantine, a new submission). A long-running task is progress-free
	// but legitimate, which is why the watchdog is opt-in per Config.
	lastProgress := time.Now()
	lastMark := mark()
	for {
		if out.Load() == 0 {
			return nil
		}
		if e.stop.Load() {
			return ErrStopped
		}
		if d := e.cfg.StallTimeout; d > 0 {
			if m := mark(); m != lastMark {
				lastMark = m
				lastProgress = time.Now()
			} else if time.Since(lastProgress) > d {
				return stalled(ErrStalled)
			}
		}
		// quiet is the engine-wide wake-up: a job-scoped wait takes it too
		// (an empty engine is an empty job) and otherwise rides the ticker.
		select {
		case <-e.quiet:
		case <-tick.C:
		case <-ctx.Done():
			return stalled(ctx.Err())
		}
	}
}

// ledgerMark folds the conservation ledger's moving parts into one value
// that changes whenever the engine makes progress: the jobs' marks summed.
func (e *Engine) ledgerMark() int64 {
	var m int64
	for _, js := range *e.jobs.Load() {
		m += js.ledgerMark()
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
		return e.stallError("stop", ctx.Err(), nil)
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
