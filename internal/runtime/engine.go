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
// Termination protocol (epoch-aware): every task in the system is counted
// in `outstanding`, and the count for a task's children is added before any
// child becomes visible to another worker (workers settle their deferred
// ledger deltas before they ship — see ledger.go), so outstanding can never
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
	w         workload.Workload
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
	jobs  atomic.Pointer[[]*jobState]
	jobMu sync.Mutex

	// outstanding counts every task (and bag) emitted but not yet fully
	// processed; zero means the system is quiescent.
	outstanding atomic.Int64
	// ext is the engine's external counter row: what enters at Submit rather
	// than in a worker (tasks_submitted, the left side of the conservation
	// ledger, and quota_rejects). It is the recorder's external row when one
	// is attached, else extLocal; every worker count lives in its pub row.
	ext      *obs.Row
	extLocal obs.Row
	// epoch counts Submit calls; parked workers wake when it advances.
	epoch atomic.Uint64
	stop  atomic.Bool
	state atomic.Int32

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
		w:       w,
		workers: make([]worker, cfg.Workers),
		obs:     cfg.Obs,
		quiet:   make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	// Every count has one home: a worker's pub row, or the engine's external
	// row. The transport and the control plane count into the workers' rows.
	e.ext = counterRow(cfg.Obs, obs.External, &e.extLocal)
	rows := make([]*obs.Row, cfg.Workers)
	for i := range e.workers {
		me := &e.workers[i]
		me.pub = counterRow(cfg.Obs, i, &me.pubLocal)
		rows[i] = me.pub
	}
	e.control = newControlPlane(cfg, rows)
	e.sampleInterval = e.control.SampleInterval()
	// w was already Reset above; NewJob would Reset it again, so seed the
	// table directly.
	jobs := []*jobState{newJobState(0, w, cfg.DefaultJob, cfg)}
	e.jobs.Store(&jobs)
	e.transport = newRingTransport(cfg.Workers, cfg.RingSize, sendBatch, cfg.OverflowCap, rows, cfg.Obs, cfg.Faults)
	// Every job of a stealing fleet has front slots (newJobState).
	e.steals = jobs[0].fronts != nil
	if e.steals {
		e.transport.shipped = e.shipped
	}
	for i := range e.workers {
		me := &e.workers[i]
		me.id = i
		me.sched.cfg = &e.cfg
		me.sched.shared = cfg.QueueKind == QueueMultiQueue
		me.rng = *graph.NewRNG(cfg.Seed + uint64(i)*0x9e3779b9)
		me.batch = make([]task.Task, batchK)
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

// counterRow is where the owner of row i keeps its counts: the recorder's
// row i when one is attached and has it, else the owner's own row. A worker
// past an undersized recorder's rows keeps its own, so no two workers ever
// share a row.
func counterRow(rec *obs.Recorder, i int, own *obs.Row) *obs.Row {
	if rec != nil {
		if r := rec.Row(i); r != nil {
			return r
		}
	}
	return own
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
// runs. Tasks are spread round-robin across workers through the transport,
// each call starting where the submission epoch points (firstWorker).
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
			e.ext[obs.CQuotaRejects].Add(int64(n))
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
	if e.state.Load() == stateNew && e.submitIdle(js, ts) {
		return nil
	}
	// The ledger entries land first, then the tasks are published —
	// preserving both the outstanding-never-falsely-zero invariant and the
	// conservation ledgers' at-quiescence exactness, per job and globally.
	e.enter(js, int64(len(ts)))
	if nw := len(e.workers); nw == 1 {
		e.transport.Inject(0, ts)
	} else {
		buckets := make([][]task.Task, nw)
		first := e.firstWorker()
		for i, t := range ts {
			d := (first + i) % nw
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

// firstWorker is where a Submit call's round-robin starts: the submission
// epoch, so a stream of short calls (one-task Submits, an acked serve
// stream's flush-on-idle batches) spreads over the fleet instead of landing
// on worker 0 call after call.
func (e *Engine) firstWorker() int {
	return int(e.epoch.Load() % uint64(len(e.workers)))
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
	e.enter(js, int64(len(ts)))
	nw, first := len(e.workers), e.firstWorker()
	for i, t := range ts {
		me := &e.workers[(first+i)%nw]
		me.mu.Lock()
		e.push(me, t)
		me.mu.Unlock()
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
// that changes whenever the engine makes progress.
func (e *Engine) ledgerMark() int64 {
	m := e.ext[obs.CTasksSubmitted].Load()
	for i := range e.workers {
		pub := e.workers[i].pub
		m += pub[obs.CTasksProcessed].Load() + pub[obs.CTasksQuarantined].Load() + pub[obs.CTasksCancelled].Load()
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
