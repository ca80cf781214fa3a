package runtime

// The job layer turns the single-workload engine into a multi-tenant fleet
// (DESIGN.md §14). A job is one tenant: its own workload instance, weight,
// admission quota, and a full conservation ledger of its own —
// while every global invariant (termination, the engine-wide ledger, the
// publication-ordering contract) keeps holding across all jobs combined.
//
// Identity is carried by task.Task.Job, stamped at submission and inherited
// by every child a handler emits, so a task can always be billed to its
// tenant without any lookaside table. Each worker keeps a job's tasks in a
// queue of their own (workerJQ) and its job scheduler (jobsched.go) serves
// those queues under deficit round robin — each visit deposits
// weight*drrQuantum into the job's balance, each retired task (bag contents
// included) withdraws one — which is what makes per-job task shares track
// weight shares independently of per-task cost or bagging.
//
// Per-job ledger. Each jobState carries the same conservation equation the
// engine proves globally, extended by the cancellation sink:
//
//	Submitted + Spawned == Processed + BagsRetired + Quarantined + Cancelled + Outstanding
//
// with the same publication ordering: every retirement term is stored before
// the job's outstanding count drops, and every addition lands before the
// work becomes visible, so at per-job quiescence (Outstanding == 0) the
// job's ledger is exact. The job is the ledger's one home: the engine-wide
// terms are the sums of the jobs' (Snapshot), so the chaos Checker's
// partition identity holds by construction.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"hdcps/internal/pq"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// ErrJobCancelled is returned by Job.Submit once the job has been cancelled.
var ErrJobCancelled = errors.New("runtime: job cancelled")

// maxJobs bounds the job table; JobIDs index dense per-worker slices, so an
// unbounded table would let a runaway caller exhaust memory fleet-wide.
const maxJobs = 1 << 20

// MaxJobWeight caps JobConfig.Weight. The weight feeds an int64 product on
// the worker loop (weight*drrQuantum in jobSched.next); unbounded, a weight of
// 1<<62 makes the deposit overflow to 0 and the rotation spin on a job whose
// balance never turns positive. The cap is far past any useful value: a
// 65536:1 share.
const MaxJobWeight = 1 << 16

// JobConfig parameterizes one tenant of a multi-job engine.
type JobConfig struct {
	// Name labels the job in stats, traces, and stall diagnostics.
	// Empty defaults to "job-<id>".
	Name string
	// Weight is the job's fair-share weight: each worker's deficit-round-
	// robin rotation deposits weight*drrQuantum tasks of service per visit,
	// so a weight-2 job is offered twice the task throughput of a weight-1
	// job whenever both are backlogged. Values <= 0 default to 1; values
	// above MaxJobWeight are clamped to it.
	Weight int
	// MaxOutstanding is the admission quota: a Submit that would push the
	// job's outstanding task count past it is rejected whole with a
	// *QuotaError (no partial admission). 0 means unlimited. Spawned
	// children are not quota-checked — admission controls entry, not
	// amplification.
	MaxOutstanding int64
}

// jobState is the engine-side record of one job. Its conservation ledger has
// one home: the retire and spawn terms in rows, one per worker, and the three
// counts that goroutines other than a worker write or read on a hot path in
// shared atomics; everything else is immutable after NewJob.
type jobState struct {
	id     task.JobID
	name   string
	w      workload.Workload
	off    []uint32 // CSR row offsets of the job's graph (prefetch), or nil
	owners uint64   // ownerMul of the job's node count and the fleet (place.go)
	weight int64
	quota  int64 // 0 = unlimited
	// mq is the job's fleet-shared relaxed MultiQueue when the engine runs
	// QueueMultiQueue: one c·P-shard structure per job, each worker holding a
	// handle, so relaxation and work balancing stay within the tenant.
	mq *pq.MultiQueue
	// fronts holds each worker's published front for this job — the best
	// priority left in its queue — where a thief compares them (steal.go); nil
	// when the fleet does not steal (multiqueue, or one worker).
	fronts []frontSlot
	// rows holds each worker's terms of the job's ledger (jobRow).
	rows []jobRow

	cancelled atomic.Bool

	// The shared ledger terms: submitted and rejected are written by
	// submitting goroutines, and outstanding is read by park, Drain and the
	// quota. Outstanding follows the global count's ordering contract:
	// incremented before the work is visible, decremented only after the
	// matching retirement term is stored in a row. Every worker's settle
	// writes it, so the three keep off the lines of the fields above, which
	// every task reads; the trailing pad makes the record 256 bytes, a size
	// class that starts each record on a line (TestEngineCacheLines).
	_           [56]byte
	submitted   atomic.Int64
	outstanding atomic.Int64
	rejected    atomic.Int64 // tasks refused by the admission quota
	_           [24]byte
}

// jobRow is one worker's terms of one job's ledger. Only that worker stores
// into it — at settle, and in handleFault for a quarantine — so a term costs
// no shared add; readers sum the rows (jobState.stats). The pads keep every
// row's terms off any line another row, or any other object, shares.
type jobRow struct {
	_           [56]byte
	processed   atomic.Int64 // tasks run to completion (bag payloads included)
	spawned     atomic.Int64 // children and bag units the job's tasks created
	bagsRetired atomic.Int64 // bag markers fully unpacked
	quarantined atomic.Int64 // tasks whose handler panicked
	cancelled   atomic.Int64 // tasks discarded by the job's cancellation
	_           [56]byte
}

// add stores n more into a row term. Only the row's worker writes it, so a
// load and a store need no read-modify-write.
func add(c *atomic.Int64, n int64) {
	if n != 0 {
		c.Store(c.Load() + n)
	}
}

// newJobState builds the record; cfg must already have defaults applied.
func newJobState(id task.JobID, w workload.Workload, jc JobConfig, cfg Config) *jobState {
	js := &jobState{
		id:     id,
		name:   jc.Name,
		w:      w,
		weight: int64(jc.Weight),
		quota:  jc.MaxOutstanding,
		rows:   make([]jobRow, cfg.Workers),
	}
	if js.name == "" {
		js.name = fmt.Sprintf("job-%d", id)
	}
	if js.weight <= 0 {
		js.weight = 1
	}
	js.weight = min(js.weight, MaxJobWeight)
	if js.quota < 0 {
		js.quota = 0
	}
	if g := w.Graph(); g != nil {
		js.off = g.Off
		js.owners = ownerMul(g.NumNodes(), cfg.Workers)
	}
	if cfg.QueueKind == QueueMultiQueue {
		// pq's defaults: 4 shards a worker, a shard pair kept for 8 operations.
		js.mq = pq.NewMultiQueue(pq.MultiQueueConfig{Workers: cfg.Workers, Seed: cfg.Seed})
	} else if cfg.Workers > 1 {
		js.fronts = newFronts(cfg.Workers)
	}
	return js
}

// ledgerMark folds the job's ledger terms into one progress value for the
// job-scoped stall watchdog (any retirement, quarantine, cancellation, or
// new submission moves it).
func (js *jobState) ledgerMark() int64 {
	m := js.submitted.Load()
	for i := range js.rows {
		r := &js.rows[i]
		m += r.processed.Load() + r.bagsRetired.Load() + r.quarantined.Load() + r.cancelled.Load()
	}
	return m
}

// stats snapshots the job's ledger, summing its rows, and adds each worker's
// processed count to byWorker[w].Processed when byWorker is not nil.
// Outstanding is read first, then every row's retire side, then the add side
// (every row's spawned, then submitted), so the coherence contract the global
// Snapshot documents holds per job: a task retiring between the reads
// inflates the retire side, never hides work, and the retire side never
// leads the add side.
func (js *jobState) stats(byWorker []WorkerStats) JobStats {
	s := JobStats{
		Job:         js.id,
		Name:        js.name,
		Weight:      int(js.weight),
		Cancelled:   js.cancelled.Load(),
		Outstanding: js.outstanding.Load(),
	}
	for i := range js.rows {
		r := &js.rows[i]
		p := r.processed.Load()
		s.Processed += p
		s.BagsRetired += r.bagsRetired.Load()
		s.Quarantined += r.quarantined.Load()
		s.CancelledTasks += r.cancelled.Load()
		if byWorker != nil {
			byWorker[i].Processed += p
		}
	}
	for i := range js.rows {
		s.Spawned += js.rows[i].spawned.Load()
	}
	s.Submitted = js.submitted.Load()
	s.QuotaRejected = js.rejected.Load()
	return s
}

// JobStats is one job's row of Snapshot.Jobs, and its {"type":"job"} line in
// a trace (Engine.WriteTrace): the per-tenant conservation ledger. At
// per-job quiescence (Outstanding == 0 with no concurrent Submit to this
// job):
//
//	Submitted + Spawned == Processed + BagsRetired + Quarantined + CancelledTasks
//
// The sampled rank error is counted per worker only (Snapshot.RankSamples...).
type JobStats struct {
	Job       task.JobID `json:"job"`
	Name      string     `json:"name"`
	Weight    int        `json:"weight"`
	Cancelled bool       `json:"cancelled"` // the job has been cancelled (terminal)

	Outstanding    int64 `json:"outstanding"`     // this job's tasks submitted or spawned but not retired
	Submitted      int64 `json:"submitted"`       // tasks admitted via Submit
	Spawned        int64 `json:"spawned"`         // children + bag units created by this job's tasks
	Processed      int64 `json:"processed"`       // tasks executed (bag payloads included)
	BagsRetired    int64 `json:"bags_retired"`    // bag units fully unpacked and retired
	Quarantined    int64 `json:"quarantined"`     // poison tasks retired into quarantine
	CancelledTasks int64 `json:"cancelled_tasks"` // tasks (and bag payloads) discarded by Cancel
	QuotaRejected  int64 `json:"quota_rejected"`  // tasks refused by the admission quota (not in the ledger)
}

// QuotaError is the admission-control rejection: a Submit would have pushed
// the job past its MaxOutstanding quota, so the whole batch was refused.
type QuotaError struct {
	Job         task.JobID
	Name        string
	Limit       int64 // the job's MaxOutstanding
	Outstanding int64 // the job's outstanding count at rejection
	Tasks       int   // size of the refused batch
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf(
		"runtime: job %d (%s) over quota: %d outstanding + %d submitted > limit %d",
		e.Job, e.Name, e.Outstanding, e.Tasks, e.Limit)
}

// Job is the tenant handle: a scoped view of one engine job with its own
// Submit/Drain/Cancel/Snapshot lifecycle. Handles are cheap, goroutine-safe,
// and remain valid for the engine's lifetime.
type Job struct {
	e  *Engine
	js *jobState
}

// NewJob registers a new tenant on the engine: its own workload instance
// (Reset here; it must not be shared with another engine or job), weight and
// quota. Jobs may be added before Start or while the
// fleet runs; they live until the engine stops — there is no job removal,
// only Cancel. Returns an error once Stop has been requested.
func (e *Engine) NewJob(w workload.Workload, jc JobConfig) (*Job, error) {
	if w == nil {
		return nil, errors.New("runtime: NewJob needs a workload")
	}
	if e.stop.Load() {
		return nil, ErrStopped
	}
	w.Reset()
	e.jobMu.Lock()
	cur := *e.jobs.Load()
	if len(cur) >= maxJobs {
		e.jobMu.Unlock()
		return nil, fmt.Errorf("runtime: job table full (%d jobs)", maxJobs)
	}
	js := newJobState(task.JobID(len(cur)), w, jc, e.cfg)
	grown := make([]*jobState, len(cur)+1)
	copy(grown, cur)
	grown[len(cur)] = js
	// The control plane's report row must exist before any task of the new
	// job can be processed, so it is grown before the table is published.
	e.control.addJob()
	e.jobs.Store(&grown)
	e.jobMu.Unlock()
	return &Job{e: e, js: js}, nil
}

// DefaultJob returns the handle for job 0: the workload the engine was
// constructed over. Single-tenant callers never need it — the Engine-level
// Submit/Drain already operate on the whole fleet.
func (e *Engine) DefaultJob() *Job {
	return &Job{e: e, js: (*e.jobs.Load())[0]}
}

// Job returns the handle for the job with the given ID, and false when the
// engine has no such job. Unlike a task's Job field, an unknown ID does not
// fold into job 0.
func (e *Engine) Job(id task.JobID) (*Job, bool) {
	jobs := *e.jobs.Load()
	if int(id) >= len(jobs) {
		return nil, false
	}
	return &Job{e: e, js: jobs[id]}, true
}

// jobStateFor resolves a task's JobID against the live table, folding
// out-of-range IDs (a caller stamping a bogus value) into the default job.
func (e *Engine) jobStateFor(id task.JobID) *jobState {
	jobs := *e.jobs.Load()
	if int(id) < len(jobs) {
		return jobs[id]
	}
	return jobs[0]
}

// ID returns the job's identity — the value carried by its tasks' Job field.
func (j *Job) ID() task.JobID { return j.js.id }

// Name returns the job's label.
func (j *Job) Name() string { return j.js.name }

// Snapshot returns the job's ledger row (see JobStats for the per-job
// conservation equation and its coherence contract).
func (j *Job) Snapshot() JobStats { return j.js.stats(nil) }

// Submit injects tasks into this job: each task is stamped with the job's
// ID, admission-checked against the quota (all-or-nothing), and then follows
// the engine's normal submission path. Returns ErrJobCancelled after Cancel
// and *QuotaError past the quota.
func (j *Job) Submit(ts ...task.Task) error {
	if len(ts) == 0 {
		return nil
	}
	for i := range ts {
		ts[i].Job = j.js.id
	}
	if j.e.stop.Load() {
		return ErrStopped
	}
	return j.e.submitJob(j.js, ts)
}

// Drain blocks until this job alone is quiescent — every one of its
// submitted tasks and their transitive children processed, quarantined, or
// cancelled — without waiting on any other tenant's work. The same deadline
// and watchdog semantics as Engine.Drain apply, but scoped: the returned
// *StallError carries this job's ID and per-job ledger so the blocking
// tenant is identifiable, and the stall watchdog watches this job's ledger
// only (another tenant's progress does not reset it).
func (j *Job) Drain(ctx context.Context) error {
	e, js := j.e, j.js
	return e.waitQuiescent(ctx, &js.outstanding, js.ledgerMark,
		func(cause error) error { return e.stallError("drain-job", cause, js) })
}

// Cancel marks the job cancelled and waits for its tasks to leave the
// system. Cancellation is cooperative and terminal: new Submits are refused
// with ErrJobCancelled, every queued task of the job is discarded into the
// CancelledTasks ledger sink the next time a worker touches it, and tasks
// already inside a worker's dequeue batch (at most batchK per worker) finish
// normally; a handler that panics is quarantined as always. Other tenants
// are untouched — their queues are never scanned. Cancel returns when the
// job's outstanding count reaches zero (its ledger is then exact) or ctx
// expires, with the same *StallError semantics as Drain. Requires a started engine: on a never-started engine nothing
// drains the queues, so Cancel would wait forever (bound it with ctx).
func (j *Job) Cancel(ctx context.Context) error {
	j.js.cancelled.Store(true)
	// Wake parked workers so an idle fleet sweeps the queues promptly; a
	// busy fleet discards on its next scheduling round anyway.
	j.e.wakeAll()
	return j.Drain(ctx)
}
