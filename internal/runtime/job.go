package runtime

// The job layer turns the single-workload engine into a multi-tenant fleet
// (DESIGN.md §14). A job is one tenant: its own workload instance, weight,
// admission quota, TDF bias, and a full conservation ledger of its own —
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
// job's ledger is exact. The chaos Checker asserts both the per-job ledgers
// and that their sums equal the global ledger.

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

// MaxJobWeight and MaxTDFBias cap JobConfig.Weight and JobConfig.TDFBias.
// Both feed int64 products on the worker loop (weight*drrQuantum in
// jobSched.next, tdf*bias/100 in place); unbounded, a weight of 1<<62 makes
// the deposit overflow to 0 and the rotation spin on a job whose balance
// never turns positive. The caps are far past any useful value: a 65536:1
// share, a bias that scatters always at a TDF of 1%.
const (
	MaxJobWeight = 1 << 16
	MaxTDFBias   = 100 * 100
)

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
	// TDFBias scales the global TDF for this job's dispatch decisions, in
	// percent (100 = neutral, 50 = scatter half as often, 200 = twice as
	// often, capped at always). It composes the drift controller's global
	// signal with a per-tenant locality preference. Values <= 0 default
	// to 100; values above MaxTDFBias are clamped to it.
	TDFBias int
}

// jobState is the engine-side record of one job. The atomic counters form
// the job's conservation ledger; everything else is immutable after NewJob.
type jobState struct {
	id      task.JobID
	name    string
	w       workload.Workload
	off     []uint32 // CSR row offsets of the job's graph (prefetch), or nil
	weight  int64
	quota   int64 // 0 = unlimited
	tdfBias int64 // percent, 100 = neutral
	// mq is the job's fleet-shared relaxed MultiQueue when the engine runs
	// QueueMultiQueue: one c·P-shard structure per job, each worker holding a
	// handle, so relaxation and work balancing stay within the tenant.
	mq *pq.MultiQueue
	// fronts holds each worker's published front for this job — the best
	// priority left in its queue — where a thief compares them (steal.go); nil
	// when the fleet does not steal (multiqueue, or one worker).
	fronts []frontSlot

	cancelled atomic.Bool

	// The per-job conservation ledger. Outstanding follows the global
	// count's ordering contract: incremented before the work is visible,
	// decremented only after the matching retirement term is stored.
	submitted      atomic.Int64
	spawned        atomic.Int64
	processed      atomic.Int64
	bagsRetired    atomic.Int64
	quarantined    atomic.Int64
	cancelledTasks atomic.Int64
	outstanding    atomic.Int64
	rejected       atomic.Int64 // tasks refused by the admission quota

	// Per-job scheduling quality, fed by the engine's sampled pop path.
	rankSamples atomic.Int64
	inversions  atomic.Int64
	rankErrSum  atomic.Int64
	rankErrMax  atomic.Int64

	_ [4]int64 // keep adjacent jobs' hot counters off one line
}

// newJobState builds the record; cfg must already have defaults applied.
func newJobState(id task.JobID, w workload.Workload, jc JobConfig, cfg Config) *jobState {
	js := &jobState{
		id:      id,
		name:    jc.Name,
		w:       w,
		weight:  int64(jc.Weight),
		quota:   jc.MaxOutstanding,
		tdfBias: int64(jc.TDFBias),
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
	if js.tdfBias <= 0 {
		js.tdfBias = 100
	}
	js.tdfBias = min(js.tdfBias, MaxTDFBias)
	if g := w.Graph(); g != nil {
		js.off = g.Off
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
	return js.submitted.Load() + js.processed.Load() + js.bagsRetired.Load() +
		js.quarantined.Load() + js.cancelledTasks.Load()
}

// stats snapshots the job's ledger. Outstanding is read first so the same
// coherence contract the global Snapshot documents holds per job: a task
// retiring between the reads inflates the retirement side, never hides work.
// The add side is read last, so the retire side never leads it.
func (js *jobState) stats() JobStats {
	s := JobStats{
		Job:         js.id,
		Name:        js.name,
		Weight:      int(js.weight),
		Cancelled:   js.cancelled.Load(),
		Outstanding: js.outstanding.Load(),
	}
	s.Processed = js.processed.Load()
	s.BagsRetired = js.bagsRetired.Load()
	s.Quarantined = js.quarantined.Load()
	s.CancelledTasks = js.cancelledTasks.Load()
	s.Submitted = js.submitted.Load()
	s.Spawned = js.spawned.Load()
	s.QuotaRejected = js.rejected.Load()
	s.RankSamples = js.rankSamples.Load()
	s.PrioInversions = js.inversions.Load()
	s.RankErrorSum = js.rankErrSum.Load()
	s.RankErrorMax = js.rankErrMax.Load()
	return s
}

// JobStats is one job's row of Snapshot.Jobs: the per-tenant conservation
// ledger plus scheduling-quality counters. At per-job quiescence
// (Outstanding == 0 with no concurrent Submit to this job):
//
//	Submitted + Spawned == Processed + BagsRetired + Quarantined + CancelledTasks
type JobStats struct {
	Job       task.JobID
	Name      string
	Weight    int
	Cancelled bool // the job has been cancelled (terminal)

	Outstanding    int64 // this job's tasks submitted or spawned but not retired
	Submitted      int64 // tasks admitted via Submit
	Spawned        int64 // children + bag units created by this job's tasks
	Processed      int64 // tasks executed (bag payloads included)
	BagsRetired    int64 // bag units fully unpacked and retired
	Quarantined    int64 // poison tasks retired into quarantine
	CancelledTasks int64 // tasks (and bag payloads) discarded by Cancel
	QuotaRejected  int64 // tasks refused by the admission quota (not in the ledger)

	RankSamples    int64
	PrioInversions int64
	RankErrorSum   int64
	RankErrorMax   int64
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
// (Reset here; it must not be shared with another engine or job), weight,
// quota, and TDF bias. Jobs may be added before Start or while the
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

// Cancelled reports whether Cancel has been requested.
func (j *Job) Cancelled() bool { return j.js.cancelled.Load() }

// Snapshot returns the job's ledger row (see JobStats for the per-job
// conservation equation and its coherence contract).
func (j *Job) Snapshot() JobStats { return j.js.stats() }

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

// Quarantined returns the subset of the engine's poison-task list belonging
// to this job.
func (j *Job) Quarantined() []QuarantinedTask {
	all := j.e.faults.snapshot()
	out := all[:0]
	for _, q := range all {
		if q.Task.Job == j.js.id {
			out = append(out, q)
		}
	}
	return out
}
