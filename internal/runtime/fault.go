package runtime

// The fault layer is the engine's failure model, grown out of a concrete
// wedge: a panicking task handler used to kill its worker goroutine and
// leave Drain blocked forever on an outstanding count that could no longer
// reach zero. Now a handler panic is a per-task event with one rule: the
// worker survives and the task is quarantined on the spot — its children are
// discarded, it never runs again, and it retires into the poison list
// (Engine.Quarantined), so every failure path stays inside the engine's
// conservation ledger:
//
//	Submitted + Spawned = Processed + BagsRetired + Quarantined + Cancelled + Outstanding
//
// exactly at quiescence (each term's publication is ordered before the
// outstanding-count transition that makes it observable). The Cancelled term
// is the job layer's sink: tasks of a cancelled tenant retire there without
// executing (job.go). The same equation holds per job, and the chaos harness
// (internal/chaos) asserts both ledgers at every drain checkpoint.

import (
	"fmt"
	"sync"
	"time"

	"hdcps/internal/obs"
	"hdcps/internal/task"
)

// QuarantinedTask is one poisoned task: its handler panicked, so it was
// retired into quarantine instead of processed. The task, the panic value,
// and the worker that caught it are kept for diagnosis.
type QuarantinedTask struct {
	Task   task.Task
	Worker int // worker that caught the panic
	Panic  any // recover() value
	Time   time.Time
}

func (q QuarantinedTask) String() string {
	return fmt.Sprintf("task{node %d prio %d} worker %d: %v",
		q.Task.Node, q.Task.Prio, q.Worker, q.Panic)
}

// faultState is the engine's mutex-guarded poison list, touched only when a
// handler panics. Its count is not kept here: each quarantine counts in the
// row of the worker that caught it (tasks_quarantined), as each worker-loop
// restart does (worker_restarts).
type faultState struct {
	mu          sync.Mutex
	quarantined []QuarantinedTask
}

// quarantine records one task whose handler panicked.
func (fs *faultState) quarantine(t task.Task, worker int, pv any) {
	fs.mu.Lock()
	fs.quarantined = append(fs.quarantined, QuarantinedTask{
		Task: t, Worker: worker, Panic: pv, Time: time.Now(),
	})
	fs.mu.Unlock()
}

// snapshot copies the quarantine list.
func (fs *faultState) snapshot() []QuarantinedTask {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]QuarantinedTask(nil), fs.quarantined...)
}

// WorkerState is one worker's row in a StallError: the race-safe view of
// where the fleet was when the deadline hit.
type WorkerState struct {
	ID        int
	Processed int64 // tasks retired by this worker
	IdleParks int64 // park episodes so far
	Spills    int64 // overflow spills landed at this worker's endpoint
	Parked    bool  // currently blocked in the park/wake handshake
}

// StallError is the diagnostic Drain, Stop, and the job-scoped waits return
// instead of blocking forever: the deadline (or the liveness watchdog) fired
// while work was still outstanding. It wraps the triggering error
// (ctx.Err(), or ErrStalled for the watchdog) and carries enough engine
// state to tell a wedged fleet from a slow one — per-worker progress and
// park state, the conservation ledger, and the submission epoch.
//
// An engine-wide stall (Engine.Drain, Stop) reports the whole fleet's
// ledger: every tenant's work counts toward Outstanding. A job-scoped stall
// (Job.Drain, Job.Cancel) sets JobScoped and identifies the blocking tenant:
// Job/JobName name it and the ledger fields hold that job's terms only, so
// one stuck tenant is distinguishable from a wedged fleet.
type StallError struct {
	Op  string // "drain", "stop", or "drain-job"
	Err error  // ctx.Err() or ErrStalled

	// JobScoped marks a single-tenant wait; Job and JobName then identify
	// the blocking job, and the ledger fields below are its terms alone.
	JobScoped bool
	Job       task.JobID
	JobName   string

	Outstanding int64
	Submitted   int64
	Processed   int64
	Quarantined int64
	Cancelled   int64
	Epoch       uint64 // submission epochs so far (park/wake generations)
	Workers     []WorkerState
}

func (e *StallError) Error() string {
	parked := 0
	for _, w := range e.Workers {
		if w.Parked {
			parked++
		}
	}
	if e.JobScoped {
		return fmt.Sprintf(
			"runtime: %s stalled (%v): job %d (%s) blocking with outstanding %d, submitted %d, processed %d, quarantined %d, cancelled %d; %d/%d workers parked",
			e.Op, e.Err, e.Job, e.JobName, e.Outstanding, e.Submitted,
			e.Processed, e.Quarantined, e.Cancelled, parked, len(e.Workers))
	}
	return fmt.Sprintf(
		"runtime: %s stalled (%v): all jobs' outstanding %d, submitted %d, processed %d, quarantined %d, epoch %d, %d/%d workers parked",
		e.Op, e.Err, e.Outstanding, e.Submitted, e.Processed, e.Quarantined,
		e.Epoch, parked, len(e.Workers))
}

// Unwrap exposes the triggering error, so errors.Is(err, context.Canceled)
// and friends keep working on the wrapped diagnostic.
func (e *StallError) Unwrap() error { return e.Err }

// ErrStalled is the error a StallError wraps when Config.StallTimeout fired
// (no progress for the configured window), as opposed to ctx expiry.
var ErrStalled = fmt.Errorf("runtime: no progress within the stall timeout")

// stallError assembles the diagnostic from the engine's race-safe state, in
// the ledger's read order: outstanding, the retire side, the add side.
func (e *Engine) stallError(op string, cause error) *StallError {
	se := &StallError{
		Op:          op,
		Err:         cause,
		Outstanding: e.outstanding.Load(),
		Epoch:       e.epoch.Load(),
		Workers:     make([]WorkerState, len(e.workers)),
	}
	for i := range e.workers {
		me := &e.workers[i]
		ws := WorkerState{
			ID:        i,
			Processed: me.pub[obs.CTasksProcessed].Load(),
			IdleParks: me.pub[obs.CIdleParks].Load(),
			Spills:    me.pub[obs.COverflowSpills].Load(),
			Parked:    me.parked.Load(),
		}
		se.Workers[i] = ws
		se.Processed += ws.Processed
		se.Quarantined += me.pub[obs.CTasksQuarantined].Load()
		se.Cancelled += me.pub[obs.CTasksCancelled].Load()
	}
	se.Submitted = e.ext[obs.CTasksSubmitted].Load()
	return se
}

// stallJobError assembles the job-scoped diagnostic: the fleet's worker rows
// (the workers are shared) with the blocking job's own ledger terms.
func (e *Engine) stallJobError(op string, cause error, js *jobState) *StallError {
	se := e.stallError(op, cause)
	se.Op = op
	se.JobScoped = true
	se.Job = js.id
	se.JobName = js.name
	se.Outstanding = js.outstanding.Load()
	se.Submitted = js.submitted.Load()
	se.Processed = js.processed.Load()
	se.Quarantined = js.quarantined.Load()
	se.Cancelled = js.cancelledTasks.Load()
	return se
}

// Quarantined returns a copy of the poison-task list: every task whose
// handler panicked. Safe from any goroutine at any lifecycle stage; the
// engine retires quarantined tasks from the outstanding count, so Drain
// completes even when tasks are poisoned.
func (e *Engine) Quarantined() []QuarantinedTask { return e.faults.snapshot() }
