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

// StallError is the diagnostic Drain, Stop, and the job-scoped waits return
// instead of blocking forever: the deadline (or the liveness watchdog) fired
// while work was still outstanding. It wraps the triggering error
// (ctx.Err(), or ErrStalled for the watchdog) and carries the engine's
// Snapshot at that moment — per-worker progress and park state, the
// conservation ledger, the submission epoch — enough to tell a wedged fleet
// from a slow one.
//
// An engine-wide stall (Engine.Drain, Stop) speaks for the whole fleet:
// every tenant's work counts toward the Snapshot's Outstanding. A job-scoped
// stall (Job.Drain, Job.Cancel) also sets Job, the blocking tenant's ledger
// row, so one stuck tenant is distinguishable from a wedged fleet.
type StallError struct {
	Op  string // "drain", "stop", or "drain-job"
	Err error  // ctx.Err() or ErrStalled

	// Job is the blocking tenant's ledger row for a job-scoped wait, nil
	// for an engine-wide one.
	Job      *JobStats
	Snapshot Snapshot
}

func (e *StallError) Error() string {
	s := &e.Snapshot
	parked := 0
	for _, w := range s.Workers {
		if w.Parked {
			parked++
		}
	}
	if j := e.Job; j != nil {
		return fmt.Sprintf(
			"runtime: %s stalled (%v): job %d (%s) blocking with outstanding %d, submitted %d, processed %d, quarantined %d, cancelled %d; %d/%d workers parked",
			e.Op, e.Err, j.Job, j.Name, j.Outstanding, j.Submitted,
			j.Processed, j.Quarantined, j.CancelledTasks, parked, len(s.Workers))
	}
	return fmt.Sprintf(
		"runtime: %s stalled (%v): all jobs' outstanding %d, submitted %d, processed %d, quarantined %d, cancelled %d, epoch %d, %d/%d workers parked",
		e.Op, e.Err, s.Outstanding, s.Submitted, s.TasksProcessed, s.Quarantined,
		s.Cancelled, s.Epoch, parked, len(s.Workers))
}

// Unwrap exposes the triggering error, so errors.Is(err, context.Canceled)
// and friends keep working on the wrapped diagnostic.
func (e *StallError) Unwrap() error { return e.Err }

// ErrStalled is the error a StallError wraps when Config.StallTimeout fired
// (no progress for the configured window), as opposed to ctx expiry.
var ErrStalled = fmt.Errorf("runtime: no progress within the stall timeout")

// stallError assembles the diagnostic: the engine's Snapshot and, for a
// job-scoped wait (js non-nil), the blocking job's ledger row.
func (e *Engine) stallError(op string, cause error, js *jobState) *StallError {
	se := &StallError{Op: op, Err: cause, Snapshot: e.Snapshot()}
	if js != nil {
		st := js.stats()
		se.Job = &st
	}
	return se
}

// Quarantined returns a copy of the poison-task list: every task whose
// handler panicked. Safe from any goroutine at any lifecycle stage; the
// engine retires quarantined tasks from the outstanding count, so Drain
// completes even when tasks are poisoned.
func (e *Engine) Quarantined() []QuarantinedTask { return e.faults.snapshot() }
