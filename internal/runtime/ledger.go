package runtime

// The ledger is each worker's half of the conservation ledger (fault.go,
// DESIGN.md §9): what the tasks it ran did to the counts
//
//	Submitted + Spawned == Processed + BagsRetired + Quarantined + Cancelled + Outstanding
//
// kept per job and for the engine. A worker touches no shared counter while it
// processes a task. It records each event once, through a verb, in the
// unsettled delta of the task's job on this worker — retire (a task ran),
// spawn (its children and bag units), retireBag (a bag was unpacked), cancel
// (units of a cancelled job were discarded) — and settle applies them, summing
// the worker's own totals and the engine-wide outstanding move from the
// per-job deltas.
//
// Contract (settle before ship). Both signs are deferred, so one rule carries
// the termination invariant: settle before any call that can make a task
// visible to another worker. In a stealing fleet (steal.go) a strict queue is
// visible to thieves whenever its owner's lock is free, so the point where a
// task becomes visible is the cycle-start push under that lock: a unit the
// worker keeps during a batch waits in its kept buffer, and the loop settles at
// the batch end, before it idles or parks, and on exit — every way back to the
// cycle start — so nothing it pushes there is uncounted. Engine.send settles
// before the Send that completes a destination batch (a fault hook only
// refuses sends and filters drains, so the rule holds with one attached),
// every Flush site follows a settle, and Engine.push settles before a push
// into a shared multiqueue; a panic cannot strand a count,
// because the exit settles too. Until a worker settles, its whole
// popped batch is still counted: outstanding — the engine's and each job's —
// can read low by at most one batch's spawn per worker, but never zero while
// work exists and never negative, which is also why handleFault may drop a
// quarantined task from the counts at once.
//
// Publication order, inside settle and for any reader: every retire term is
// stored before the outstanding drop it explains — the worker's totals first,
// then per job the spawn and retire terms and after them the job's
// outstanding, and the engine's outstanding last. Readers (Snapshot,
// jobState.stats) read outstanding first and the add side last, so the retire
// side never leads the add side and the ledger is exact at quiescence.

import "hdcps/internal/obs"

// jobDelta is one worker's unsettled moves on one job's ledger
// (workerJQ.delta). out is the net move of the job's outstanding count.
type jobDelta struct {
	dirty                                      bool // in ledger.dirty
	spawned, processed, bagsRetired, cancelled int64
	out                                        int64
}

// ledger is one worker's settled totals — what its row of published counters
// shows — and the set of queues holding unsettled deltas.
type ledger struct {
	dirty                                      []*workerJQ
	spawned, processed, bagsRetired, cancelled int64
}

func (l *ledger) touch(q *workerJQ) *jobDelta {
	d := &q.delta
	if !d.dirty {
		d.dirty = true
		l.dirty = append(l.dirty, q)
	}
	return d
}

// retire records one task of q's job run to completion.
func (l *ledger) retire(q *workerJQ) {
	d := l.touch(q)
	d.processed++
	d.out--
}

// spawn records n units (children, bag markers and bag payloads) created by a
// task of q's job.
func (l *ledger) spawn(q *workerJQ, n int64) {
	d := l.touch(q)
	d.spawned += n
	d.out += n
}

// retireBag records one bag marker of q's job fully unpacked.
func (l *ledger) retireBag(q *workerJQ) {
	d := l.touch(q)
	d.bagsRetired++
	d.out--
}

// cancel records n tasks of q's cancelled job discarded without running.
func (l *ledger) cancel(q *workerJQ, n int64) {
	d := l.touch(q)
	d.cancelled += n
	d.out -= n
}

// settle applies the worker's unsettled deltas in the publication order the
// contract above states, and moves the engine's outstanding count by exactly
// the sum of the per-job moves.
func (e *Engine) settle(me *worker) {
	l := &me.led
	if len(l.dirty) == 0 {
		return
	}
	var out int64
	for _, q := range l.dirty {
		d := &q.delta
		l.spawned += d.spawned
		l.processed += d.processed
		l.bagsRetired += d.bagsRetired
		l.cancelled += d.cancelled
		out += d.out
	}
	me.pub[obs.CTasksSpawned].Store(l.spawned)
	me.pub[obs.CTasksProcessed].Store(l.processed)
	me.pub[obs.CBagsRetired].Store(l.bagsRetired)
	me.pub[obs.CTasksCancelled].Store(l.cancelled)
	for _, q := range l.dirty {
		js, d := q.js, &q.delta
		if d.spawned != 0 {
			js.spawned.Add(d.spawned)
		}
		if d.processed != 0 {
			js.processed.Add(d.processed)
		}
		if d.bagsRetired != 0 {
			js.bagsRetired.Add(d.bagsRetired)
		}
		if d.cancelled != 0 {
			js.cancelledTasks.Add(d.cancelled)
		}
		if d.out != 0 {
			js.outstanding.Add(d.out)
		}
		*d = jobDelta{}
	}
	l.dirty = l.dirty[:0]
	if out != 0 {
		e.account(out)
	}
}

// account moves the engine's outstanding count and signals quiescence when it
// reaches zero. Positive moves land before the tasks they count are
// published, so a zero here always means a truly quiescent system.
func (e *Engine) account(delta int64) {
	if e.outstanding.Add(delta) == 0 {
		select {
		case e.quiet <- struct{}{}:
		default:
		}
	}
}

// enter is the ledger's add side for submission: n admitted tasks of js go
// into the job's and the engine's counts — the submitted term before the
// outstanding it explains, per job before engine-wide — before the caller
// makes any of them visible to a worker.
func (e *Engine) enter(js *jobState, n int64) {
	js.submitted.Add(n)
	js.outstanding.Add(n)
	e.submitted.Add(n)
	e.outstanding.Add(n)
	if rec := e.obs; rec != nil {
		rec.Add(obs.External, obs.CTasksSubmitted, n)
		rec.Event(obs.External, obs.EvSubmit, n, int64(js.id), 0)
	}
}
