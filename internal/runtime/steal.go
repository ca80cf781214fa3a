package runtime

// Steal-when-behind: a worker that pops stale work pulls the better tasks a
// peer is holding — the priority work-stealing of Wimmer et al. ("Data
// Structures for Task-based Priority Scheduling") and the stealing instead of
// scattering of Postnikova et al. ("Multi-Queues Can Be State-of-the-Art
// Priority Schedulers"). Without it a busy or descheduled worker holds the best
// tasks of a narrow frontier in its private queue and ring while the others
// relax everything downstream of them at stale distances (DESIGN.md §9.1).
//
// Owner side. Each worker's strict queues are guarded by its mu, and the owner
// holds it for one short section per dequeue cycle (cycleStart): it pushes the
// units it kept during the last batch (keep), drains its receive side, steals
// if it is behind, fills the next batch, and exposes each queue — the length
// the dispatch gate reads until the next cycle start, and the front priority
// thieves read, in the job's padded per-worker slot. Outside that section the
// owner touches no strict queue, so a thief holding the lock has it alone.
//
// Thief side. A stale pop — a task whose Process examined no edge — marks the
// worker behind on that task's job. At its next cycle start it compares its own
// front with the peers' published fronts and, if one beats it, TryLocks that
// peer (never blocking, so two thieves cannot deadlock, and a descheduled
// peer's lock is free because the peer holds it only inside cycleStart). It
// drains the peer's receive side into the peer's queues, moves up to
// stealCap tasks strictly better than its own front into its own queue (at
// most half the peer's queue, rounded up, when its own is empty) and
// republishes the peer's front. So that work in a ring counts too, a worker
// whose batch lands in a peer's ring lowers that peer's front to the batch's
// best (shipped): without it a peer that is not running would publish the
// front of its queue alone while the best tasks of the frontier wait in its
// ring — at W = 2 on one P that left the fleet doing 3.5 times the oracle's
// work.
//
// Ledger. Everything a worker shows a thief at its cycle start has settled: the
// loop settles at the batch end, before idling, before parking and on exit,
// and those are the only ways back to cycleStart. So a cycle-start push under
// the lock is where a task becomes visible to another worker (ledger.go), and
// a stolen task is always counted. A thief writes nothing of the peer's but
// the peer's queues and front slot: an arrival for a job the peer has no queue
// in its rotation for, or of a cancelled job, goes through the thief's own
// push — its queue, or its ledger's cancellation sink.
//
// multiqueue shares its queues already and one worker has no peer: for
// neither is Engine.steals set (nor are there front slots), so neither locks,
// keeps a unit for the cycle start, exposes a queue or steals.

import (
	"math"
	"sync/atomic"

	"hdcps/internal/task"
)

// stealCap bounds the tasks one steal moves. noFront is the published front
// of a queue that holds nothing.
const (
	stealCap = 16
	noFront  = math.MaxInt64
)

// frontSlot is one worker's published front for one job. The owner writes it
// once per cycle and thieves read it, so each slot has a line of its own.
type frontSlot struct {
	p atomic.Int64
	_ [56]byte
}

func newFronts(workers int) []frontSlot {
	f := make([]frontSlot, workers)
	for i := range f {
		f[i].p.Store(noFront)
	}
	return f
}

// set publishes p, storing only when it changed: a front that holds still
// costs its readers no line transfer.
func (f *frontSlot) set(p int64) {
	if f.p.Load() != p {
		f.p.Store(p)
	}
}

// lower publishes p if it beats what the slot holds.
func (f *frontSlot) lower(p int64) {
	for {
		cur := f.p.Load()
		if p >= cur || f.p.CompareAndSwap(cur, p) {
			return
		}
	}
}

// shipped lowers dst's published fronts to the best priority of each job in
// ts, a batch another worker has just put in dst's ring or overflow: work
// waiting on a receive side counts toward the front thieves compare, so a
// peer that is not running cannot hide what it was sent. The owner's next
// expose replaces the value with its queue's front, the ring drained into it
// by then. A Submit's injection is left out: it spreads over the fleet by
// itself, and on a fleet serving a stream it would invite a steal per batch.
func (e *Engine) shipped(dst int, ts []task.Task) {
	for i := 0; i < len(ts); {
		job, best := ts[i].Job, ts[i].Prio
		for i++; i < len(ts) && ts[i].Job == job; i++ {
			best = min(best, ts[i].Prio)
		}
		e.jobStateFor(job).fronts[dst].lower(best)
	}
}

// front is a strict queue's best priority, noFront when it is empty.
func front(q *workerJQ) int64 {
	if t, ok := q.peek(); ok {
		return t.Prio
	}
	return noFront
}

// victim returns the peer whose published front beats mine by the most, or
// -1 when none beats it.
func victim(fronts []frontSlot, self int, mine int64) int {
	v, best := -1, mine
	for i := range fronts {
		if p := fronts[i].p.Load(); i != self && p < best {
			v, best = i, p
		}
	}
	return v
}

// take moves tasks off the front of a peer's queue into the thief's, through
// into: at most stealCap, each strictly better than mine, and when the thief
// has nothing (mine is noFront) no more than half the peer's queue, rounded
// up. It returns how many moved.
func take(from *workerJQ, mine int64, into func(task.Task)) int {
	n := stealCap
	if mine == noFront {
		n = min(n, (from.len()+1)/2)
	}
	moved := 0
	for ; moved < n; moved++ {
		t, ok := from.peek()
		if !ok || t.Prio >= mine {
			break
		}
		from.pop()
		into(t)
	}
	return moved
}

// cycleStart is the section a worker of a stealing fleet runs under its own
// lock at the start of every dequeue cycle, returning the size of the batch it
// filled. The deferred unlock also runs when the section panics, so a
// restarted loop (runWorkerGuarded) and its thieves never find the lock held.
// A fleet that does not steal has nobody to lock out, and an idle worker with
// nothing to push, nothing in its rotation, no steal due and an empty
// receive side — nothing in its ring or overflow, nothing the fault hook
// holds — skips the section: it polls that on every iteration of its idle
// ladder, and taking the lock each time doubled an empty poll's cost. None
// of the four can change under it but by its own hand, a sender's publish or
// a thief's drain, which the next poll sees.
func (e *Engine) cycleStart(me *worker) int {
	if e.steals {
		if len(me.kept) == 0 && len(me.sched.act) == 0 && me.stale == nil && e.transport.empty(me.id) {
			return 0
		}
		me.mu.Lock()
		defer me.mu.Unlock()
	}
	for _, t := range me.kept {
		e.push(me, t)
	}
	me.kept = me.kept[:0]
	me.inbox = e.transport.Recv(me.id, me.inbox[:0])
	for _, t := range me.inbox {
		e.push(me, t)
	}
	if js := me.stale; js != nil {
		me.stale = nil
		e.steal(me, js)
	}
	return e.fillBatch(me)
}

// keep holds a unit this worker places on itself until its next cycle start:
// dispatch's local branch, a redirect bounce, a fault retry. Pop order does
// not change — a child of batch[i] could not preempt batch[i+1:] anyway — and
// the gate still counts it, in the spare of q, the worker's queue for the
// unit's job (looked up when the caller passes nil). In a fleet that does not
// steal the unit goes straight into its queue — for multiqueue the shared
// structure — as before.
func (e *Engine) keep(me *worker, q *workerJQ, t task.Task) {
	if !e.steals {
		e.push(me, t)
		return
	}
	me.kept = append(me.kept, t)
	if q == nil {
		q = me.sched.lookup(t.Job)
	}
	if q != nil {
		q.spare++
	}
}

// expose records what a strict queue holds once the batch is filled: its
// length, for the dispatch gate until the next cycle start, and its front, in
// the job's slot for thieves. A fleet that does not steal needs neither: one
// worker places everything on itself, and a shared queue is not gated.
func (e *Engine) expose(me *worker, q *workerJQ) {
	if !e.steals {
		return
	}
	q.spare = q.len()
	q.js.fronts[me.id].set(front(q))
}

// steal runs inside the thief's cycleStart, after a stale pop of js: if a
// peer's published front beats the thief's own, it takes the better tasks.
func (e *Engine) steal(me *worker, js *jobState) {
	if !e.steals {
		return
	}
	mine := front(me.sched.queue(js))
	v := victim(js.fronts, me.id, mine)
	if v < 0 {
		return
	}
	peer := &e.workers[v]
	if !peer.mu.TryLock() {
		return
	}
	defer peer.mu.Unlock()
	e.drainPeer(me, peer)
	// A queue out of the peer's rotation is empty, and none at all is as good.
	p := int64(noFront)
	if from := peer.sched.lookup(js.id); from != nil && from.active {
		me.stolen += int64(take(from, mine, func(t task.Task) { e.push(me, t) }))
		p = front(from)
	}
	js.fronts[v].set(p)
}

// drainPeer empties a peer's receive side while the thief holds the peer's
// lock, so that work shipped to a descheduled worker is reachable. The drain
// goes through the fault hook's Filter for the peer, as the peer's own would.
// An arrival goes into the peer's queue for its job when that queue is in the
// peer's rotation; any other arrival — its job has no such queue on the peer,
// or is cancelled — goes through the thief's own push and counts as stolen.
//
// A Filter that duplicates resubmits through Engine.Submit, here with two
// worker locks held. That takes no worker lock: on a started engine Submit
// injects lock-free and then takes e.mu to wake the fleet. The one place that
// takes e.mu and then a worker's lock is submitIdle, which runs only before
// Start, when no worker runs and no lock is held; so worker locks → e.mu is
// the only order and there is no cycle.
func (e *Engine) drainPeer(me, peer *worker) {
	me.inbox = e.transport.Recv(peer.id, me.inbox[:0])
	for _, t := range me.inbox {
		if q := peer.sched.lookup(t.Job); q != nil && q.active && !q.js.cancelled.Load() {
			q.push(t)
			continue
		}
		e.push(me, t)
		me.stolen++
	}
}
