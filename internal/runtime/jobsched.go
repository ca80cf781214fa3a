package runtime

// The job scheduler is the upper of the runtime's two scheduling levels
// (DESIGN.md §14): it decides which tenant's queue a worker pops next, and
// nothing else. The lower level — which task that queue yields — is the
// queue's own priority order (localq.go), and the two do not know each other:
// the worker loop asks next for a queue, pops it, and reports back a hit, a
// miss, or a charge. One jobSched belongs to one worker and only that
// worker's goroutine writes it, so it holds no lock, no atomic and no
// engine. A thief (steal.go) reads jqs and a queue's active flag under the
// owner's lock, which is also where the owner grows jqs and activates or
// retires a queue.

import "hdcps/internal/task"

// drrQuantum is the deficit-round-robin deposit per unit of job weight, in
// tasks, made each time the rotation visits a queue. It is the fairness
// granularity: shares converge to the weight ratios over windows much larger
// than weight*drrQuantum, and a large opened bag's debt is repaid in
// debt/(weight*drrQuantum) visits instead of one visit per task (which would
// make the rotation spin thousands of iterations after every big bag on a
// single-tenant engine).
const drrQuantum = 32

// jobSched serves a worker's per-job queues by deficit round robin. Each
// visit deposits weight*drrQuantum into the visited queue's balance
// (workerJQ.deficit); each retired task withdraws one — including the tasks
// inside an opened bag, which are charged when the bag opens and can drive
// the balance negative (debt the job repays over later visits). When every
// contending job is backlogged the task shares therefore converge to the
// weight shares regardless of how each tenant's work is packaged (singles vs
// bags) or how expensive its tasks are. A queue that goes empty forfeits its
// balance — an unbacklogged tenant banks nothing.
type jobSched struct {
	cfg  *Config // the engine's: shapes the queues materialized by queue
	self int     // the worker's index: its row in each job's ledger

	// jqs is the worker's queue set, indexed by task.JobID and materialized
	// lazily on a job's first local task. act is the rotation: the queues
	// with work, in the order they are served. actPos is the slot visited
	// last and cur the queue still being served, nil between visits.
	jqs    []*workerJQ
	act    []*workerJQ
	actPos int
	cur    *workerJQ

	// shared is the multiqueue regime: a job's queue is one structure the
	// whole fleet pushes into, so activation is not local — another worker's
	// push is invisible to this worker's handle until a pop finds it. Every
	// known job therefore stays in the rotation (syncJobs; nJobs is how much
	// of the job table is registered) and misses, the run of empty pops since
	// the last task, bounds the scan so an idle fleet still parks.
	shared bool
	nJobs  int
	misses int
}

// queue returns this worker's queue for the given job, materializing it on
// first use.
func (s *jobSched) queue(js *jobState) *workerJQ {
	id := int(js.id)
	if id >= len(s.jqs) {
		grown := make([]*workerJQ, id+1)
		copy(grown, s.jqs)
		s.jqs = grown
	}
	if q := s.jqs[id]; q != nil {
		return q
	}
	q := newWorkerJQ(*s.cfg, js, s.self)
	s.jqs[id] = q
	return q
}

// lookup returns this worker's queue for the given job, or nil when it has
// none; unlike queue it never materializes one.
func (s *jobSched) lookup(id task.JobID) *workerJQ {
	if int(id) < len(s.jqs) {
		return s.jqs[id]
	}
	return nil
}

// activate appends a queue to the rotation; deactivate takes it out, keeping
// the order of the rest, so the rotation resumes at the queue that followed it
// and no neighbour is served twice or passed over in that round.
func (s *jobSched) activate(q *workerJQ) {
	if !q.active {
		q.active = true
		s.act = append(s.act, q)
	}
}

func (s *jobSched) deactivate(q *workerJQ) {
	if !q.active {
		return
	}
	q.active = false
	for i, x := range s.act {
		if x == q {
			last := len(s.act) - 1
			copy(s.act[i:], s.act[i+1:])
			s.act[last] = nil
			s.act = s.act[:last]
			if i <= s.actPos {
				s.actPos--
			}
			break
		}
	}
	if s.cur == q {
		s.cur = nil
	}
}

// syncJobs registers the jobs of the engine's table (handed in by the caller)
// that this worker has not seen yet. Only the shared regime needs it: the
// private kinds activate a queue on its first local push.
func (s *jobSched) syncJobs(jobs []*jobState) {
	if s.nJobs == len(jobs) {
		return
	}
	for _, js := range jobs[s.nJobs:] {
		q := s.queue(js)
		if !js.cancelled.Load() {
			s.activate(q)
		}
	}
	s.nJobs = len(jobs)
}

// next returns the queue to pop: the one being served while it has credit,
// else the next in rotation that its visit's deposit leaves in credit. nil
// means nothing is worth popping — no active queue or, under the shared
// regime, more consecutive misses than the rotation is long.
func (s *jobSched) next() *workerJQ {
	if q := s.cur; q != nil && q.deficit > 0 {
		return q
	}
	return s.rotate()
}

// rotate ends the current turn of service and starts the next. It stays out
// of line so that next, called once per pop, is small enough to inline.
//
//go:noinline
func (s *jobSched) rotate() *workerJQ {
	for {
		if len(s.act) == 0 || s.misses > len(s.act) {
			s.cur, s.misses = nil, 0
			return nil
		}
		s.actPos++
		if s.actPos >= len(s.act) {
			s.actPos = 0
		}
		q := s.act[s.actPos]
		quantum := q.js.weight * drrQuantum
		// No banking: a queue visited while already flush holds at most one
		// quantum, so a briefly-idle tenant cannot burst.
		q.deficit = min(q.deficit+quantum, quantum)
		if q.deficit > 0 {
			s.cur = q
			return q
		}
		// Still repaying bag debt: the deposit was the instalment.
	}
}

// hit records a task popped from q: one unit of its credit is spent.
func (s *jobSched) hit(q *workerJQ) {
	s.misses = 0
	q.deficit--
}

// miss records an empty pop: q forfeits unspent credit (no banking while
// unbacklogged) but never debt — a bag-heavy tenant whose queue momentarily
// drains still repays before its next turn. A private queue leaves the
// rotation until its next push; a shared one stays, counted against the miss
// bound, because another worker's push may be in flight.
func (s *jobSched) miss(q *workerJQ) {
	s.cur = nil
	q.deficit = min(q.deficit, 0)
	if s.shared {
		s.misses++
		return
	}
	s.deactivate(q)
}

// charge withdraws n more tasks from q's balance: the contents of a bag whose
// marker paid for one. The balance may go negative.
func (s *jobSched) charge(q *workerJQ, n int64) {
	q.deficit -= n
}
