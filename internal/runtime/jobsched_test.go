package runtime

// The job scheduler's tests start no goroutine and build no engine: a
// jobSched, a few job records and their queues, driven the way the worker
// loop drives them — next, pop, then hit, miss or charge.

import (
	"testing"

	"hdcps/internal/graph"
	"hdcps/internal/task"
)

// schedFixture is one worker's scheduler over jobs of the given weights.
type schedFixture struct {
	s    *jobSched
	jobs []*jobState
	qs   []*workerJQ
}

func newSchedFixture(kind string, weights ...int) *schedFixture {
	cfg := Config{Workers: 2, QueueKind: kind, Seed: 1}.withDefaults()
	f := &schedFixture{s: &jobSched{cfg: &cfg, shared: kind == QueueMultiQueue}}
	for i, w := range weights {
		js := newJobState(task.JobID(i), &fnWorkload{}, JobConfig{Weight: w}, cfg)
		f.jobs = append(f.jobs, js)
		f.qs = append(f.qs, f.s.queue(js))
	}
	if f.s.shared {
		f.s.syncJobs(f.jobs)
	}
	return f
}

// fill queues n tasks on job j the way Engine.push does.
func (f *schedFixture) fill(j, n int) {
	q := f.qs[j]
	for i := 0; i < n; i++ {
		q.push(task.Task{Node: graph.NodeID(i), Job: task.JobID(j), Prio: int64(i)})
	}
	if !f.s.shared {
		f.s.activate(q)
	}
}

// pick is one call of next that named a queue: the job, and whether its pop
// found a task.
type pick struct {
	job int
	hit bool
}

// drive runs the loop's pop protocol until next gives up, the queue stop is
// named (and left unpopped), or budget calls have been made.
func (f *schedFixture) drive(budget int, stop *workerJQ) []pick {
	var picks []pick
	for ; budget > 0; budget-- {
		q := f.s.next()
		if q == nil || q == stop {
			break
		}
		_, ok := q.pop()
		if ok {
			f.s.hit(q)
		} else {
			f.s.miss(q)
		}
		picks = append(picks, pick{int(q.js.id), ok})
	}
	return picks
}

// hits counts the tasks popped per job.
func hits(picks []pick, jobs int) []int {
	c := make([]int, jobs)
	for _, p := range picks {
		if p.hit {
			c[p.job]++
		}
	}
	return c
}

// turns compresses a pick sequence to one entry per turn of service.
func turns(picks []pick) []int {
	var out []int
	for i, p := range picks {
		if i == 0 || p.job != picks[i-1].job {
			out = append(out, p.job)
		}
	}
	return out
}

func TestJobSchedWeightedShares(t *testing.T) {
	const n = 10_000
	f := newSchedFixture(QueueTwoLevel, 1, 2, 4)
	for j := range f.qs {
		f.fill(j, n)
	}
	for j, got := range hits(f.drive(n, nil), 3) {
		want := float64(int(1)<<j) / 7
		if share := float64(got) / n; share < want-0.02 || share > want+0.02 {
			t.Errorf("weight %d: share %.3f of %d picks, want %.3f", 1<<j, share, n, want)
		}
	}
}

// The largest weight's deposit is a positive int64 (an overflow to zero or
// below would make next spin on a queue that never gains credit), and the
// weight-1 neighbour is still served to the end.
func TestJobSchedMaxWeight(t *testing.T) {
	f := newSchedFixture(QueueTwoLevel, 1<<62, 1) // clamped to MaxJobWeight
	const heavy, light = 5000, 100
	f.fill(0, heavy)
	f.fill(1, light)
	if c := hits(f.drive(heavy+light+10, nil), 2); c[0] != heavy || c[1] != light {
		t.Fatalf("popped %v, want [%d %d]: a queue was starved", c, heavy, light)
	}
	if q := f.qs[0]; q.js.weight != MaxJobWeight || q.deficit != 0 || len(f.s.act) != 0 {
		t.Fatalf("weight %d, balance %d, %d queues in rotation after draining; want weight %d, no banked credit, none",
			q.js.weight, q.deficit, len(f.s.act), MaxJobWeight)
	}
}

// A bag marker pays for one task and the loop charges the rest when the bag
// opens. The debt is repaid one deposit per visit, the neighbour served its
// quantum between visits, and the job pops again on visit ceil(500/(w*32)),
// counting the visit that popped the bag.
func TestJobSchedBagDebt(t *testing.T) {
	const bag = 500
	for _, w := range []int{1, 2, 4} {
		f := newSchedFixture(QueueTwoLevel, w, 1)
		f.fill(0, 10)
		f.fill(1, 100_000)
		q := f.qs[0]
		f.drive(100_000, q) // up to the job's first visit
		q.pop()
		f.s.hit(q)
		f.s.charge(q, bag-1)
		between := f.drive(100_000, q)
		quantum := int64(w) * drrQuantum
		visits := (bag + quantum - 1) / quantum
		if got, want := q.deficit, visits*quantum-bag; got != want {
			t.Errorf("weight %d: balance %d when back in credit, want %d (%d visits of %d against a %d-task bag)",
				w, got, want, visits, quantum, bag)
		}
		if got, want := hits(between, 2)[1], int(visits-1)*drrQuantum; got != want {
			t.Errorf("weight %d: neighbour served %d tasks while the debt was repaid, want %d", w, got, want)
		}
	}
}

func TestJobSchedEmptyForfeitsCreditKeepsDebt(t *testing.T) {
	f := newSchedFixture(QueueTwoLevel, 1)
	q := f.qs[0]
	f.fill(0, 1)
	if picks := f.drive(10, nil); len(picks) != 2 || !picks[0].hit || picks[1].hit {
		t.Fatalf("one queued task: picks %v, want a hit then a miss", picks)
	}
	if q.deficit != 0 || q.active || len(f.s.act) != 0 {
		t.Fatalf("emptied queue: balance %d, active %v, rotation %d; want credit forfeited and the queue out",
			q.deficit, q.active, len(f.s.act))
	}
	f.fill(0, 1)
	if f.s.next() != q || q.deficit != drrQuantum {
		t.Fatalf("refilled queue: balance %d, want one quantum (%d), nothing banked", q.deficit, drrQuantum)
	}
	q.pop()
	f.s.hit(q)
	f.s.charge(q, 100)
	debt := q.deficit
	f.s.miss(q)
	if debt >= 0 || q.deficit != debt {
		t.Fatalf("emptied queue in debt: balance %d -> %d, want the debt kept", debt, q.deficit)
	}
}

// The cancel path takes a queue out of the rotation in the middle of a round:
// service resumes at the queue that followed it, and every remaining queue
// keeps exactly one turn a round.
func TestJobSchedDeactivateMidRound(t *testing.T) {
	for victim := 0; victim < 4; victim++ {
		f := newSchedFixture(QueueTwoLevel, 1, 1, 1, 1)
		for j := range f.qs {
			f.fill(j, 10_000)
		}
		order := turns(f.drive(4*drrQuantum, nil)) // one full round
		if len(order) != 4 {
			t.Fatalf("first round served %v, want each of four queues once", order)
		}
		f.drive(4*drrQuantum, f.qs[victim]) // into the next round, up to the victim's turn
		f.s.deactivate(f.qs[victim])
		after := turns(f.drive(9*drrQuantum, nil))
		var want []int // the first round's order, from the victim's successor on
		for i, j := range order {
			if j == victim {
				want = append(append(want, order[i+1:]...), order[:i]...)
			}
		}
		if len(after) != 9 {
			t.Fatalf("victim %d: %d turns in three rounds' worth of picks, want 9: %v", victim, len(after), after)
		}
		for i, j := range after {
			if j != want[i%3] {
				t.Fatalf("victim %d: turns after it left %v, want %v repeating (first round %v)", victim, after, want, order)
			}
		}
	}
}

// Under the shared regime an empty pop does not deactivate — another worker's
// push may be in flight — so consecutive misses bound the scan: a full round
// and one more, then next gives up until the loop asks again.
func TestJobSchedSharedMissBound(t *testing.T) {
	f := newSchedFixture(QueueMultiQueue, 1, 1, 1)
	if len(f.s.act) != 3 {
		t.Fatalf("syncJobs registered %d of 3 jobs", len(f.s.act))
	}
	for round := 0; round < 2; round++ {
		picks := f.drive(100, nil)
		if c := hits(picks, 3); len(picks) != 4 || c[0]+c[1]+c[2] != 0 || len(f.s.act) != 3 {
			t.Fatalf("idle shared queues: picks %v with %d still active; want 4 misses and all 3 active", picks, len(f.s.act))
		}
	}
	// A task found resets the run of misses.
	f.fill(1, 1)
	picks := f.drive(100, nil)
	at := -1
	for i, p := range picks {
		if p.hit {
			at = i
		}
	}
	if at < 0 || picks[at].job != 1 || len(picks)-1-at != 4 {
		t.Fatalf("picks %v: want job 1's task found and 4 misses after it", picks)
	}
	// A job registered later joins the rotation on the next sync; a cancelled
	// one does not.
	late := newJobState(3, &fnWorkload{}, JobConfig{}, *f.s.cfg)
	gone := newJobState(4, &fnWorkload{}, JobConfig{}, *f.s.cfg)
	gone.cancelled.Store(true)
	f.s.syncJobs(append(f.jobs, late, gone))
	if len(f.s.act) != 4 || !f.s.queue(late).active || f.s.queue(gone).active {
		t.Fatalf("after a late sync: %d active, late %v, cancelled %v",
			len(f.s.act), f.s.queue(late).active, f.s.queue(gone).active)
	}
}
