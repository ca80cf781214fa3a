package runtime

// Steal-when-behind's tests: victim is a table over published fronts, and
// the steal itself runs on an un-started engine whose queues and rings the
// test fills by hand. Only the idle-poll test starts a goroutine, to hold the
// worker's lock against it.

import (
	"testing"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/task"
)

func TestStealVictim(t *testing.T) {
	const self = 0
	for _, tc := range []struct {
		name   string
		fronts []int64 // published, index = worker
		mine   int64
		want   int
	}{
		{"the best peer beating mine", []int64{0, 9, 3, noFront}, 8, 2},
		{"none beats mine", []int64{0, 9, 8, noFront}, 8, -1},
		{"a tie is not better", []int64{0, 8}, 8, -1},
		{"my own slot never counts", []int64{1, 9}, 5, -1},
		{"an empty thief takes any front", []int64{0, noFront, 40}, noFront, 2},
		{"nobody holds anything", []int64{noFront, noFront}, noFront, -1},
	} {
		fronts := newFronts(len(tc.fronts))
		for i, p := range tc.fronts {
			fronts[i].set(p)
		}
		if got := victim(fronts, self, tc.mine); got != tc.want {
			t.Errorf("%s: victim %d, want %d", tc.name, got, tc.want)
		}
	}
}

// stealEngine builds an un-started engine of workers strict queues, with the
// given fault hook (nil for none), and fills worker i's queue for job 0 with
// prios[i], exposing each as a cycle start would.
func stealEngine(t *testing.T, faults FaultHook, prios ...[]int64) *Engine {
	t.Helper()
	e := NewEngine(&fnWorkload{}, Config{Workers: len(prios), Seed: 1, Faults: faults})
	for i, ps := range prios {
		me := &e.workers[i]
		q := me.sched.queue(e.jobStateFor(0))
		for _, p := range ps {
			e.push(me, task.Task{Node: graph.NodeID(p), Prio: p})
		}
		e.expose(me, q)
	}
	return e
}

func span(lo, hi int64) []int64 {
	var ps []int64
	for p := lo; p < hi; p++ {
		ps = append(ps, p)
	}
	return ps
}

func TestStealTakes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		own, peer []int64
		moved     int   // tasks the thief takes
		front     int64 // the peer's republished front
	}{
		{"strictly better tasks only", []int64{10}, []int64{1, 2, 3, 4, 5, 10, 20}, 5, 10},
		{"capped at 16", []int64{100}, span(0, 40), stealCap, 16},
		{"half of the peer when the thief is empty", nil, span(0, 10), 5, 5},
		{"half rounds up", nil, []int64{7, 8, 9}, 2, 9},
		{"half, still capped at 16", nil, span(0, 40), stealCap, 16},
		{"the peer's front is no better", []int64{1}, []int64{1, 2}, 0, 1},
	} {
		e := stealEngine(t, nil, tc.own, tc.peer)
		js := e.jobStateFor(0)
		me, peer := &e.workers[0], &e.workers[1]
		before := front(me.sched.queue(js))
		e.steal(me, js)
		mine, theirs := me.sched.queue(js), peer.sched.queue(js)
		if me.stolen != int64(tc.moved) || mine.len() != len(tc.own)+tc.moved || theirs.len() != len(tc.peer)-tc.moved {
			t.Errorf("%s: stolen %d, thief holds %d, peer %d; want %d moved", tc.name,
				me.stolen, mine.len(), theirs.len(), tc.moved)
		}
		if got := js.fronts[1].p.Load(); got != tc.front {
			t.Errorf("%s: peer's published front %d, want %d", tc.name, got, tc.front)
		}
		// Whatever moved was better than the thief's own best.
		if tc.moved > 0 && front(mine) >= before {
			t.Errorf("%s: thief's front %d after the steal, %d before", tc.name, front(mine), before)
		}
		if tc.moved > 0 && !mine.active {
			t.Errorf("%s: the thief's queue left out of its rotation", tc.name)
		}
	}
}

// The thief drains the peer's ring under the peer's lock. An arrival for a job
// the peer has a queue for joins that queue (and a better one is then stolen
// with the rest); an arrival for a job the peer has no queue for, or of a
// cancelled job, goes through the thief's own push — the peer's queue set
// never grows, and a cancelled unit lands in the thief's ledger.
//
// With a fault hook attached the drain goes through it, and one that injects
// nothing leaves the steal as it is.
func TestStealDrainsPeerRing(t *testing.T) {
	for _, faults := range hooks {
		t.Run(hookName(faults), func(t *testing.T) { testStealDrainsPeerRing(t, faults) })
	}
}

func testStealDrainsPeerRing(t *testing.T, faults FaultHook) {
	e := stealEngine(t, faults, []int64{50}, []int64{10, 60})
	other, err := e.NewJob(&fnWorkload{}, JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := e.NewJob(&fnWorkload{}, JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gone.js.cancelled.Store(true)
	me, peer := &e.workers[0], &e.workers[1]
	e.transport.Inject(1, []task.Task{
		{Node: 1, Prio: 5},         // job 0: into the peer's queue, then stolen
		{Node: 2, Prio: 70},        // job 0: stays with the peer
		{Node: 3, Prio: 1, Job: 1}, // job 1: the peer has no queue for it
		{Node: 4, Prio: 1, Job: 2}, // job 2: cancelled
		{Node: 5, Prio: 2, Job: 2}, // job 2: cancelled
		{Node: 6, Prio: 100},       // job 0: stays with the peer
	})
	js := e.jobStateFor(0)
	e.steal(me, js)
	if q := peer.sched.lookup(other.ID()); q != nil {
		t.Error("the thief materialized a queue on the peer for a job it had none for")
	}
	if q := peer.sched.lookup(gone.ID()); q != nil {
		t.Error("the thief materialized a queue on the peer for the cancelled job")
	}
	if q := me.sched.lookup(other.ID()); q == nil || q.len() != 1 {
		t.Error("the arrival for a job the peer lacks did not reach the thief's queue")
	}
	if q := me.sched.lookup(gone.ID()); q == nil || q.delta.cancelled != 2 || q.len() != 0 {
		t.Error("the cancelled arrivals did not land in the thief's ledger")
	}
	// Job 0: the thief (front 50) takes 5 and 10; 60, 70 and 100 stay.
	if mine, theirs := me.sched.queue(js), peer.sched.queue(js); mine.len() != 3 || theirs.len() != 3 || front(theirs) != 60 {
		t.Errorf("job 0: thief holds %d, peer %d with front %d; want 3, 3 and 60", mine.len(), theirs.len(), front(theirs))
	}
	if got := js.fronts[1].p.Load(); got != 60 {
		t.Errorf("peer's published front %d, want 60", got)
	}
	// Two from the peer's queue, three arrivals of jobs it could not take.
	if me.stolen != 5 {
		t.Errorf("stolen %d, want 5", me.stolen)
	}
}

// Work another worker ships to a peer counts toward the peer's published
// front before the peer has drained it, so a peer that is not running cannot
// hide it. A Submit's injection does not count: it spreads over the fleet by
// itself. A fault hook that injects nothing changes none of it.
func TestShippedLowersFront(t *testing.T) {
	for _, faults := range hooks {
		t.Run(hookName(faults), func(t *testing.T) { testShippedLowersFront(t, faults) })
	}
}

func testShippedLowersFront(t *testing.T, faults FaultHook) {
	e := stealEngine(t, faults, []int64{50}, []int64{40})
	js := e.jobStateFor(0)
	me := &e.workers[0]
	ship := func(prios ...int64) {
		for _, p := range prios {
			e.send(me, 1, task.Task{Node: graph.NodeID(p), Prio: p})
		}
		e.flush(me)
	}
	ship(45, 30)
	if got := js.fronts[1].p.Load(); got != 30 {
		t.Errorf("peer's front %d after a shipment with best 30, want 30", got)
	}
	ship(35)
	if got := js.fronts[1].p.Load(); got != 30 {
		t.Errorf("peer's front %d after a worse shipment, want 30 kept", got)
	}
	e.transport.Inject(1, []task.Task{{Node: 9, Prio: 1}})
	if got := js.fronts[1].p.Load(); got != 30 {
		t.Errorf("peer's front %d after a Submit's injection, want 30 kept", got)
	}
}

// A locked peer is skipped, never waited on: the thief's steal returns with
// nothing and the peer's queue untouched.
func TestStealSkipsLockedPeer(t *testing.T) {
	e := stealEngine(t, nil, []int64{50}, []int64{1, 2})
	me, peer := &e.workers[0], &e.workers[1]
	peer.mu.Lock()
	e.steal(me, e.jobStateFor(0))
	peer.mu.Unlock()
	if me.stolen != 0 || peer.sched.queue(e.jobStateFor(0)).len() != 2 {
		t.Errorf("stole %d from a locked peer", me.stolen)
	}
}

// An idle worker polls without its lock: with nothing kept, nothing in its
// rotation, no steal due and an empty ring, its cycle start returns at once
// even while a thief holds the lock, and a peer's batch landing in its ring
// still reaches the next batch. Arrivals a fault hook holds keep the poll from
// skipping: a held batch would otherwise wait for a poll that never comes.
func TestIdlePollSkipsLock(t *testing.T) {
	e := stealEngine(t, nil, nil, nil)
	me, peer := &e.workers[0], &e.workers[1]
	me.mu.Lock() // as a thief would hold it
	done := make(chan int)
	go func() { done <- e.cycleStart(me) }()
	select {
	case n := <-done:
		if n != 0 {
			t.Errorf("idle poll filled %d", n)
		}
	case <-time.After(10 * time.Second):
		me.mu.Unlock()
		<-done
		t.Fatal("an idle worker's poll waited on its own lock")
	}
	me.mu.Unlock()
	e.send(peer, 0, task.Task{Node: 1, Prio: 1})
	e.flush(peer)
	if n := e.cycleStart(me); n != 1 {
		t.Errorf("cycle start after a shipped task filled %d, want 1", n)
	}

	h := &holdOnce{}
	e = stealEngine(t, h, nil, nil)
	me, peer = &e.workers[0], &e.workers[1]
	e.send(peer, 0, task.Task{Node: 1, Prio: 1})
	e.flush(peer)
	if n := e.cycleStart(me); n != 0 || !h.Holding(0) {
		t.Fatalf("the hook's first drain delivered %d, want it held", n)
	}
	if n := e.cycleStart(me); n != 1 {
		t.Errorf("cycle start with a held arrival filled %d, want 1: the poll skipped it", n)
	}
}

// hooks are the fault hooks a steal test runs under: none, and one that
// injects nothing.
var hooks = []FaultHook{nil, noopHook{}}

func hookName(h FaultHook) string {
	if h == nil {
		return "bare"
	}
	return "hooked"
}

// noopHook refuses nothing and delivers every drain as it is.
type noopHook struct{}

func (noopHook) Refuse(int, int, task.Task) bool                 { return false }
func (noopHook) Filter(_ int, ts []task.Task, _ int) []task.Task { return ts }
func (noopHook) Holding(int) bool                                { return false }

// holdOnce holds the first batch it drains until the next drain, as a chaos
// delay would.
type holdOnce struct {
	held []task.Task
	done bool
}

func (*holdOnce) Refuse(int, int, task.Task) bool { return false }
func (h *holdOnce) Holding(int) bool              { return len(h.held) > 0 }

func (h *holdOnce) Filter(_ int, ts []task.Task, from int) []task.Task {
	switch {
	case len(h.held) > 0:
		ts = append(ts, h.held...)
		h.held = nil
	case !h.done && len(ts) > from:
		h.held = append(h.held, ts[from:]...)
		h.done = true
		ts = ts[:from]
	}
	return ts
}

// One worker and multiqueue have nobody to steal from: no front slots, no
// kept buffer, no exposed length.
func TestStealOffWithoutPeers(t *testing.T) {
	for _, cfg := range []Config{{Workers: 1}, {Workers: 2, QueueKind: QueueMultiQueue}} {
		e := NewEngine(&fnWorkload{}, cfg)
		if e.steals || e.jobStateFor(0).fronts != nil {
			t.Errorf("%d workers, %q: the fleet steals", cfg.Workers, cfg.QueueKind)
		}
		me := &e.workers[0]
		e.keep(me, nil, task.Task{Node: 1, Prio: 1})
		if len(me.kept) != 0 || me.sched.queue(e.jobStateFor(0)).len() != 1 {
			t.Errorf("%d workers, %q: a kept unit waited for a cycle start", cfg.Workers, cfg.QueueKind)
		}
	}
}
