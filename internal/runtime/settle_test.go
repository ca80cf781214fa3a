package runtime

// The ledger's contract tests (ledger.go: settle before ship, the publication
// order, the global move equal to the per-job moves). None of them sleeps or
// depends on how fast the host is: the recording fault hook checks at the
// engine's own transport calls, the white-box tests drive the ledger's verbs
// on an un-started engine, and the snapshot poll asserts properties that hold
// for any number of snapshots, zero included.

import (
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hdcps/internal/graph"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// ledgerHook watches the transport through the fault hook and, at every Send
// and every drain, checks that the engine's outstanding counts — global and
// per job — cover at least the units in flight: shipped by a worker or
// injected by a Submit, and not yet drained (a bag marker counts one, which
// only lowers the bound). A count below that is a child that became visible
// before its ledger entry. It refuses nothing and delivers every drain as is,
// so the engine under test is the production one.
type ledgerHook struct {
	eng *Engine
	// Per worker and job: sent counts the tasks the worker handed to Send
	// (its goroutine alone writes it), shipped how many of them had left its
	// send buffers as of its last Send. Per job: injected counts what the
	// test's Submits have returned from, received what drains delivered.
	sent     [][2]int64
	shipped  [][2]atomic.Int64
	injected [2]atomic.Int64
	received [2]atomic.Int64

	mu   sync.Mutex
	errs []string
}

func newLedgerHook(workers int) *ledgerHook {
	return &ledgerHook{sent: make([][2]int64, workers), shipped: make([][2]atomic.Int64, workers)}
}

func (lh *ledgerHook) fail(format string, args ...any) {
	lh.mu.Lock()
	if len(lh.errs) < 8 {
		lh.errs = append(lh.errs, fmt.Sprintf(format, args...))
	}
	lh.mu.Unlock()
}

// check reads shipped and injected, then the counts, then received: the first
// two only grow while a count can fall, and received only grows, so the
// estimate is at most the true in-flight number at the moment a count was
// read. It lags — a worker's shipments show at its next Send, a Submit's once
// it has returned — which only weakens the bound.
func (lh *ledgerHook) check(site string) {
	var est [2]int64
	for j := range est {
		est[j] = lh.injected[j].Load()
		for w := range lh.shipped {
			est[j] += lh.shipped[w][j].Load()
		}
	}
	out := lh.eng.Outstanding()
	jobs := lh.eng.Snapshot().Jobs
	var inFlight int64
	for j := range jobs {
		f := est[j] - lh.received[j].Load()
		inFlight += f
		if o := jobs[j].Outstanding; o < 0 || o < f {
			lh.fail("%s: job %d outstanding %d, in flight %d", site, j, o, f)
		}
	}
	if out < 0 || out < inFlight {
		lh.fail("%s: outstanding %d, in flight %d", site, out, inFlight)
	}
}

// Refuse runs on the sending worker's goroutine before t is buffered: what
// the worker sent and no longer buffers has shipped (the test's overflow cap
// is never reached, so nothing bounced).
func (lh *ledgerHook) Refuse(src, _ int, t task.Task) bool {
	var buffered [2]int64
	for _, out := range lh.eng.transport.eps[src].out {
		for _, b := range out {
			buffered[b.Job]++
		}
	}
	for j := range buffered {
		lh.shipped[src][j].Store(lh.sent[src][j] - buffered[j])
	}
	lh.sent[src][t.Job]++
	lh.check("send")
	return false
}

// Filter runs on a drain, while the drained tasks are still in flight.
func (lh *ledgerHook) Filter(_ int, ts []task.Task, from int) []task.Task {
	lh.check("recv")
	for _, t := range ts[from:] {
		lh.received[t.Job].Add(1)
	}
	return ts
}

func (*ledgerHook) Holding(int) bool { return false }

// fanoutWorkload is the sharp case for the ledger check: one task's 64
// children fill whole destination batches while the parent is almost all that
// is outstanding, so a Send that ships ahead of its ledger entry reads below
// the in-flight count. Three levels, 4 161 tasks.
type fanoutWorkload struct{ fnWorkload }

func newFanoutWorkload() *fanoutWorkload {
	return &fanoutWorkload{fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		for i := 0; tk.Data < 2 && i < 64; i++ {
			emit(task.Task{Node: graph.NodeID(i), Prio: tk.Prio*64 + int64(i), Data: tk.Data + 1})
		}
		return 1
	}}}
}

func (*fanoutWorkload) InitialTasks() []task.Task { return []task.Task{{Prio: 1}} }

func mustWorkload(t *testing.T, name string, g *graph.CSR) workload.Workload {
	t.Helper()
	w, err := workload.New(name, g)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLedgerCoversInFlight(t *testing.T) {
	road, web := graph.Road(48, 48, 3), graph.Web(2000, 5)
	for _, tc := range []struct {
		name     string
		ws       []workload.Workload // one job each
		fixedTDF int                 // 0: adaptive
	}{
		{name: "sssp", ws: []workload.Workload{mustWorkload(t, "sssp", road)}},
		{name: "pagerank-bags", ws: []workload.Workload{mustWorkload(t, "pagerank", web)}},
		{name: "two-jobs", ws: []workload.Workload{mustWorkload(t, "sssp", road), mustWorkload(t, "bfs", road)}},
		{name: "fanout", ws: []workload.Workload{newFanoutWorkload()}, fixedTDF: 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			if tc.fixedTDF > 0 {
				cfg.UseTDF, cfg.FixedTDF = false, tc.fixedTDF
			}
			cfg.OverflowCap = 1 << 30 // no send ever bounces
			lh := newLedgerHook(cfg.Workers)
			cfg.Faults = lh
			ws := tc.ws
			e := NewEngine(ws[0], cfg)
			lh.eng = e
			jobs := []*Job{e.DefaultJob()}
			for _, w := range ws[1:] {
				j, err := e.NewJob(w, JobConfig{Weight: 2})
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				// Submitted to a running fleet, so the seeds go through Inject.
				for i, j := range jobs {
					seeds := ws[i].InitialTasks()
					if err := j.Submit(seeds...); err != nil {
						t.Fatal(err)
					}
					lh.injected[i].Add(int64(len(seeds)))
				}
				if err := e.Drain(testCtx(t)); err != nil {
					t.Fatal(err)
				}
			}
			snap := e.Snapshot()
			if err := e.Stop(testCtx(t)); err != nil {
				t.Fatal(err)
			}
			for _, msg := range lh.errs {
				t.Error(msg)
			}
			var sent int64
			for j := range lh.received {
				h := lh.injected[j].Load()
				for w := range lh.sent {
					h += lh.sent[w][j]
				}
				if r := lh.received[j].Load(); h != r {
					t.Errorf("job %d: %d handed to the transport, %d received", j, h, r)
				}
				sent += h - lh.injected[j].Load()
			}
			if sent < 100 {
				t.Errorf("only %d tasks crossed between workers: the check saw next to nothing", sent)
			}
			if tc.name == "pagerank-bags" && snap.BagsCreated == 0 {
				t.Error("pagerank made no bags")
			}
			checkLedger(t, snap)
			checkJobLedgers(t, snap)
			for _, w := range ws {
				if err := w.Verify(); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// ledgerEngine builds an un-started two-worker engine of the given queue kind
// and returns it with worker 0 and that worker's queue for job 0.
func ledgerEngine(t *testing.T, kind string) (*Engine, *worker, *workerJQ) {
	t.Helper()
	e := NewEngine(mustWorkload(t, "sssp", graph.Road(4, 4, 1)), Config{Workers: 2, QueueKind: kind, Seed: 1})
	me := &e.workers[0]
	return e, me, me.sched.queue(e.jobStateFor(0))
}

// The transport's half of the settle-before-ship rule: deltas stay
// deferred while a destination batch fills, and are settled by the time the
// Send that completes it hands the batch to the other worker.
func TestSendSettlesBeforeShip(t *testing.T) {
	e, me, q := ledgerEngine(t, QueueTwoLevel)
	batch := sendBatch
	e.outstanding.Store(1) // the parent being processed
	q.js.outstanding.Store(1)
	for i := 1; i <= 2*batch; i++ {
		me.led.spawn(q, 1) // the parent emits one more child
		e.send(me, 1, task.Task{Node: graph.NodeID(i), Prio: int64(i)})
		delivered := len(e.transport.Recv(1, nil))
		switch {
		case i%batch != 0:
			if delivered != 0 || q.delta.out == 0 || e.Outstanding() != int64(1+(i/batch)*batch) {
				t.Fatalf("send %d: delivered %d, deferred %d, outstanding %d; want the delta still deferred",
					i, delivered, q.delta.out, e.Outstanding())
			}
		default:
			snap := e.Snapshot()
			if delivered != batch || q.delta != (jobDelta{}) || snap.Outstanding != int64(1+i) ||
				snap.Jobs[0].Outstanding != int64(1+i) || snap.Spawned != int64(i) || snap.Jobs[0].Spawned != int64(i) {
				t.Fatalf("send %d: delivered %d, deferred %+v, outstanding %d/%d, spawned %d/%d; want all %d settled before the batch shipped",
					i, delivered, q.delta, snap.Outstanding, snap.Jobs[0].Outstanding, snap.Spawned, snap.Jobs[0].Spawned, i)
			}
		}
	}
}

// A multiqueue push lands in a structure the fleet shares, so it is preceded
// by a settle; a push into a strict kind's private queue leaves the same
// deltas deferred.
func TestMultiQueuePushSettles(t *testing.T) {
	for _, kind := range []string{QueueMultiQueue, QueueTwoLevel} {
		e, me, q := ledgerEngine(t, kind)
		e.outstanding.Store(1)
		q.js.outstanding.Store(1)
		me.led.spawn(q, 2) // a task with two children
		e.push(me, task.Task{Node: 1, Prio: 1})
		want, deferred := int64(3), int64(0)
		if kind == QueueTwoLevel {
			want, deferred = 1, 2
		}
		if got := e.Outstanding(); got != want || q.js.outstanding.Load() != want || q.delta.out != deferred {
			t.Errorf("%s: outstanding %d (job %d), deferred %d after a push with two children unsettled; want %d and %d",
				kind, got, q.js.outstanding.Load(), q.delta.out, want, deferred)
		}
	}
}

// After any sequence of verbs, one settle moves the engine's outstanding count
// by exactly the sum of the per-job moves and the worker's published totals by
// the sum of the per-job terms: what settle derives cannot part from what the
// verbs recorded.
func TestSettleGlobalMoveIsSumOfJobMoves(t *testing.T) {
	e, me, q0 := ledgerEngine(t, QueueTwoLevel)
	j1, err := e.NewJob(&fnWorkload{}, JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	qs := []*workerJQ{q0, me.sched.queue(j1.js)}
	const base = int64(1) << 40 // keeps every count positive whatever the sequence
	rng := graph.NewRNG(7)
	for round := 0; round < 200; round++ {
		e.outstanding.Store(base)
		for _, q := range qs {
			q.js.outstanding.Store(base)
		}
		for i := rng.Uint64() % 20; i > 0; i-- {
			q, n := qs[rng.Uint64()%2], int64(1+rng.Uint64()%9)
			switch rng.Uint64() % 4 {
			case 0:
				me.led.retire(q)
			case 1:
				me.led.spawn(q, n)
			case 2:
				me.led.retireBag(q)
			case 3:
				me.led.cancel(q, n)
			}
		}
		e.settle(me)
		snap := e.Snapshot()
		var jobs JobStats
		for _, j := range snap.Jobs {
			jobs.Outstanding += j.Outstanding - base
			jobs.Spawned += j.Spawned
			jobs.Processed += j.Processed
			jobs.BagsRetired += j.BagsRetired
			jobs.CancelledTasks += j.CancelledTasks
		}
		if got := snap.Outstanding - base; got != jobs.Outstanding {
			t.Fatalf("round %d: engine outstanding moved %d, the jobs' %d", round, got, jobs.Outstanding)
		}
		if snap.Spawned != jobs.Spawned || snap.TasksProcessed != jobs.Processed ||
			snap.BagsRetired != jobs.BagsRetired || snap.Cancelled != jobs.CancelledTasks {
			t.Fatalf("round %d: worker totals %d/%d/%d/%d (spawned/processed/bagsRetired/cancelled), jobs sum to %d/%d/%d/%d",
				round, snap.Spawned, snap.TasksProcessed, snap.BagsRetired, snap.Cancelled,
				jobs.Spawned, jobs.Processed, jobs.BagsRetired, jobs.CancelledTasks)
		}
		if len(me.led.dirty) != 0 || qs[0].delta != (jobDelta{}) || qs[1].delta != (jobDelta{}) {
			t.Fatalf("round %d: deltas left unsettled: %+v %+v", round, qs[0].delta, qs[1].delta)
		}
	}
}

// Mid-run snapshots of a spawning fleet: the add side may lag, the retire
// side may not lead it, nothing runs backwards, no count goes negative.
func TestSnapshotLedgerMidRun(t *testing.T) {
	for _, kind := range []string{QueueTwoLevel, QueueMultiQueue} {
		t.Run(kind, func(t *testing.T) {
			g := graph.Road(64, 64, 3)
			w0 := mustWorkload(t, "sssp", g)
			w1 := mustWorkload(t, "pagerank", graph.Web(2000, 5))
			cfg := DefaultConfig(4)
			cfg.QueueKind = kind
			e := NewEngine(w0, cfg)
			j1, err := e.NewJob(w1, JobConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			var prev Snapshot
			probe := func() {
				s := e.Snapshot()
				if s.Outstanding < 0 {
					t.Fatalf("outstanding %d", s.Outstanding)
				}
				if in, out := s.Submitted+s.Spawned, s.TasksProcessed+s.BagsRetired+s.Quarantined+s.Cancelled; in < out {
					t.Fatalf("retire side leads: submitted %d + spawned %d < processed %d + bagsRetired %d",
						s.Submitted, s.Spawned, s.TasksProcessed, s.BagsRetired)
				}
				if s.Spawned < prev.Spawned {
					t.Fatalf("spawned ran backwards: %d -> %d", prev.Spawned, s.Spawned)
				}
				for i, j := range s.Jobs {
					if j.Outstanding < 0 {
						t.Fatalf("job %d outstanding %d", i, j.Outstanding)
					}
					if in, out := j.Submitted+j.Spawned, j.Processed+j.BagsRetired+j.Quarantined+j.CancelledTasks; in < out {
						t.Fatalf("job %d retire side leads: submitted %d + spawned %d < processed %d + bagsRetired %d",
							i, j.Submitted, j.Spawned, j.Processed, j.BagsRetired)
					}
					if i < len(prev.Jobs) && j.Spawned < prev.Jobs[i].Spawned {
						t.Fatalf("job %d spawned ran backwards: %d -> %d", i, prev.Jobs[i].Spawned, j.Spawned)
					}
				}
				prev = s
			}
			for round := 0; round < 3; round++ {
				if err := e.Submit(w0.InitialTasks()...); err != nil {
					t.Fatal(err)
				}
				if err := j1.Submit(w1.InitialTasks()...); err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() { done <- e.Drain(testCtx(t)) }()
				for draining := true; draining; {
					select {
					case err := <-done:
						if err != nil {
							t.Fatal(err)
						}
						draining = false
					default:
						probe()
						stdruntime.Gosched()
					}
				}
				probe()
				checkLedger(t, prev)
				checkJobLedgers(t, prev)
			}
			if err := e.Stop(testCtx(t)); err != nil {
				t.Fatal(err)
			}
			if err := w0.Verify(); err != nil {
				t.Error(err)
			}
			if err := w1.Verify(); err != nil {
				t.Error(err)
			}
		})
	}
}

// The dispatch counts live in the workers' rows and are exact in the
// snapshot after Stop: bagged tasks for a workload that bags, the gate's
// share for one with a narrow frontier.
func TestResultBaggedAndKeptLocal(t *testing.T) {
	pr := mustWorkload(t, "pagerank", graph.Web(2000, 5))
	snap, _ := solve(t, pr, DefaultConfig(2))
	if snap.BagsCreated == 0 || snap.BaggedTasks < snap.BagsCreated {
		t.Errorf("pagerank: %d bags holding %d tasks", snap.BagsCreated, snap.BaggedTasks)
	}
	sp := mustWorkload(t, "sssp", graph.Road(32, 32, 3))
	snap, _ = solve(t, sp, DefaultConfig(2))
	if dispatched := snap.Spawned - snap.BaggedTasks; snap.KeptLocal == 0 || snap.KeptLocal > dispatched {
		t.Errorf("sssp: gate kept %d of %d dispatched units", snap.KeptLocal, dispatched)
	}
	if one, _ := solve(t, sp, DefaultConfig(1)); one.KeptLocal != 0 {
		t.Errorf("one worker: gate kept %d units", one.KeptLocal)
	}
}
