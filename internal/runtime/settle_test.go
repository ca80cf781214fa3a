package runtime

// Tests for the per-batch ledger (worker.acct's settle-before-ship rule) and
// the dispatch gate. None of them sleeps or depends on how fast the host is:
// the recording transport checks at the engine's own transport calls, the
// white-box tests drive an un-started engine by hand, and the snapshot poll
// asserts properties that hold for any number of snapshots, zero included.

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

// ledgerTransport wraps the stock transport and, at every Send, Flush and
// Recv, checks that the engine's outstanding counts — global and per job —
// cover at least the units it holds in flight (handed to it and not yet
// received; a bag marker counts one, which only lowers the bound). A count
// below that is a child that became visible before its ledger entry.
type ledgerTransport struct {
	Transport
	eng *Engine
	// handed and received are per job, indexed by task.JobID.
	handed, received [2]atomic.Int64

	mu   sync.Mutex
	errs []string
}

func (lt *ledgerTransport) fail(format string, args ...any) {
	lt.mu.Lock()
	if len(lt.errs) < 8 {
		lt.errs = append(lt.errs, fmt.Sprintf(format, args...))
	}
	lt.mu.Unlock()
}

// check reads handed, then the count, then received: all three only grow
// while the count can fall, so the estimate is at most the true in-flight
// number at the moment the count was read.
func (lt *ledgerTransport) check(site string) {
	var h [2]int64
	for j := range h {
		h[j] = lt.handed[j].Load()
	}
	out := lt.eng.Outstanding()
	jobs := lt.eng.Snapshot().Jobs
	var inFlight int64
	for j := range jobs {
		f := h[j] - lt.received[j].Load()
		inFlight += f
		if o := jobs[j].Outstanding; o < 0 || o < f {
			lt.fail("%s: job %d outstanding %d, in flight %d", site, j, o, f)
		}
	}
	if out < 0 || out < inFlight {
		lt.fail("%s: outstanding %d, in flight %d", site, out, inFlight)
	}
}

func (lt *ledgerTransport) Send(src, dst int, t task.Task) []task.Task {
	lt.handed[t.Job].Add(1)
	rej := lt.Transport.Send(src, dst, t)
	for _, r := range rej {
		lt.handed[r.Job].Add(-1)
	}
	lt.check("send")
	return rej
}

func (lt *ledgerTransport) Flush(src int) []task.Task {
	rej := lt.Transport.Flush(src)
	for _, r := range rej {
		lt.handed[r.Job].Add(-1)
	}
	lt.check("flush")
	return rej
}

func (lt *ledgerTransport) Recv(id int, dst []task.Task) []task.Task {
	n := len(dst)
	dst = lt.Transport.Recv(id, dst)
	for _, t := range dst[n:] {
		lt.received[t.Job].Add(1)
	}
	lt.check("recv")
	return dst
}

func (lt *ledgerTransport) Inject(id int, ts []task.Task) {
	for _, t := range ts {
		lt.handed[t.Job].Add(1)
	}
	lt.Transport.Inject(id, ts)
}

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
			lt := &ledgerTransport{}
			cfg.NewTransport = func(c Config) Transport {
				lt.Transport = NewDefaultTransport(c)
				return lt
			}
			ws := tc.ws
			e := NewEngine(ws[0], cfg)
			lt.eng = e
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
					if err := j.Submit(ws[i].InitialTasks()...); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Drain(testCtx(t)); err != nil {
					t.Fatal(err)
				}
			}
			snap := e.Snapshot()
			if err := e.Stop(testCtx(t)); err != nil {
				t.Fatal(err)
			}
			for _, msg := range lt.errs {
				t.Error(msg)
			}
			var handed int64
			for j := range lt.handed {
				if h, r := lt.handed[j].Load(), lt.received[j].Load(); h != r {
					t.Errorf("job %d: %d handed to the transport, %d received", j, h, r)
				} else {
					handed += h
				}
			}
			if handed < 100 {
				t.Errorf("only %d tasks crossed the transport: the check saw next to nothing", handed)
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

// gateEngine builds an un-started two-worker engine that would send every
// child remotely (fixed TDF 100) and queues k tasks on worker 0.
func gateEngine(t *testing.T, kind string, k int) (*Engine, *worker, *workerJQ) {
	t.Helper()
	e := NewEngine(mustWorkload(t, "sssp", graph.Road(4, 4, 1)),
		Config{Workers: 2, FixedTDF: 100, QueueKind: kind, Seed: 1})
	me := &e.workers[0]
	for i := 0; i < k; i++ {
		me.qpush(task.Task{Node: graph.NodeID(i), Prio: int64(i)})
	}
	return e, me, me.jobQueue(e.jobStateFor(0))
}

func TestDispatchGate(t *testing.T) {
	batchK := Config{}.withDefaults().BatchK
	child := task.Task{Node: 9, Prio: 99}
	bag := task.Task{Node: bagMarker, Prio: 99}
	for _, kind := range []string{QueueTwoLevel, QueueDHeap, QueueHeap} {
		for _, k := range []int{0, 1, batchK - 1} {
			for _, unit := range []task.Task{child, bag} {
				e, me, q := gateEngine(t, kind, k)
				e.dispatch(0, me, q, unit)
				if got := q.queue.Len(); got != k+1 || e.pending(0) != 0 || me.keptLocal != 1 {
					t.Errorf("%s, %d queued (< BatchK %d): queue %d, pending %d, keptLocal %d; want the unit kept local",
						kind, k, batchK, got, e.pending(0), me.keptLocal)
				}
			}
		}
		for _, k := range []int{batchK, 3 * batchK} {
			e, me, q := gateEngine(t, kind, k)
			e.dispatch(0, me, q, child)
			if got := q.queue.Len(); got != k || e.pending(0) != 1 || me.keptLocal != 0 {
				t.Errorf("%s, %d queued (>= BatchK %d): queue %d, pending %d, keptLocal %d; want the unit in the transport",
					kind, k, batchK, got, e.pending(0), me.keptLocal)
			}
		}
	}
	// The shared multiqueue is not gated: an empty queue still scatters.
	e, me, q := gateEngine(t, QueueMultiQueue, 0)
	e.dispatch(0, me, q, child)
	if e.pending(0) != 1 || me.keptLocal != 0 {
		t.Errorf("multiqueue, empty queue: pending %d, keptLocal %d; want the gate bypassed", e.pending(0), me.keptLocal)
	}
	// One worker has nowhere to send and nothing to gate.
	e1 := NewEngine(mustWorkload(t, "sssp", graph.Road(4, 4, 1)), Config{Workers: 1, FixedTDF: 100})
	me1 := &e1.workers[0]
	e1.dispatch(0, me1, me1.jobQueue(e1.jobStateFor(0)), child)
	if me1.keptLocal != 0 {
		t.Errorf("single worker counted %d units kept by the gate", me1.keptLocal)
	}
}

// TestScatterDistribution holds the one-draw placement to what the two draws
// it replaced gave: a unit leaves with probability TDF percent, lands on each
// of the other workers equally often, and never on its own.
func TestScatterDistribution(t *testing.T) {
	const draws = 400_000
	for _, n := range []int{2, 5} {
		for _, tdf := range []int64{0, 5, 50, 100} {
			for _, id := range []int{0, n - 1} {
				rng := graph.NewRNG(uint64(97*n) + uint64(tdf) + uint64(id))
				hits := make([]int, n)
				for i := 0; i < draws; i++ {
					hits[scatter(rng.Uint64(), tdf, id, n)]++
				}
				remote := draws - hits[id]
				if (tdf == 0 && remote != 0) || (tdf == 100 && hits[id] != 0) {
					t.Errorf("n=%d tdf=%d id=%d: %d units left, %d stayed", n, tdf, id, remote, hits[id])
				}
				if got := 100 * float64(remote) / draws; got < float64(tdf)-0.5 || got > float64(tdf)+0.5 {
					t.Errorf("n=%d tdf=%d id=%d: %.2f%% of units left, want %d%%", n, tdf, id, got, tdf)
				}
				for d, h := range hits {
					want := float64(remote) / float64(n-1)
					if d != id && (float64(h) < 0.95*want || float64(h) > 1.05*want) {
						t.Errorf("n=%d tdf=%d id=%d: worker %d got %d of %d remote units, want ~%.0f",
							n, tdf, id, d, h, remote, want)
					}
				}
			}
		}
	}
}

// The stock transport's half of the settle-before-ship rule: deltas stay
// deferred while a destination batch fills, and are settled by the time the
// Send that completes it hands the batch to the other worker.
func TestSendSettlesBeforeShip(t *testing.T) {
	e, me, q := gateEngine(t, QueueTwoLevel, 0)
	batch := sendBatch
	e.outstanding.Store(1) // the parent being processed
	q.js.outstanding.Store(1)
	for i := 1; i <= 2*batch; i++ {
		// What processOne records for a task with one child.
		me.spawned++
		q.dSpawned++
		q.dOut++
		me.acct++
		me.markDirty(q)
		e.send(me, 1, task.Task{Node: graph.NodeID(i), Prio: int64(i)})
		delivered := len(e.rt.Recv(1, nil))
		switch {
		case i%batch != 0:
			if delivered != 0 || me.acct == 0 || e.Outstanding() != int64(1+(i/batch)*batch) {
				t.Fatalf("send %d: delivered %d, deferred %d, outstanding %d; want the delta still deferred",
					i, delivered, me.acct, e.Outstanding())
			}
		default:
			snap := e.Snapshot()
			if delivered != batch || me.acct != 0 || snap.Outstanding != int64(1+i) ||
				snap.Jobs[0].Outstanding != int64(1+i) || snap.Spawned != int64(i) || snap.Jobs[0].Spawned != int64(i) {
				t.Fatalf("send %d: delivered %d, deferred %d, outstanding %d/%d, spawned %d/%d; want all %d settled before the batch shipped",
					i, delivered, me.acct, snap.Outstanding, snap.Jobs[0].Outstanding, snap.Spawned, snap.Jobs[0].Spawned, i)
			}
		}
	}
}

// A multiqueue push lands in a structure the fleet shares, so it is preceded
// by a settle; a push into a strict kind's private queue leaves the same
// deltas deferred.
func TestMultiQueuePushSettles(t *testing.T) {
	for _, kind := range []string{QueueMultiQueue, QueueTwoLevel} {
		e, me, q := gateEngine(t, kind, 0)
		e.outstanding.Store(1)
		q.js.outstanding.Store(1)
		// What processOne records for a task with two children.
		me.spawned += 2
		q.dSpawned += 2
		q.dOut += 2
		me.acct += 2
		me.markDirty(q)
		e.push(me, task.Task{Node: 1, Prio: 1})
		want, deferred := int64(3), int64(0)
		if kind == QueueTwoLevel {
			want, deferred = 1, 2
		}
		if got := e.Outstanding(); got != want || q.js.outstanding.Load() != want || me.acct != deferred {
			t.Errorf("%s: outstanding %d (job %d), deferred %d after a push with two children unsettled; want %d and %d",
				kind, got, q.js.outstanding.Load(), me.acct, want, deferred)
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

// Result's worker-local diagnostics are filled once the fleet has stopped:
// bagged tasks for a workload that bags, the gate's share for one with a
// narrow frontier.
func TestResultBaggedAndKeptLocal(t *testing.T) {
	pr := mustWorkload(t, "pagerank", graph.Web(2000, 5))
	res := Run(pr, DefaultConfig(2))
	if res.BagsCreated == 0 || res.BaggedTasks < res.BagsCreated {
		t.Errorf("pagerank: %d bags holding %d tasks", res.BagsCreated, res.BaggedTasks)
	}
	sp := mustWorkload(t, "sssp", graph.Road(32, 32, 3))
	res = Run(sp, DefaultConfig(2))
	if res.KeptLocal == 0 || res.KeptLocal > res.Dispatched {
		t.Errorf("sssp: gate kept %d of %d dispatched units", res.KeptLocal, res.Dispatched)
	}
	if one := Run(sp, DefaultConfig(1)); one.KeptLocal != 0 {
		t.Errorf("one worker: gate kept %d units", one.KeptLocal)
	}
}
