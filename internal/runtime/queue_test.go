package runtime

// The local queue behind the engine (QueueKind selection, the twolevel
// kind's fallback counter) and the batched dequeue→process loop
// (restart-requeue of an interrupted batch, correctness across workloads
// and batch sizes).

import (
	"sync/atomic"
	"testing"

	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/pq"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// TestQueueKindSelection pins the QueueKind → concrete queue mapping of a
// worker's queue for a job, including the devirtualized tl and mq views the
// engine's hot path relies on: a multiqueue worker holds a handle into the
// job's shared structure.
func TestQueueKindSelection(t *testing.T) {
	cases := []struct {
		cfg      Config
		twoLevel bool
		multi    bool
	}{
		{Config{}, true, false},
		{Config{QueueKind: QueueTwoLevel}, true, false},
		{Config{QueueKind: QueueHeap}, false, false},
		{Config{QueueKind: QueueDHeap}, false, false},
		{Config{QueueKind: QueueMultiQueue}, false, true},
	}
	for _, c := range cases {
		cfg := c.cfg.withDefaults()
		js := newJobState(0, &fnWorkload{}, JobConfig{}, cfg)
		jq := newWorkerJQ(cfg, js, 0)
		q := jq.queue
		if (jq.tl != nil) != c.twoLevel || (jq.mq != nil) != c.multi || (js.mq != nil) != c.multi {
			t.Errorf("QueueKind %q: tl %v, mq %v, job's shared structure %v", c.cfg.QueueKind, jq.tl != nil, jq.mq != nil, js.mq != nil)
		}
		_, isTL := q.(*pq.TwoLevel)
		if isTL != c.twoLevel {
			t.Errorf("QueueKind %q: twolevel=%v, want %v", c.cfg.QueueKind, isTL, c.twoLevel)
		}
		_, isMQ := q.(*pq.MQHandle)
		if isMQ != c.multi {
			t.Errorf("QueueKind %q: multiqueue=%v, want %v", c.cfg.QueueKind, isMQ, c.multi)
		}
		// Whatever the shape, it must behave as a priority queue.
		q.Push(task.Task{Node: 2, Prio: 20})
		q.Push(task.Task{Node: 1, Prio: 10})
		if got, ok := q.Pop(); !ok || got.Node != 1 {
			t.Errorf("QueueKind %q: first pop = %+v/%v, want node 1", c.cfg.QueueKind, got, ok)
		}
	}
}

// TestEngineQueueKinds runs every workload to completion under each queue
// kind: results must verify exactly regardless of the queue shape.
func TestEngineQueueKinds(t *testing.T) {
	road := graph.Road(24, 24, 3)
	web := graph.Web(400, 5)
	cases := []struct {
		wl string
		g  *graph.CSR
	}{
		{"sssp", road}, {"bfs", road}, {"astar", road},
		{"color", web}, {"pagerank", web},
	}
	for _, kind := range QueueKinds() {
		for _, c := range cases {
			w, err := workload.New(c.wl, c.g)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(4)
			cfg.QueueKind = kind
			snap, _ := solve(t, w, cfg)
			if err := w.Verify(); err != nil {
				t.Errorf("%s/%s: %v", kind, c.wl, err)
			}
			if snap.TasksProcessed <= 0 {
				t.Errorf("%s/%s: no tasks processed", kind, c.wl)
			}
		}
	}
}

// TestEngineQueueCounters checks the twolevel kind's health counters end to
// end. A strictly decreasing stream — the rewind storm that used to migrate
// the queue to its heap — must stay on the bucket ring and drain exactly;
// a priority span no ring can hold must fall back exactly once per queue,
// and lose nothing doing it. HotSpills has nothing left to count.
func TestEngineQueueCounters(t *testing.T) {
	run := func(t *testing.T, w *antiMonotoneWorkload) Snapshot {
		e := NewEngine(w, Config{Workers: 1})
		_ = e.Submit(w.InitialTasks()...)
		_ = e.Start()
		if err := e.Drain(testCtx(t)); err != nil {
			t.Fatal(err)
		}
		// The fallback count publishes at park or exit, which the lone worker
		// reaches after Drain has returned: read it once Stop has joined it.
		_ = e.Stop(testCtx(t))
		snap := e.Snapshot()
		if got := w.processed.Load(); got != int64(w.depth)+1 {
			t.Errorf("processed %d tasks, want %d", got, w.depth+1)
		}
		if snap.Outstanding != 0 {
			t.Errorf("outstanding %d after drain", snap.Outstanding)
		}
		if snap.HotSpills != 0 {
			t.Errorf("HotSpills = %d from a queue with no hot buffer", snap.HotSpills)
		}
		return snap
	}
	t.Run("decreasing-no-fallback", func(t *testing.T) {
		if snap := run(t, &antiMonotoneWorkload{depth: 4096}); snap.QueueFallbacks != 0 {
			t.Errorf("QueueFallbacks = %d on a stream that only rewinds the cursor", snap.QueueFallbacks)
		}
	})
	t.Run("span-overflow-fallback", func(t *testing.T) {
		// Node n at priority -(n << 20): three live classes already span
		// more than the ring's 64Ki buckets.
		if snap := run(t, &antiMonotoneWorkload{depth: 4096, shift: 20}); snap.QueueFallbacks != 1 {
			t.Errorf("QueueFallbacks = %d, want exactly 1 for the one queue", snap.QueueFallbacks)
		}
	})
}

// antiMonotoneWorkload spawns a wide frontier whose priorities strictly
// decrease with depth — the adversarial stream for a monotone bucket store.
// Node n at priority -(n << shift) spawns children n+1..n+3 (capped at
// depth), so the queue holds many tasks while every push rewinds below the
// current front.
type antiMonotoneWorkload struct {
	depth     int
	shift     uint
	processed atomic.Int64
	seen      []atomic.Bool
}

func (w *antiMonotoneWorkload) Name() string      { return "anti-monotone" }
func (w *antiMonotoneWorkload) Graph() *graph.CSR { return nil }
func (w *antiMonotoneWorkload) Reset() {
	w.processed.Store(0)
	w.seen = make([]atomic.Bool, w.depth+1)
}
func (w *antiMonotoneWorkload) InitialTasks() []task.Task {
	return []task.Task{{Node: 0, Prio: 0}}
}
func (w *antiMonotoneWorkload) Process(t task.Task, emit func(task.Task)) int {
	if w.seen[t.Node].Swap(true) {
		return 0 // duplicate: already expanded
	}
	w.processed.Add(1)
	for c := int(t.Node) + 1; c <= int(t.Node)+3 && c <= w.depth; c++ {
		emit(task.Task{Node: graph.NodeID(c), Prio: -int64(c) << w.shift})
	}
	return 1
}
func (w *antiMonotoneWorkload) Clone() workload.Workload {
	return &antiMonotoneWorkload{depth: w.depth, shift: w.shift}
}
func (w *antiMonotoneWorkload) Verify() error { return nil }

// TestBatchRestartRequeue pins the restart-requeue contract directly: a
// worker that dies mid-batch must, on restart, put the popped but
// not-yet-started tail back into its queue — and not the in-flight task.
func TestBatchRestartRequeue(t *testing.T) {
	w, err := workload.New("sssp", graph.Road(4, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, Config{Workers: 1})
	me := &e.workers[0]
	for i := 0; i < 4; i++ {
		me.batch[i] = task.Task{Node: graph.NodeID(i), Prio: int64(i)}
	}
	// Simulate a crash while processing batch[1]: 0 done, 1 in flight.
	me.batchPos, me.batchLen = 1, 4
	e.stop.Store(true) // the restarted loop must exit right after the requeue
	e.runWorker(0)
	if me.batchLen != 0 {
		t.Fatalf("batchLen = %d after restart, want 0", me.batchLen)
	}
	// The next batch fill pops what the restart put back.
	if n := e.fillBatch(me); n != 2 || me.batch[0].Node != 2 || me.batch[1].Node != 3 {
		t.Fatalf("requeued tail = %v, want nodes [2 3]", me.batch[:n])
	}
}

// TestBatchCarriesQueue drives a two-worker, three-job run by hand, one
// cycle of each worker in turn, and checks every dequeue batch: the queue
// stored beside each task is the worker's queue for that task's job, the one
// the loop used to look up per task, and so is the queue stored beside each
// unit the batch kept for the next cycle start. Job 1 is cancelled mid-run, so batches
// are also filled around a cancellation sweep; the other two jobs must still
// solve, and every ledger must balance.
func TestBatchCarriesQueue(t *testing.T) {
	newW := func(name string, g *graph.CSR) workload.Workload {
		w, err := workload.New(name, g)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	ws := []workload.Workload{
		newW("sssp", graph.Road(24, 24, 1)),
		newW("sssp", graph.Road(24, 24, 2)),
		newW("pagerank", graph.Web(600, 3)),
	}
	e := NewEngine(ws[0], DefaultConfig(2))
	if err := e.Submit(ws[0].InitialTasks()...); err != nil {
		t.Fatal(err)
	}
	jobs := []*Job{e.DefaultJob()}
	for _, w := range ws[1:] {
		j, err := e.NewJob(w, JobConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Submit(w.InitialTasks()...); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	batches := 0
	for round := 0; e.outstanding.Load() > 0; round++ {
		if round > 1_000_000 {
			t.Fatalf("no quiescence after %d rounds: outstanding %d", round, e.outstanding.Load())
		}
		if round == 20 {
			// What Job.Cancel does before it waits for the job to drain.
			jobs[1].js.cancelled.Store(true)
		}
		for id := range e.workers {
			me := &e.workers[id]
			n := e.cycleStart(me)
			for i := 0; i < n; i++ {
				if want := me.sched.queue(e.jobStateFor(me.batch[i].Job)); me.batchQ[i] != want {
					t.Fatalf("round %d worker %d: batchQ[%d] is job %d's queue, task is job %d's",
						round, id, i, me.batchQ[i].js.id, me.batch[i].Job)
				}
			}
			batches += min(n, 1)
			e.runBatch(me, n)
			for _, k := range me.kept {
				if k.q != nil && k.q != me.sched.queue(e.jobStateFor(k.t.Job)) {
					t.Fatalf("round %d worker %d: a job %d unit was kept for job %d's queue",
						round, id, k.t.Job, k.q.js.id)
				}
			}
			if n == 0 {
				e.settle(me)
				e.flush(me)
			}
		}
	}
	s := e.Snapshot()
	checkLedger(t, s)
	checkJobLedgers(t, s)
	if batches < 100 || s.Jobs[1].CancelledTasks == 0 {
		t.Errorf("%d batches, job 1 cancelled %d tasks: the run did not exercise a mid-run cancel",
			batches, s.Jobs[1].CancelledTasks)
	}
	for _, i := range []int{0, 2} {
		if err := ws[i].Verify(); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
}

// panicOnceHook panics out of one drain mid-run, through the transport's
// fault hook: an engine-internal fault (not a task panic), which must restart
// the worker loop, not kill it — and the run must still finish exactly. It
// panics on a drain that found nothing, so no drained task dies with it.
type panicOnceHook struct {
	drains   atomic.Int64
	panicked atomic.Bool
}

func (*panicOnceHook) Refuse(int, int, task.Task) bool { return false }
func (*panicOnceHook) Holding(int) bool                { return false }

func (p *panicOnceHook) Filter(_ int, ts []task.Task, from int) []task.Task {
	if p.drains.Add(1) >= 40 && len(ts) == from && p.panicked.CompareAndSwap(false, true) {
		panic("injected transport fault")
	}
	return ts
}

// TestEngineRestartMidRun injects one engine-level panic into a running
// batched fleet: the worker restarts (Snapshot still coherent, restart
// counted) and the workload completes with an exact result.
func TestEngineRestartMidRun(t *testing.T) {
	w, err := workload.New("bfs", graph.Road(48, 48, 5))
	if err != nil {
		t.Fatal(err)
	}
	pt := &panicOnceHook{}
	cfg := DefaultConfig(4)
	cfg.Faults = pt
	e := NewEngine(w, cfg)
	_ = e.Submit(w.InitialTasks()...)
	_ = e.Start()
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	_ = e.Stop(testCtx(t))
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if !pt.panicked.Load() {
		t.Skip("fleet drained before the fault window (timing-dependent)")
	}
	if got := e.total(obs.CWorkerRestarts); got != 1 {
		t.Errorf("worker restarts = %d, want 1", got)
	}
}

// TestEngineRankCounters runs every queue kind with observability on and
// checks the scheduling-quality counters end to end: each kind must sample
// its pops, the strict kinds must report exactly zero inversions (the bench
// gate's structural canary), multiqueue's rank error must stay bounded —
// and without a recorder the counters must stay untouched.
func TestEngineRankCounters(t *testing.T) {
	run := func(kind string, rec *obs.Recorder) (Snapshot, *Engine) {
		w, err := workload.New("sssp", graph.Road(32, 32, 3))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(4)
		cfg.QueueKind = kind
		cfg.Obs = rec
		e := NewEngine(w, cfg)
		_ = e.Submit(w.InitialTasks()...)
		_ = e.Start()
		if err := e.Drain(testCtx(t)); err != nil {
			t.Fatal(err)
		}
		snap := e.Snapshot()
		_ = e.Stop(testCtx(t))
		if err := w.Verify(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		return snap, e
	}
	for _, kind := range QueueKinds() {
		t.Run(kind, func(t *testing.T) {
			snap, e := run(kind, obs.New(obs.Config{Workers: 4, SampleEvery: 4}))
			sums := traceTotals(t, e)
			if snap.RankSamples == 0 {
				t.Fatal("no pops were rank-sampled with obs enabled")
			}
			if got := sums[obs.CRankSamples.String()]; got != snap.RankSamples {
				t.Errorf("trace rank_samples = %d, snapshot %d", got, snap.RankSamples)
			}
			if kind == QueueMultiQueue {
				if snap.PrioInversions > 0 && snap.RankErrorMax <= 0 {
					t.Error("inversions counted but max rank error never published")
				}
				// The witness rank is bounded by the shard count by construction.
				if max, shards := snap.RankErrorMax, int64(4*4); max > shards {
					t.Errorf("rank error %d exceeds the %d-shard witness bound", max, shards)
				}
				return
			}
			if snap.PrioInversions != 0 || snap.RankErrorSum != 0 {
				t.Errorf("strict kind %s reported %d inversions (sum %d): queue bug",
					kind, snap.PrioInversions, snap.RankErrorSum)
			}
		})
	}
	t.Run("disabled", func(t *testing.T) {
		snap, _ := run(QueueMultiQueue, nil)
		if snap.RankSamples != 0 || snap.PrioInversions != 0 {
			t.Errorf("rank counters moved without a recorder: %+v", snap)
		}
	})
}
