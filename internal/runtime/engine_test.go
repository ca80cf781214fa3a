package runtime

import (
	"context"
	"errors"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// Submit-while-running: a drained (parked) fleet must wake on Submit and
// reach quiescence again, every time — the lost-wakeup regression test for
// the park/wake handshake.
func TestEngineSubmitWhileRunning(t *testing.T) {
	g := graph.Road(16, 16, 3)
	w, err := workload.New("sssp", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, DefaultConfig(4))
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	initial := w.InitialTasks()
	const rounds = 50
	for i := 0; i < rounds; i++ {
		if err := e.Submit(initial...); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if err := e.Drain(ctx); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	snap := e.Snapshot()
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != rounds {
		t.Errorf("epoch %d, want %d", snap.Epoch, rounds)
	}
	if snap.Outstanding != 0 {
		t.Errorf("outstanding %d after drain", snap.Outstanding)
	}
	final := e.Snapshot()
	if final.TasksProcessed <= 0 {
		t.Fatal("no tasks processed")
	}
	var parks int64
	for _, ws := range final.Workers {
		parks += ws.IdleParks
	}
	if parks == 0 {
		t.Error("fleet never parked across 50 drain cycles")
	}
}

// A single-worker engine exercises the park/wake path hardest: every drain
// parks the only worker, and every submit must wake it.
func TestEngineSingleWorkerSubmitCycles(t *testing.T) {
	g := graph.Road(10, 10, 7)
	w, err := workload.New("bfs", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, Config{Workers: 1})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	initial := w.InitialTasks()
	for i := 0; i < 200; i++ {
		if err := e.Submit(initial...); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if err := e.Drain(ctx); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Stop with an already-cancelled context must return promptly with the
// context's error while the fleet winds down in the background.
func TestEngineStopCancelledContext(t *testing.T) {
	g := graph.Road(64, 64, 7)
	w, err := workload.New("sssp", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, DefaultConfig(2))
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(w.InitialTasks()...); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := e.Stop(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stop(cancelled) = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("Stop(cancelled) took %v, want prompt return", d)
	}
	// A second Stop with a live context joins the winding-down fleet.
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	// Work was abandoned mid-run: Submit and Drain must now refuse.
	if err := e.Submit(w.InitialTasks()...); err != ErrStopped {
		t.Fatalf("Submit after Stop = %v, want ErrStopped", err)
	}
}

// Concurrent Submit from many goroutines racing the draining workers; run
// under -race this is the lifecycle's data-race hammer. With raceStart the
// submitters are already going when Start runs: whichever side of the state
// change a call lands on, it takes the one way in, the receive rings, so
// every task is counted, drained and processed.
func TestEngineConcurrentSubmit(t *testing.T) {
	for _, raceStart := range []bool{false, true} {
		g := graph.Road(12, 12, 5)
		w, err := workload.New("bfs", g)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(w, DefaultConfig(3))
		if !raceStart {
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
		}
		initial := w.InitialTasks()
		const submitters = 8
		const perSubmitter = 100
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					if err := e.Submit(initial...); err != nil {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}()
		}
		if raceStart {
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		ctx := testCtx(t)
		if err := e.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		if err := e.Stop(ctx); err != nil {
			t.Fatal(err)
		}
		if err := w.Verify(); err != nil {
			t.Fatal(err)
		}
		snap := e.Snapshot()
		checkLedger(t, snap)
		// Every submitted instance of the seed task must have been processed.
		if want := int64(submitters * perSubmitter * len(initial)); snap.Submitted != want || snap.TasksProcessed < want {
			t.Fatalf("raceStart %v: submitted %d, processed %d; want %d submitted and at least as many processed",
				raceStart, snap.Submitted, snap.TasksProcessed, want)
		}
		if got := snap.Epoch; got != submitters*perSubmitter {
			t.Fatalf("raceStart %v: epoch %d, want %d", raceStart, got, submitters*perSubmitter)
		}
	}
}

// Snapshot must be readable while workers are mid-run, and once the engine
// has stopped its totals are the sums of its worker rows.
func TestEngineSnapshot(t *testing.T) {
	g := graph.Road(48, 48, 9) // 2,304 seeds: 576 a worker

	w, err := workload.New("pagerank", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, DefaultConfig(4))
	// The seeds reach a fleet not yet started, more than a ring's worth a
	// worker, so the rings spill to overflow and the counter moves.
	if err := e.Submit(w.InitialTasks()...); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var live Snapshot
	for {
		live = e.Snapshot()
		if live.TasksProcessed > 0 || time.Now().After(deadline) {
			break
		}
	}
	if live.TasksProcessed <= 0 {
		t.Fatal("snapshot never observed progress")
	}
	if len(live.Workers) != 4 {
		t.Fatalf("snapshot has %d workers, want 4", len(live.Workers))
	}
	ctx := testCtx(t)
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	final := e.Snapshot()
	var processed, bags int64
	for i, ws := range final.Workers {
		processed += ws.Processed
		bags += ws.Bags
		if ws.Parked {
			t.Errorf("worker %d reads parked after Stop", i)
		}
	}
	if final.TasksProcessed != processed || final.BagsCreated != bags {
		t.Errorf("totals %d tasks, %d bags; worker rows sum to %d, %d",
			final.TasksProcessed, final.BagsCreated, processed, bags)
	}
	if final.TasksProcessed < live.TasksProcessed || final.EdgesExamined <= 0 {
		t.Errorf("final snapshot %d tasks (live read %d), %d edges",
			final.TasksProcessed, live.TasksProcessed, final.EdgesExamined)
	}
	var spills int64
	for _, ws := range final.Workers {
		spills += ws.OverflowSpills
	}
	if spills == 0 {
		t.Errorf("%d seeds to 4 workers before Start never spilled past %d-slot rings", len(w.InitialTasks()), ringSize)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Drain must honor context cancellation when quiescence is not reached.
func TestEngineDrainCancelled(t *testing.T) {
	g := graph.Road(64, 64, 11)
	w, err := workload.New("sssp", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, DefaultConfig(2))
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(w.InitialTasks()...); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// The run may legitimately finish inside Drain's spin phase on a fast
	// machine (nil); anything other than that or Canceled is a bug.
	if err := e.Drain(cancelled); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain(cancelled) = %v", err)
	}
	ctx := testCtx(t)
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestEngineLifecycleErrors(t *testing.T) {
	g := graph.Road(8, 8, 1)
	w, err := workload.New("bfs", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, Config{Workers: 2})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Fatal("second Start must error")
	}
	ctx := testCtx(t)
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatalf("repeated Stop must be idempotent, got %v", err)
	}

	// A never-started engine stops cleanly.
	e2 := NewEngine(w.Clone(), Config{Workers: 2})
	if err := e2.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e2.Submit(w.InitialTasks()...); err != ErrStopped {
		t.Fatalf("Submit on stopped engine = %v, want ErrStopped", err)
	}
}

// A Submit's spread starts at the submission epoch, so a stream of
// one-task calls covers the fleet instead of piling onto worker 0. A call
// hands out contiguous blocks, the first len%W of them one task longer,
// block k to the k-th worker from the epoch's: the same before Start, when
// the blocks wait in the rings, as on a running fleet.
func TestSubmitRotatesAcrossWorkers(t *testing.T) {
	const workers = 3
	for _, started := range []bool{false, true} {
		// The hook sees each drain of a worker's receive side, by the owner or
		// a thief alike, so it records the ring every task was injected into.
		hook := &landingHook{at: map[uint64]int{}}
		e := NewEngine(newLeafWorkload(), Config{Workers: workers, Faults: hook})
		if started {
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
		}
		// want is where each task (named by its Data) must land: the epoch
		// counts the calls, so call c starts at worker c%W.
		want, calls := map[uint64]int{}, 0
		submit := func(sizes ...int) {
			first := calls % workers
			calls++
			var batch []task.Task
			for k, n := range sizes {
				for ; n > 0; n-- {
					id := uint64(len(want))
					want[id] = (first + k) % workers
					batch = append(batch, task.Task{Data: id})
				}
			}
			if err := e.Submit(batch...); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4*workers; i++ {
			submit(1)
		}
		// Two 7-task calls: blocks of 3, 2 and 2, the second call's starting
		// one worker on.
		submit(3, 2, 2)
		submit(3, 2, 2)
		if !started {
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(testCtx(t)); err != nil {
			t.Fatal(err)
		}
		if err := e.Stop(testCtx(t)); err != nil {
			t.Fatal(err)
		}
		for id := uint64(0); id < uint64(len(want)); id++ {
			if got, ok := hook.at[id]; !ok || got != want[id] {
				t.Errorf("started %v: task %d landed on worker %d (seen %v), want worker %d", started, id, got, ok, want[id])
			}
		}
	}
}

// landingHook records, for every task drained from a worker's receive side,
// which worker's side it was, and otherwise delivers as it is.
type landingHook struct {
	mu sync.Mutex
	at map[uint64]int // by the task's Data
}

func (h *landingHook) Refuse(int, int, task.Task) bool { return false }
func (h *landingHook) Holding(int) bool                { return false }
func (h *landingHook) Filter(id int, ts []task.Task, from int) []task.Task {
	h.mu.Lock()
	for _, t := range ts[from:] {
		h.at[t.Data] = id
	}
	h.mu.Unlock()
	return ts
}

// submitSettled Submits batch to a running e and spins, without Drain's
// ticker, until the fleet has retired it: the rings are empty again, so the
// next call spills nothing to overflow.
func submitSettled(tb testing.TB, e *Engine, batch []task.Task) {
	if err := e.Submit(batch...); err != nil {
		tb.Fatal(err)
	}
	for e.outstanding.Load() != 0 {
		stdruntime.Gosched()
	}
}

// A Submit into a running fleet allocates nothing: each worker's share is a
// contiguous block of the caller's slice, which Inject copies into its ring.
// 256 tasks is one flush of an acked serve stream.
func TestEngineSubmitAllocatesNothing(t *testing.T) {
	e := NewEngine(newLeafWorkload(), Config{Workers: 2})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	batch := make([]task.Task, 256)
	for i := 0; i < 8; i++ {
		submitSettled(t, e, batch)
	}
	allocs := testing.AllocsPerRun(200, func() { submitSettled(t, e, batch) })
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a 256-task Submit into a running two-worker fleet allocates %v objects, want 0", allocs)
	}
}

// BenchmarkEngineSubmit is TestEngineSubmitAllocatesNothing's shape as a
// benchmark: one 256-task Submit into a running two-worker fleet, and the
// wait for the fleet to retire it.
func BenchmarkEngineSubmit(b *testing.B) {
	e := NewEngine(newLeafWorkload(), Config{Workers: 2})
	if err := e.Start(); err != nil {
		b.Fatal(err)
	}
	batch := make([]task.Task, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitSettled(b, e, batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/task")
	if err := e.Stop(context.Background()); err != nil {
		b.Fatal(err)
	}
}
