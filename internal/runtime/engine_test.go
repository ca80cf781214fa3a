package runtime

import (
	"context"
	"errors"
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
// under -race this is the lifecycle's data-race hammer.
func TestEngineConcurrentSubmit(t *testing.T) {
	g := graph.Road(12, 12, 5)
	w, err := workload.New("bfs", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, DefaultConfig(3))
	if err := e.Start(); err != nil {
		t.Fatal(err)
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
	// Every submitted instance of the seed task must have been processed.
	if min := int64(submitters * perSubmitter * len(initial)); snap.TasksProcessed < min {
		t.Fatalf("processed %d tasks, want >= %d", snap.TasksProcessed, min)
	}
	if got := snap.Epoch; got != submitters*perSubmitter {
		t.Fatalf("epoch %d, want %d", got, submitters*perSubmitter)
	}
}

// Snapshot must be readable while workers are mid-run, and once the engine
// has stopped its totals are the sums of its worker rows.
func TestEngineSnapshot(t *testing.T) {
	g := graph.Road(32, 32, 9)
	w, err := workload.New("pagerank", g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4)
	cfg.RingSize = 8 // force overflow spills so the counter moves
	e := NewEngine(w, cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(w.InitialTasks()...); err != nil {
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
		t.Error("8-slot rings under pagerank never spilled to overflow")
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

// A Submit's round-robin starts at the submission epoch, so a stream of
// one-task calls spreads over the fleet instead of piling onto worker 0.
func TestSubmitRotatesAcrossWorkers(t *testing.T) {
	const workers = 3
	e := NewEngine(&fnWorkload{}, Config{Workers: workers})
	for i := 0; i < 4*workers; i++ {
		if err := e.Submit(task.Task{Node: graph.NodeID(i), Prio: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range e.workers {
		if got := e.workers[i].sched.queue(e.jobStateFor(0)).queue.Len(); got != 4 {
			t.Errorf("worker %d holds %d of %d one-task submits, want 4", i, got, 4*workers)
		}
	}
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
}
