package runtime

// Tests for the fault layer: panic isolation, retry/quarantine, the Drain
// deadline and watchdog diagnostics, and overflow flow control. The pinned
// regression is TestEnginePanicDoesNotWedgeDrain — before the fault layer, a
// panicking handler killed its worker goroutine and Drain blocked forever.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// fnWorkload adapts a process function to workload.Workload for engine-level
// fault tests (the engine never touches Graph/InitialTasks/Verify).
type fnWorkload struct {
	fn func(t task.Task, emit func(task.Task)) int
}

func (w *fnWorkload) Name() string              { return "fault-test" }
func (w *fnWorkload) Graph() *graph.CSR         { return nil }
func (w *fnWorkload) Reset()                    {}
func (w *fnWorkload) InitialTasks() []task.Task { return nil }
func (w *fnWorkload) Clone() workload.Workload  { return w }
func (w *fnWorkload) Verify() error             { return nil }

func (w *fnWorkload) Process(t task.Task, emit func(task.Task)) int {
	return w.fn(t, emit)
}

// checkLedger asserts the conservation invariant at quiescence:
// Submitted + Spawned == Processed + BagsRetired + Quarantined + Cancelled,
// Outstanding 0.
func checkLedger(t *testing.T, s Snapshot) {
	t.Helper()
	if s.Outstanding != 0 {
		t.Fatalf("outstanding %d at quiescence, want 0", s.Outstanding)
	}
	in := s.Submitted + s.Spawned
	out := s.TasksProcessed + s.BagsRetired + s.Quarantined + s.Cancelled
	if in != out {
		t.Fatalf("ledger violated: submitted %d + spawned %d = %d, processed %d + bagsRetired %d + quarantined %d + cancelled %d = %d",
			s.Submitted, s.Spawned, in, s.TasksProcessed, s.BagsRetired, s.Quarantined, s.Cancelled, out)
	}
}

// Pinned regression: a panicking task handler used to kill its worker
// goroutine, stranding the poison task's outstanding count and wedging Drain
// forever. Now the panic quarantines the task, the worker survives, and the
// engine keeps accepting and processing work.
func TestEnginePanicDoesNotWedgeDrain(t *testing.T) {
	const poison = graph.NodeID(13)
	var processed atomic.Int64
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		if tk.Node == poison {
			panic("poisoned task")
		}
		processed.Add(1)
		return 1
	}}
	e := NewEngine(w, Config{Workers: 2})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ts := make([]task.Task, 0, 16)
	for i := 0; i < 16; i++ {
		ts = append(ts, task.Task{Node: graph.NodeID(i), Prio: int64(i)})
	}
	if err := e.Submit(ts...); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatalf("Drain after handler panic = %v (the pre-fault-layer wedge)", err)
	}
	q := e.Quarantined()
	if len(q) != 1 || q[0].Task.Node != poison {
		t.Fatalf("quarantine = %v, want exactly the poison task", q)
	}
	if q[0].Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (zero-value policy: no retries)", q[0].Attempts)
	}
	if !strings.Contains(q[0].String(), "poisoned task") {
		t.Fatalf("quarantine record lost the panic value: %s", q[0].String())
	}
	if got := processed.Load(); got != 15 {
		t.Fatalf("processed %d healthy tasks, want 15", got)
	}
	// The worker that caught the panic must still be alive: more work after
	// the fault has to complete.
	processed.Store(0)
	if err := e.Submit(task.Task{Node: 100}, task.Task{Node: 101}); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatalf("Drain after fault = %v", err)
	}
	if got := processed.Load(); got != 2 {
		t.Fatalf("post-fault processed = %d, want 2 (worker died?)", got)
	}
	checkLedger(t, e.Snapshot())
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
}

// Retry: a task that panics on its first attempts but succeeds within the
// budget is processed normally and leaves no quarantine record.
func TestEngineRetrySucceeds(t *testing.T) {
	const flaky = graph.NodeID(7)
	var attempts, processed atomic.Int64
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		if tk.Node == flaky && attempts.Add(1) < 3 {
			panic("transient fault")
		}
		processed.Add(1)
		return 1
	}}
	e := NewEngine(w, Config{Workers: 2, Retry: RetryPolicy{MaxAttempts: 3}})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(task.Task{Node: flaky}, task.Task{Node: 1}, task.Task{Node: 2}); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if q := e.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantine = %v, want empty (task recovered on retry)", q)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("flaky task ran %d times, want 3 (2 panics + 1 success)", got)
	}
	if got := processed.Load(); got != 3 {
		t.Fatalf("processed %d, want 3", got)
	}
	// The retry map must be empty again after success (retrying gate closed).
	if got := e.faults.retrying.Load(); got != 0 {
		t.Fatalf("retrying = %d after success, want 0", got)
	}
	checkLedger(t, e.Snapshot())
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
}

// Exhausted retries quarantine with the full attempt history, and the ledger
// still balances with spawned children in flight.
func TestEngineQuarantineAfterRetries(t *testing.T) {
	const poison = graph.NodeID(99)
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		if tk.Node == poison {
			panic("permanent fault")
		}
		// Healthy tasks fan out two generations of children.
		if tk.Data > 0 {
			for i := uint64(0); i < 4; i++ {
				emit(task.Task{Node: tk.Node + 1000*graph.NodeID(i+1), Prio: tk.Prio + 1, Data: tk.Data - 1})
			}
		}
		return 1
	}}
	e := NewEngine(w, Config{Workers: 4, Retry: RetryPolicy{MaxAttempts: 2}})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ts := []task.Task{{Node: poison}}
	for i := 0; i < 8; i++ {
		ts = append(ts, task.Task{Node: graph.NodeID(i), Prio: int64(i), Data: 2})
	}
	if err := e.Submit(ts...); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	q := e.Quarantined()
	if len(q) != 1 || q[0].Attempts != 2 {
		t.Fatalf("quarantine = %v, want poison task after 2 attempts", q)
	}
	s := e.Snapshot()
	if s.Quarantined != 1 {
		t.Fatalf("Snapshot.Quarantined = %d, want 1", s.Quarantined)
	}
	// 8 roots with Data=2 → 32 children (Data=1) → 128 grandchildren: the
	// spawned side of the ledger must cover every generation.
	if s.Spawned < 160 {
		t.Fatalf("spawned = %d, want >= 160 (children + bag units)", s.Spawned)
	}
	checkLedger(t, s)
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
}

// Drain with an expired deadline returns a *StallError wrapping the ctx
// error, carrying per-worker diagnostics instead of blocking forever.
func TestEngineDrainDeadlineStallError(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		started <- struct{}{}
		<-gate
		return 1
	}}
	e := NewEngine(w, Config{Workers: 2})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(task.Task{Node: 1}); err != nil {
		t.Fatal(err)
	}
	<-started // the task is definitely stuck in its handler
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := e.Drain(ctx)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("Drain = %v, want *StallError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("StallError must wrap the ctx error, got %v", se.Err)
	}
	if se.Op != "drain" || se.Outstanding != 1 || se.Submitted != 1 || len(se.Workers) != 2 {
		t.Fatalf("diagnostics wrong: %+v", se)
	}
	if !strings.Contains(se.Error(), "outstanding 1") {
		t.Fatalf("Error() lost the ledger: %s", se.Error())
	}
	close(gate) // release the handler; the engine must finish cleanly
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatalf("Drain after release = %v", err)
	}
	checkLedger(t, e.Snapshot())
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
}

// The liveness watchdog: with StallTimeout set, a fleet making no ledger
// progress turns Drain's infinite wait into a StallError wrapping ErrStalled
// even under a background context.
func TestEngineDrainWatchdogStall(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		started <- struct{}{}
		<-gate
		return 1
	}}
	e := NewEngine(w, Config{Workers: 2, StallTimeout: 50 * time.Millisecond})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(task.Task{Node: 1}); err != nil {
		t.Fatal(err)
	}
	<-started
	err := e.Drain(context.Background())
	var se *StallError
	if !errors.As(err, &se) || !errors.Is(err, ErrStalled) {
		t.Fatalf("Drain = %v, want *StallError wrapping ErrStalled", err)
	}
	close(gate)
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatalf("Drain after release = %v", err)
	}
	checkLedger(t, e.Snapshot())
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
}

// Flow control: flooding a blocked worker saturates its ring and bounded
// overflow, and further sends bounce back to the sender's local queue
// (Snapshot.Redirects) instead of growing the overflow without bound. No
// task is lost: once the victim unblocks, everything processes.
func TestEngineOverflowRedirectsToSender(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	const fanout = 2000
	var processed atomic.Int64
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		switch tk.Data {
		case 1: // the victim's blocker
			started <- struct{}{}
			<-gate
		case 2: // the flood generator
			for i := 0; i < fanout; i++ {
				emit(task.Task{Node: graph.NodeID(1000 + i), Prio: 10})
			}
		}
		processed.Add(1)
		return 1
	}}
	e := NewEngine(w, Config{
		Workers:     2,
		RingSize:    8,
		OverflowCap: 16,
		FixedTDF:    100, // always distribute: every child targets the victim
		Seed:        1,
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// A Submit's round-robin starts at its epoch: the first call lands index
	// 0 on worker 0 and index 1 on worker 1, the second the other way round.
	// Block worker 1 first, then flood from worker 0.
	if err := e.Submit(task.Task{Node: 1, Prio: 0, Data: 0}, task.Task{Node: 2, Prio: 0, Data: 1}); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := e.Submit(task.Task{Node: 3, Prio: 0, Data: 0}, task.Task{Node: 4, Prio: 0, Data: 2}); err != nil {
		t.Fatal(err)
	}
	// Wait for the flow-control bounce to appear, then release the victim.
	deadline := time.Now().Add(10 * time.Second)
	for e.Snapshot().Redirects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no redirects despite a saturated destination")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if s.Redirects == 0 {
		t.Fatal("redirects lost")
	}
	if got := processed.Load(); got != fanout+4 {
		t.Fatalf("processed %d, want %d (flow control must not lose tasks)", got, fanout+4)
	}
	checkLedger(t, s)
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
}

// A panicking handler's partially emitted children are discarded: effects
// land exactly once, on the attempt that completes.
func TestEnginePanicDiscardsPartialChildren(t *testing.T) {
	const flaky = graph.NodeID(5)
	var attempts atomic.Int64
	var mu sync.Mutex
	children := map[graph.NodeID]int{}
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		if tk.Node == flaky {
			emit(task.Task{Node: 500, Prio: 1}) // emitted, then the panic hits
			if attempts.Add(1) < 2 {
				panic("mid-emit fault")
			}
			emit(task.Task{Node: 501, Prio: 1})
			return 1
		}
		mu.Lock()
		children[tk.Node]++
		mu.Unlock()
		return 1
	}}
	e := NewEngine(w, Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 2}})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(task.Task{Node: flaky}); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if children[500] != 1 || children[501] != 1 {
		t.Fatalf("children = %v, want exactly one of each (discard on panic, emit on success)", children)
	}
	checkLedger(t, e.Snapshot())
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
}

// Retry backoff is applied (linearly per attempt) without breaking ledger
// accounting.
func TestEngineRetryBackoff(t *testing.T) {
	var attempts atomic.Int64
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		if attempts.Add(1) < 3 {
			panic("transient")
		}
		return 1
	}}
	e := NewEngine(w, Config{Workers: 1, Retry: RetryPolicy{MaxAttempts: 3, Backoff: 5 * time.Millisecond}})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := e.Submit(task.Task{Node: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	// attempt 1 backs off 5ms, attempt 2 backs off 10ms.
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("drain returned after %v, want >= 15ms of backoff", d)
	}
	if q := e.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantine = %v, want empty", q)
	}
	checkLedger(t, e.Snapshot())
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
}
