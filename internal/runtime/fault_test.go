package runtime

// Tests for the fault layer: panic isolation and quarantine, the Drain
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

	"hdcps/internal/bag"
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

// TestEnginePanicResumesBatchAndBag pins where the loop goes on after a
// handler panics: the recover frame belongs to the dequeue batch and to the
// opened bag, not to each task, so the tasks after the poisoned one in the
// same batch, and in the same bag, must still run, the bag must still
// retire, and the ledger must balance. One worker is driven by hand.
func TestEnginePanicResumesBatchAndBag(t *testing.T) {
	ran := map[graph.NodeID]bool{}
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		switch tk.Node {
		case 3, 12:
			panic("poisoned task")
		case 0:
			for c := graph.NodeID(1); c <= 6; c++ {
				emit(task.Task{Node: c, Prio: 20})
			}
		}
		ran[tk.Node] = true
		return 1
	}}
	e := NewEngine(w, Config{Workers: 1})
	// One batch of eight with node 12 in the middle, then node 0, whose six
	// children form one bag with node 3 in the middle.
	ts := []task.Task{{Node: 0, Prio: 10}}
	for n := graph.NodeID(10); n < 18; n++ {
		ts = append(ts, task.Task{Node: n, Prio: 1})
	}
	if err := e.Submit(ts...); err != nil {
		t.Fatal(err)
	}
	me := &e.workers[0]
	for e.outstanding.Load() > 0 {
		n := e.cycleStart(me)
		if n == 0 {
			t.Fatalf("queue empty with %d outstanding", e.outstanding.Load())
		}
		e.runBatch(me, n)
	}
	for _, n := range []graph.NodeID{0, 1, 2, 4, 5, 6, 10, 11, 13, 14, 15, 16, 17} {
		if !ran[n] {
			t.Errorf("node %d never ran", n)
		}
	}
	me.publish()
	s := e.Snapshot()
	checkLedger(t, s)
	if s.Quarantined != 2 || s.BagsCreated != 1 || s.BagsRetired != 1 {
		t.Errorf("quarantined %d, bags created %d retired %d; want 2, 1, 1",
			s.Quarantined, s.BagsCreated, s.BagsRetired)
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

// A panic quarantines its task on the first attempt at W = 4 while healthy
// tasks fan out two generations of children around it: the poison task runs
// once, leaves one record, and the global and the per-job ledger both balance
// with the spawned side covering every generation.
func TestEngineQuarantineOnFirstPanic(t *testing.T) {
	const poison = graph.NodeID(99)
	var runs atomic.Int64
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		if tk.Node == poison {
			runs.Add(1)
			panic("permanent fault")
		}
		if tk.Data > 0 {
			for i := uint64(0); i < 4; i++ {
				emit(task.Task{Node: tk.Node + 1000*graph.NodeID(i+1), Prio: tk.Prio + 1, Data: tk.Data - 1})
			}
		}
		return 1
	}}
	e := NewEngine(w, Config{Workers: 4})
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
	if got := runs.Load(); got != 1 {
		t.Fatalf("poison task ran %d times, want 1 (quarantined on its first panic)", got)
	}
	q := e.Quarantined()
	if len(q) != 1 || q[0].Task.Node != poison {
		t.Fatalf("quarantine = %v, want the poison task once", q)
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
	j0 := s.Jobs[0]
	if j0.Quarantined != 1 || j0.Outstanding != 0 ||
		j0.Submitted+j0.Spawned != j0.Processed+j0.BagsRetired+j0.Quarantined+j0.CancelledTasks {
		t.Fatalf("job ledger unbalanced: %+v", j0)
	}
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
	snap := se.Snapshot
	if se.Op != "drain" || se.Job != nil || snap.Outstanding != 1 || snap.Submitted != 1 || len(snap.Workers) != 2 {
		t.Fatalf("diagnostics wrong: %+v", se)
	}
	// The stuck worker is busy; its idle peer has parked or is about to.
	msg := se.Error()
	for _, want := range []string{"drain stalled", "deadline exceeded", "all jobs' outstanding 1", "submitted 1",
		"processed 0", "quarantined 0", "cancelled 0", "/2 workers parked"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() lacks %q: %s", want, msg)
		}
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
// task is lost: once the victim unblocks, everything processes. The flood is
// more than ringSize + overflowCap children, each in a priority group of its
// own so none of them bags.
func TestEngineOverflowRedirectsToSender(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	const fanout = ringSize + overflowCap + 1000
	var processed atomic.Int64
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		switch tk.Data {
		case 1: // the victim's blocker
			started <- struct{}{}
			<-gate
		case 2: // the flood generator
			for i := 0; i < fanout; i++ {
				emit(task.Task{Node: graph.NodeID(1000 + i), Prio: int64(i) << bag.DefaultPolicy().QuantShift})
			}
		}
		processed.Add(1)
		return 1
	}}
	e := NewEngine(w, Config{
		Workers: 2,
		Drift:   fixedTDF(100), // always distribute: every child targets the victim
		Seed:    1,
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// A Submit's blocks start at its epoch: the first call lands index 0 on
	// worker 0 and index 1 on worker 1, the second the other way round.
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

// A panicking handler's partially emitted children are discarded: the child
// it emitted before the panic is never processed and never enters Spawned,
// and the task is quarantined exactly once.
func TestEnginePanicDiscardsPartialChildren(t *testing.T) {
	const flaky = graph.NodeID(5)
	var mu sync.Mutex
	ran := map[graph.NodeID]int{}
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		mu.Lock()
		ran[tk.Node]++
		mu.Unlock()
		if tk.Node == flaky {
			emit(task.Task{Node: 500, Prio: 1}) // emitted, then the panic hits
			panic("mid-emit fault")
		}
		return 1
	}}
	e := NewEngine(w, Config{Workers: 1})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(task.Task{Node: flaky}, task.Task{Node: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran[flaky] != 1 || ran[500] != 0 || ran[1] != 1 {
		t.Fatalf("runs = %v, want the flaky task and its sibling once and the orphan child never", ran)
	}
	if q := e.Quarantined(); len(q) != 1 || q[0].Task.Node != flaky {
		t.Fatalf("quarantine = %v, want the flaky task once", q)
	}
	s := e.Snapshot()
	if s.Spawned != 0 || s.Quarantined != 1 || s.TasksProcessed != 1 {
		t.Fatalf("spawned %d, quarantined %d, processed %d; want 0, 1, 1", s.Spawned, s.Quarantined, s.TasksProcessed)
	}
	checkLedger(t, s)
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
}
