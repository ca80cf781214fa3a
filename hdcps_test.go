package hdcps

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// The facade tests exercise the public API exactly as a downstream user
// would; the heavy lifting is covered by the internal packages' suites.

func TestFacadeSimRun(t *testing.T) {
	g := Road(24, 24, 3)
	w, err := NewWorkload("sssp", g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler("hdcps-sw")
	if err != nil {
		t.Fatal(err)
	}
	run := RunSim(s, w, SoftwareMachine(8), 3)
	if run.CompletionTime <= 0 || run.TasksProcessed <= 0 {
		t.Fatalf("empty run: %+v", run)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	run.SeqTasks = SequentialTasks(w)
	if we := run.WorkEfficiency(); we <= 0 || we > 1.5 {
		t.Fatalf("work efficiency %v out of range", we)
	}
}

func TestFacadeNativeRun(t *testing.T) {
	g := Grid(16, 16, 20, 5)
	w, err := NewWorkload("bfs", g)
	if err != nil {
		t.Fatal(err)
	}
	res := RunNative(w, DefaultNativeConfig(2))
	if res.TasksProcessed <= 0 || res.Elapsed <= 0 {
		t.Fatalf("empty native run: %+v", res)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeEngineLifecycle(t *testing.T) {
	g := Road(16, 16, 5)
	w, err := NewWorkload("sssp", g)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, DefaultNativeConfig(2))
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Two waves through one fleet: the streaming shape RunNative cannot do.
	for i := 0; i < 2; i++ {
		if err := e.Submit(w.InitialTasks()...); err != nil {
			t.Fatalf("wave %d: %v", i, err)
		}
		if err := e.Drain(ctx); err != nil {
			t.Fatalf("wave %d: %v", i, err)
		}
	}
	snap := e.Snapshot()
	if snap.Epoch != 2 || snap.TasksProcessed <= 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeChaosEngine(t *testing.T) {
	g := Road(16, 16, 5)
	w, err := NewWorkload("sssp", g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultNativeConfig(2)
	cfg.Seed = 11
	mix := ChaosConfig{Seed: 11, Delay: 0.1, Reorder: 0.2, RingFull: 0.05}
	e, tp := NewChaosEngine(w, cfg, mix)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := e.Submit(w.InitialTasks()...); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if got := snap.Submitted + snap.Spawned -
		(snap.TasksProcessed + snap.BagsRetired + snap.Quarantined); got != 0 {
		t.Fatalf("conservation violated under fault injection (lost %d): %+v", got, snap)
	}
	if len(e.Quarantined()) != 0 {
		t.Fatalf("healthy workload quarantined: %v", e.Quarantined())
	}
	if tp.Stats().String() == "" {
		t.Fatal("chaos transport reported no stats")
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExecutors(t *testing.T) {
	for _, n := range ExecutorNames() {
		if _, err := NewExecutor(n); err != nil {
			t.Errorf("executor %q: %v", n, err)
		}
	}
	x, err := NewExecutor("native")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload("bfs", Road(12, 12, 2))
	if err != nil {
		t.Fatal(err)
	}
	run := x.Run(w, ExecutorSpec{Cores: 2, Seed: 1})
	if run.CompletionTime <= 0 || run.Cores != 2 {
		t.Fatalf("native executor run: %+v", run)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeNames(t *testing.T) {
	if len(WorkloadNames()) != 6 {
		t.Fatalf("workloads: %v", WorkloadNames())
	}
	for _, n := range SchedulerNames() {
		if _, err := NewScheduler(n); err != nil {
			t.Errorf("scheduler %q: %v", n, err)
		}
	}
	if _, err := NewScheduler("nope"); err == nil {
		t.Error("unknown scheduler must error")
	}
	if _, err := NewWorkload("nope", Road(4, 4, 1)); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestFacadeMachines(t *testing.T) {
	hw := HardwareMachine()
	if hw.Cores != 64 || hw.HRQSize != 32 || hw.HPQSize != 48 {
		t.Fatalf("hardware machine diverges from Table I: %+v", hw)
	}
	sw := SoftwareMachine(40)
	if sw.Cores != 40 || sw.HRQSize != 0 || sw.HPQSize != 0 {
		t.Fatalf("software machine wrong: %+v", sw)
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := Experiments()
	if len(ids) != 19 {
		t.Fatalf("got %d experiments, want 19", len(ids))
	}
	var buf bytes.Buffer
	res, err := RunExperiment("table2", ExperimentOptions{Scale: "tiny", Seed: 1}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || !strings.Contains(buf.String(), "table2") {
		t.Fatalf("table2 output wrong: %d rows, %q", len(res.Rows), buf.String())
	}
	if _, err := RunExperiment("fig99", ExperimentOptions{}, nil); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestFacadeGraphIO(t *testing.T) {
	g := Cage(200, 6, 16, 2)
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadDIMACS("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip lost edges: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	if _, err := ReadSNAP("s", strings.NewReader("1 2\n2 3\n")); err != nil {
		t.Fatal(err)
	}
}
