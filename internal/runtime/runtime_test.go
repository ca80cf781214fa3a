package runtime

import (
	"testing"

	"hdcps/internal/bag"
	"hdcps/internal/drift"
	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/workload"
)

// solve runs w to completion on a fresh engine, seeded before Start as
// exec.RunJobs seeds it, and returns the snapshot taken after Stop (every
// worker has published, so every counter is exact) and the control plane's
// series.
func solve(t *testing.T, w workload.Workload, cfg Config) (Snapshot, []obs.ControlPoint) {
	t.Helper()
	e := NewEngine(w, cfg)
	if err := e.Submit(w.InitialTasks()...); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	return e.Snapshot(), e.ControlTrace()
}

func TestNativeAllWorkloads(t *testing.T) {
	g := graph.Road(16, 16, 3)
	for _, wname := range workload.Names() {
		w, err := workload.New(wname, g)
		if err != nil {
			t.Fatal(err)
		}
		snap, _ := solve(t, w, DefaultConfig(4))
		if snap.TasksProcessed <= 0 {
			t.Errorf("%s: no tasks processed", wname)
		}
		if err := w.Verify(); err != nil {
			t.Errorf("%s: %v", wname, err)
		}
	}
}

func TestNativeDenseGraph(t *testing.T) {
	g := graph.Cage(600, 10, 24, 3)
	for _, wname := range []string{"sssp", "pagerank", "color"} {
		w, _ := workload.New(wname, g)
		snap, _ := solve(t, w, DefaultConfig(4))
		if err := w.Verify(); err != nil {
			t.Errorf("%s: %v", wname, err)
		}
		if snap.TasksProcessed <= 0 {
			t.Errorf("%s: no tasks processed", wname)
		}
	}
}

func TestNativeSingleWorker(t *testing.T) {
	g := graph.Road(12, 12, 3)
	w, _ := workload.New("sssp", g)
	snap, _ := solve(t, w, Config{Workers: 1})
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if snap.TasksProcessed <= 0 {
		t.Fatal("no tasks")
	}
}

func TestNativeConfigVariants(t *testing.T) {
	g := graph.Road(14, 14, 9)
	variants := map[string]Config{
		"no-bags":    {Workers: 3, Bags: bag.Policy{Mode: bag.Never}, UseTDF: true},
		"always":     {Workers: 3, Bags: func() bag.Policy { p := bag.DefaultPolicy(); p.Mode = bag.Always; return p }(), UseTDF: true},
		"fixed-tdf":  {Workers: 3, FixedTDF: 100},
		"small-ring": {Workers: 3, RingSize: 4, UseTDF: true},
		"tiny-intvl": {Workers: 3, UseTDF: true, Drift: drift.Config{SampleInterval: 10}},
	}
	for name, cfg := range variants {
		w, _ := workload.New("sssp", g)
		_, control := solve(t, w, cfg)
		if err := w.Verify(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if name == "tiny-intvl" && len(control) == 0 {
			t.Errorf("%s: controller never updated", name)
		}
	}
}

func TestNativeTDFAdaptation(t *testing.T) {
	g := graph.Cage(800, 12, 30, 7)
	w, _ := workload.New("sssp", g)
	cfg := DefaultConfig(4)
	cfg.Drift = drift.Config{SampleInterval: 25}
	_, control := solve(t, w, cfg)
	if len(control) == 0 {
		t.Fatal("no TDF updates despite small sample interval")
	}
	for i, p := range control {
		if p.Interval != i {
			t.Fatalf("point %d numbered %d", i, p.Interval)
		}
		if p.Drift < 0 {
			t.Fatalf("negative drift %v", p.Drift)
		}
	}
}
