package chaos

import (
	"context"
	"strings"
	"testing"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/runtime"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=42,delay=0.1,dup=0.02,reorder=0.2,ringfull=0.05,stall=0.01,delayturns=4,stallfor=6")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 42, Delay: 0.1, Duplicate: 0.02, Reorder: 0.2,
		RingFull: 0.05, Stall: 0.01, DelayTurns: 4, StallFor: 6}
	if cfg != want {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if _, err := ParseSpec("delay=2"); err == nil {
		t.Fatal("probability > 1 must be rejected")
	}
	if _, err := ParseSpec("bogus=1"); err == nil {
		t.Fatal("unknown key must be rejected")
	}
	if _, err := ParseSpec("delay"); err == nil {
		t.Fatal("missing value must be rejected")
	}
	// "default" selects the stock mix, preserving an earlier seed.
	cfg, err = ParseSpec("seed=7,default")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Reorder == 0 {
		t.Fatalf("seed=7,default = %+v, want DefaultMix with seed 7", cfg)
	}
	if s := cfg.String(); !strings.Contains(s, "seed=7") {
		t.Fatalf("String() lost the seed: %s", s)
	}
}

// The hook with a zero mix is transparent: same results as no hook,
// nothing counted.
func TestTransportZeroMixTransparent(t *testing.T) {
	g := graph.Road(12, 12, 3)
	w, err := workload.New("bfs", g)
	if err != nil {
		t.Fatal(err)
	}
	e, st := Engine(w, runtime.DefaultConfig(4), Config{})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(w.InitialTasks()...); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if faultCount(st) != 0 {
		t.Fatalf("zero mix injected faults: %s", st)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	var chk Checker
	if err := chk.Quiescent(e.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

// Same seed, same fault decision stream: the per-worker send and receive
// RNGs make the injected fault pattern a pure function of (seed, call
// sequence).
func TestTransportDeterministicDecisions(t *testing.T) {
	run := func(seed uint64) []int64 {
		h := newHook(2, Config{Seed: seed, RingFull: 0.3, Reorder: 0.5})
		var rejected int64
		for i := 0; i < 200; i++ {
			if h.Refuse(0, 1, task.Task{Node: graph.NodeID(i)}) {
				rejected++
			}
			h.Filter(1, []task.Task{{Node: 1}, {Node: 2}, {Node: 3}}, 0)
		}
		return []int64{rejected, h.stats.Reordered.Load()}
	}
	a, b := run(11), run(11)
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	c := run(12)
	if a[0] == c[0] && a[1] == c[1] {
		t.Fatalf("different seeds produced identical streams: %v", a)
	}
	if a[0] == 0 {
		t.Fatal("ringfull=0.3 over 200 sends injected nothing")
	}
}

// Duplication re-submits workload tasks but never a bag marker: a second
// copy would open its payload slot after the first released it, and a
// bagging run under a duplicating mix would stall.
func TestTransportNeverDuplicatesBagMarkers(t *testing.T) {
	marker := task.Task{Node: ^graph.NodeID(0)}
	if !runtime.IsBagMarker(marker) {
		t.Fatal("test marker is not a bag marker")
	}
	h := newHook(2, Config{Seed: 3, Duplicate: 1})
	var resubmitted []task.Task
	h.resubmit = func(ts ...task.Task) error {
		resubmitted = append(resubmitted, ts...)
		return nil
	}
	for i := 0; i < 20; i++ {
		if got := h.Filter(1, []task.Task{marker}, 0); len(got) != 1 {
			t.Fatalf("round %d: delivered %d tasks, want the marker", i, len(got))
		}
	}
	if len(resubmitted) != 0 || h.stats.Duplicates.Load() != 0 {
		t.Fatalf("duplicated bag markers: %v", resubmitted)
	}
	h.Filter(1, []task.Task{{Node: 5}}, 0)
	if len(resubmitted) != 1 || resubmitted[0].Node != 5 {
		t.Fatalf("dup=1 did not duplicate a workload task: %v", resubmitted)
	}
}

// Checker.Quiescent flags a fabricated ledger hole, and Live flags
// backwards counters — the harness can actually detect violations.
func TestCheckerDetectsViolations(t *testing.T) {
	var chk Checker
	good := runtime.Snapshot{Submitted: 10, Spawned: 5, TasksProcessed: 14, BagsRetired: 0, Quarantined: 1}
	if err := chk.Quiescent(good); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	bad := good
	bad.TasksProcessed = 13 // one task vanished
	if err := new(Checker).Quiescent(bad); err == nil {
		t.Fatal("lost task not detected")
	} else if !strings.Contains(err.Error(), "conservation violated") {
		t.Fatalf("wrong error: %v", err)
	}
	// The original checker sees the same snapshot as a backwards counter.
	if err := chk.Quiescent(bad); err == nil {
		t.Fatal("backwards processed counter not detected")
	}
	if err := (&Checker{}).Quiescent(runtime.Snapshot{Outstanding: 3}); err == nil {
		t.Fatal("non-zero outstanding not detected")
	}
	if err := (&Checker{}).Live(runtime.Snapshot{Outstanding: -1}); err == nil {
		t.Fatal("negative outstanding not detected")
	}
	var mono Checker
	if err := mono.Live(runtime.Snapshot{TasksProcessed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := mono.Live(runtime.Snapshot{TasksProcessed: 4}); err == nil {
		t.Fatal("backwards counter not detected")
	}
}
