package hdcps

import (
	"bytes"
	"context"
	"errors"
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
	res, err := RunNative(w, DefaultNativeConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksProcessed <= 0 || res.CompletionTime <= 0 {
		t.Fatalf("empty native run: %+v", res)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// A seed the default job's quota refuses is an error, not a run that
// processed nothing and reported success.
func TestFacadeNativeRunRefusedSeed(t *testing.T) {
	w, err := NewWorkload("pagerank", Web(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultNativeConfig(2)
	cfg.DefaultJob.MaxOutstanding = 10
	res, err := RunNative(w, cfg)
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("RunNative with %d seeds over a quota of 10: err %v, want a *QuotaError (run %+v)",
			len(w.InitialTasks()), err, res)
	}
	if qe.Limit != 10 || qe.Tasks != len(w.InitialTasks()) {
		t.Errorf("quota error %+v", qe)
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

func TestFacadeNames(t *testing.T) {
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
