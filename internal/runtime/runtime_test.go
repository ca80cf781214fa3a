package runtime

import (
	"reflect"
	"slices"
	"testing"

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
	e := solveEngine(t, w, cfg)
	return e.Snapshot(), e.ControlTrace()
}

// solveEngine is solve returning the stopped engine.
func solveEngine(t *testing.T, w workload.Workload, cfg Config) *Engine {
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
	return e
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

// fixedTDF is the one-point Drift range that pins the TDF at tdf.
func fixedTDF(tdf int) drift.Config { return drift.Config{MinTDF: tdf, MaxTDF: tdf} }

func TestNativeConfigVariants(t *testing.T) {
	g := graph.Road(14, 14, 9)
	variants := map[string]Config{
		"zero":       {Workers: 3},
		"fixed-tdf":  {Workers: 3, Drift: fixedTDF(100)},
		"tiny-intvl": {Workers: 3, Drift: drift.Config{SampleInterval: 10}},
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

// TestZeroConfigIsDefault: the zero Config is the engine every caller outside
// the tests runs (DefaultConfig), so a test that builds Config{Workers: n}
// tests that engine: the paper's selective bags under the adaptive TDF
// controller.
func TestZeroConfigIsDefault(t *testing.T) {
	zero, def := Config{Workers: 2}.withDefaults(), DefaultConfig(2).withDefaults()
	if !reflect.DeepEqual(zero, def) {
		t.Fatalf("Config{Workers: 2} is %+v, DefaultConfig(2) %+v", zero, def)
	}
	e := NewEngine(mustWorkload(t, "sssp", graph.Road(4, 4, 1)), Config{Workers: 2})
	if c := e.control.ctrl.Config(); c.MinTDF == c.MaxTDF {
		t.Fatalf("zero Config pins the TDF at %d; want the adaptive controller", c.MinTDF)
	}
}

// TestConfigKnobs pins Config's settable values, counting the leaves of its
// struct fields (Drift, DefaultJob). Every value here has a caller outside
// the tests; one only a test sets is a second engine the tests run and
// production does not.
func TestConfigKnobs(t *testing.T) {
	want := []string{
		"Workers",
		"Drift.InitialTDF", "Drift.Step", "Drift.MinTDF", "Drift.MaxTDF", "Drift.SampleInterval",
		"Seed", "QueueKind", "Faults", "Obs",
		"DefaultJob.Name", "DefaultJob.Weight", "DefaultJob.MaxOutstanding",
		"StallTimeout",
	}
	var got []string
	var walk func(typ reflect.Type, prefix string)
	walk = func(typ reflect.Type, prefix string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch {
			case !f.IsExported():
			case f.Type.Kind() == reflect.Struct:
				walk(f.Type, prefix+f.Name+".")
			default:
				got = append(got, prefix+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(Config{}), "")
	if !slices.Equal(got, want) {
		t.Fatalf("runtime.Config has %d settable values %v, want the %d %v: a new "+
			"settable value needs a caller outside the tests, and a CHANGES.md line "+
			"naming the caller; one no caller sets any more goes", len(got), got, len(want), want)
	}
}
