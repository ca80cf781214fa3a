package runtime

import (
	"testing"

	"hdcps/internal/bag"
	"hdcps/internal/drift"
	"hdcps/internal/graph"
	"hdcps/internal/workload"
)

func TestNativeAllWorkloads(t *testing.T) {
	g := graph.Road(16, 16, 3)
	for _, wname := range workload.Names() {
		w, err := workload.New(wname, g)
		if err != nil {
			t.Fatal(err)
		}
		res := Run(w, DefaultConfig(4))
		if res.TasksProcessed <= 0 {
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
		res := Run(w, DefaultConfig(4))
		if err := w.Verify(); err != nil {
			t.Errorf("%s: %v", wname, err)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%s: no elapsed time", wname)
		}
	}
}

func TestNativeSingleWorker(t *testing.T) {
	g := graph.Road(12, 12, 3)
	w, _ := workload.New("sssp", g)
	res := Run(w, Config{Workers: 1})
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.TasksProcessed <= 0 {
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
		res := Run(w, cfg)
		if err := w.Verify(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if name == "tiny-intvl" && len(res.TDFTrace) == 0 {
			t.Errorf("%s: controller never updated", name)
		}
	}
}

func TestNativeTDFAdaptation(t *testing.T) {
	g := graph.Cage(800, 12, 30, 7)
	w, _ := workload.New("sssp", g)
	cfg := DefaultConfig(4)
	cfg.Drift = drift.Config{SampleInterval: 25}
	res := Run(w, cfg)
	if len(res.TDFTrace) == 0 {
		t.Fatal("no TDF updates despite small sample interval")
	}
	if len(res.DriftTrace) != len(res.TDFTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(res.DriftTrace), len(res.TDFTrace))
	}
	for _, d := range res.DriftTrace {
		if d < 0 {
			t.Fatalf("negative drift %v", d)
		}
	}
}
