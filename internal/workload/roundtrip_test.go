package workload_test

import (
	"context"
	"testing"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/runtime"
	"hdcps/internal/sched"
	"hdcps/internal/sim"
	"hdcps/internal/workload"
)

// One instance through every switch of mode: a serial oracle run, a
// two-worker native solve, a simulated run, a native solve again. A native
// engine Resets its workload, so it runs the shared (atomic) kernel however
// the instance was last used; under -race (make race) a solve that kept the
// serial kernel shows as a data race.
func TestSerialRoundTrip(t *testing.T) {
	g := graph.Road(16, 16, 5)
	s, err := sched.ByName("hdcps-sw")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.Names() {
		w, err := workload.New(name, g)
		if err != nil {
			t.Fatal(err)
		}
		if n := workload.RunSequential(w); n <= 0 {
			t.Fatalf("%s: oracle processed %d tasks", name, n)
		}
		solveNative(t, w)
		s.Run(w, sim.DefaultSW(4), 42)
		if err := w.Verify(); err != nil {
			t.Errorf("%s after the simulator: %v", name, err)
		}
		solveNative(t, w)
	}
}

func solveNative(t *testing.T, w workload.Workload) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e := runtime.NewEngine(w, runtime.Config{Workers: 2})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(w.InitialTasks()...); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("%s: drain: %v", w.Name(), err)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatalf("%s: stop: %v", w.Name(), err)
	}
	if err := w.Verify(); err != nil {
		t.Errorf("%s after a native solve: %v", w.Name(), err)
	}
}
