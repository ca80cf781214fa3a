package runtime_test

import (
	"bytes"
	"context"
	stdruntime "runtime"
	"testing"
	"time"

	"hdcps/internal/chaos"
	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/workload"
)

// TestStealOversubscribed runs four workers on one P, the fleet steal-when-
// behind exists for: a descheduled worker holds tasks in its queue and ring
// that the running one must reach. The answer must match the sequential
// oracle, the ledger must balance and the trace's tasks_stolen must be the
// snapshot's Stolen; how long it takes is not asserted.
func TestStealOversubscribed(t *testing.T) {
	defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(1))
	g := graph.Road(64, 64, 3)
	for _, name := range []string{"sssp", "bfs"} {
		w, err := workload.New(name, g)
		if err != nil {
			t.Fatal(err)
		}
		cfg := runtime.DefaultConfig(4)
		cfg.Seed = 1
		cfg.Obs = obs.New(obs.Config{Workers: cfg.Workers})
		e := runtime.NewEngine(w, cfg)
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		// Submitted to a running fleet, so the seeds cross a ring.
		if err := e.Submit(w.InitialTasks()...); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if err := e.Drain(ctx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := e.Stop(ctx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cancel()
		snap := e.Snapshot()
		var ck chaos.Checker
		if err := ck.Quiescent(snap); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := w.Verify(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := e.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		tr, err := obs.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var stolen int64
		for _, row := range tr.Counters {
			stolen += row[obs.CTasksStolen.String()]
		}
		if stolen != snap.Stolen {
			t.Errorf("%s: trace tasks_stolen %d, snapshot Stolen %d", name, stolen, snap.Stolen)
		}
		t.Logf("%s: %d tasks, %d stolen", name, snap.TasksProcessed, snap.Stolen)
	}
}
