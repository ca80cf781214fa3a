package exec

import (
	"testing"

	"hdcps/internal/chaos"
	"hdcps/internal/graph"
	"hdcps/internal/runtime"
	"hdcps/internal/sched"
	"hdcps/internal/sim"
	"hdcps/internal/workload"
)

func TestByNameNative(t *testing.T) {
	x, err := ByName(NativeName)
	if err != nil {
		t.Fatal(err)
	}
	if x.Name() != NativeName {
		t.Fatalf("name %q", x.Name())
	}
	g := graph.Road(12, 12, 3)
	w, err := workload.New("sssp", g)
	if err != nil {
		t.Fatal(err)
	}
	r := x.Run(w, Spec{Cores: 2, Seed: 7})
	if r.CompletionTime <= 0 || r.TasksProcessed <= 0 {
		t.Fatalf("empty native run: %+v", r)
	}
	if r.EdgesExamined <= 0 {
		t.Fatalf("native run dropped EdgesExamined: %+v", r)
	}
	if r.Cores != 2 {
		t.Fatalf("cores %d, want 2", r.Cores)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestByNameSimulated(t *testing.T) {
	x, err := ByName("hdcps-sw")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Road(12, 12, 3)
	w, err := workload.New("bfs", g)
	if err != nil {
		t.Fatal(err)
	}
	r := x.Run(w, Spec{Cores: 8, Seed: 3})
	if r.CompletionTime <= 0 || r.Cores != 8 {
		t.Fatalf("sim run wrong: %+v", r)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}

	// Hardware flag selects the Table I machine.
	hw := x.Run(w.Clone(), Spec{Seed: 3, Hardware: true})
	if want := sim.DefaultHW().Cores; hw.Cores != want {
		t.Fatalf("hardware cores %d, want %d", hw.Cores, want)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown executor must error")
	}
}

func TestNamesCoverSchedulersPlusNative(t *testing.T) {
	names := Names()
	want := len(sched.Names()) + 2 // native + native-chaos
	if len(names) != want {
		t.Fatalf("%d executors, want %d", len(names), want)
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
		if _, err := ByName(n); err != nil {
			t.Errorf("registered executor %q does not resolve: %v", n, err)
		}
	}
	if !seen[NativeName] || !seen[ChaosName] {
		t.Fatalf("registry misses %q or %q: %v", NativeName, ChaosName, names)
	}
}

func TestRunChaos(t *testing.T) {
	g := graph.Road(12, 12, 3)
	w, err := workload.New("sssp", g)
	if err != nil {
		t.Fatal(err)
	}
	mix := chaos.Config{Seed: 9, Delay: 0.1, Reorder: 0.3, RingFull: 0.1}
	r, rep := RunChaos(w, Spec{Cores: 2, Seed: 9, Chaos: &mix})
	if r.Scheduler != ChaosName || r.TasksProcessed <= 0 {
		t.Fatalf("empty chaos run: %+v", r)
	}
	if rep.DrainErr != nil {
		t.Fatalf("chaos run stalled: %v", rep.DrainErr)
	}
	if rep.ConservationErr != nil {
		t.Fatalf("conservation violated: %v", rep.ConservationErr)
	}
	if rep.Snapshot.Outstanding != 0 {
		t.Fatalf("outstanding %d after drain", rep.Snapshot.Outstanding)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("healthy workload quarantined %d tasks", len(rep.Quarantined))
	}
	if rep.Faults == "" || rep.Mix != mix {
		t.Fatalf("report incomplete: %+v", rep)
	}
	// Transport faults must not change the answer.
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}

	// The registry resolves the same path.
	x, err := ByName(ChaosName)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := x.Run(w.Clone(), Spec{Cores: 2, Seed: 9}); r2.TasksProcessed <= 0 {
		t.Fatalf("registry chaos run empty: %+v", r2)
	}
}

// TestRunAsStats holds the native executor's adaptation of a runtime.Result
// into the stats.Run vocabulary shared with the simulator.
func TestRunAsStats(t *testing.T) {
	w, _ := workload.New("bfs", graph.Road(10, 10, 1))
	cfg := runtime.DefaultConfig(2)
	r := (nativeExecutor{}).Run(w, Spec{Native: &cfg})
	if r.Scheduler != "native-hdcps" || r.CompletionTime <= 0 || r.Cores != 2 {
		t.Fatalf("stats adaptation wrong: %+v", r)
	}
	if r.EdgesExamined <= 0 {
		t.Fatalf("EdgesExamined dropped in stats adaptation: %+v", r)
	}
	if r := (nativeExecutor{}).Run(w, Spec{Native: &runtime.Config{}}); r.Cores != 4 {
		t.Fatalf("unset worker count reported as %d cores, want the default 4", r.Cores)
	}
}
