package sched

import (
	"testing"

	"hdcps/internal/graph"
	"hdcps/internal/sim"
	"hdcps/internal/workload"
)

// goldenRuns pins what every registered scheduler simulates on two small
// inputs, seed 42: sssp on graph.Road(16,16,3) and pagerank on
// graph.Web(300,3), on sim.DefaultSW(8) (sim.DefaultHW() for hdcps-hw and
// swarm). The values were recorded on commit b82d9f8 (PR 18), before the
// event queue, the cache index and the handlers' per-task scratch were
// rewritten, and must never be regenerated to make a change pass: the
// simulator is deterministic, so any difference is a semantic change in sim,
// sched, pq, bag, drift, workload or graph, and belongs in its own PR with
// the figures it moves.
var goldenRuns = []struct {
	sched, workload                              string
	cycles, tasks, messages, bagsCreated, l1Hits int64
}{
	{"seq", "sssp", 186520, 344, 0, 0, 1420},
	{"seq", "pagerank", 21392324, 29641, 0, 0, 383976},
	{"reld", "sssp", 110621, 490, 489, 0, 1510},
	{"reld", "pagerank", 4867029, 16809, 16509, 0, 223294},
	{"srq", "sssp", 46056, 472, 471, 0, 1467},
	{"srq", "pagerank", 1543363, 14931, 14631, 0, 195359},
	{"srq+tdf", "sssp", 47486, 513, 252, 0, 1661},
	{"srq+tdf", "pagerank", 2529250, 19226, 13750, 0, 259127},
	{"srq+tdf+ac", "sssp", 52055, 509, 163, 354, 1735},
	{"srq+tdf+ac", "pagerank", 1836120, 13747, 3565, 7591, 189942},
	{"hdcps-sw", "sssp", 51325, 582, 257, 28, 1965},
	{"hdcps-sw", "pagerank", 1407784, 15751, 7491, 1257, 213670},
	{"hrq", "sssp", 41237, 541, 242, 20, 1823},
	{"hrq", "pagerank", 1214026, 13733, 5824, 1089, 180026},
	{"hdcps-hw", "sssp", 10597, 744, 326, 34, 2062},
	{"hdcps-hw", "pagerank", 363481, 11170, 3629, 968, 146199},
	{"obim", "sssp", 54366, 531, 0, 200, 1936},
	{"obim", "pagerank", 1077332, 8495, 0, 1574, 115943},
	{"pmod", "sssp", 54366, 531, 0, 200, 1936},
	{"pmod", "pagerank", 799085, 7446, 0, 1496, 101800},
	{"swminnow", "sssp", 62629, 516, 564, 176, 1865},
	{"swminnow", "pagerank", 1087228, 7449, 6930, 1315, 100974},
	{"hwminnow", "sssp", 58202, 666, 264, 264, 2405},
	{"hwminnow", "pagerank", 424768, 6936, 1362, 1362, 93180},
	{"swarm", "sssp", 2636, 344, 0, 0, 546},
	{"swarm", "pagerank", 183902, 29641, 0, 0, 366116},
	{"steal", "sssp", 796140, 4908, 0, 0, 25250},
	{"steal", "pagerank", 2704185, 23828, 0, 0, 351985},
	{"ordered", "sssp", 364652, 344, 0, 0, 1099},
	{"ordered", "pagerank", 31240919, 29641, 0, 0, 381524},
	{"multiq", "sssp", 83492, 429, 0, 0, 1335},
	{"multiq", "pagerank", 2828514, 18525, 0, 0, 243817},
}

// TestGoldenCycles is the fast stand-in for the figure grids and for
// `benchmark -compare`'s bit-identity check: it runs under -short.
func TestGoldenCycles(t *testing.T) {
	inputs := map[string]*graph.CSR{
		"sssp":     graph.Road(16, 16, 3),
		"pagerank": graph.Web(300, 3),
	}
	pinned := map[string]bool{}
	for _, want := range goldenRuns {
		pinned[want.sched] = true
		s, err := ByName(want.sched)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.New(want.workload, inputs[want.workload])
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultSW(8)
		if want.sched == "hdcps-hw" || want.sched == "swarm" {
			cfg = sim.DefaultHW()
		}
		r := s.Run(w, cfg, 42)
		if err := w.Verify(); err != nil {
			t.Errorf("%s/%s: %v", want.sched, want.workload, err)
		}
		got := [5]int64{r.CompletionTime, r.TasksProcessed, r.MessagesSent, r.BagsCreated, r.L1Hits}
		pin := [5]int64{want.cycles, want.tasks, want.messages, want.bagsCreated, want.l1Hits}
		if got != pin {
			t.Errorf("%s/%s: cycles, tasks, messages, bags, L1 hits = %v, pinned %v", want.sched, want.workload, got, pin)
		}
	}
	for _, name := range Names() {
		if !pinned[name] {
			t.Errorf("scheduler %q has no pinned run: record one on the commit that adds it", name)
		}
	}
}

// TestSimStepAllocs is the canary for the benchmark's sim.allocs_per_task:
// one hdcps-sw run, heap allocations per simulated task. The 48x48 road is
// large enough that machine and handler set-up do not dominate.
func TestSimStepAllocs(t *testing.T) {
	g := graph.Road(48, 48, 3)
	w, err := workload.New("sssp", g)
	if err != nil {
		t.Fatal(err)
	}
	s := HDCPSSW()
	cfg := sim.DefaultSW(8)
	var tasks int64
	allocs := testing.AllocsPerRun(5, func() { tasks = s.Run(w, cfg, 42).TasksProcessed })
	// Measured 0.091 (372 allocations, most of them set-up, over 4,082
	// tasks; 5.41 before the typed event queue and the handlers' reused
	// scratch). The limit leaves room for another Go version's map growth.
	const limit = 0.2
	if perTask := allocs / float64(tasks); perTask > limit {
		t.Errorf("hdcps-sw on road 48x48: %.3f allocations per simulated task (%.0f over %d tasks), limit %.2f",
			perTask, allocs, tasks, limit)
	}
}
