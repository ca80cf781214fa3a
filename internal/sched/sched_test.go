package sched

import (
	"testing"

	"hdcps/internal/bag"

	"hdcps/internal/drift"
	"hdcps/internal/graph"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
	"hdcps/internal/workload"
)

func smallGraphs() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"road": graph.Road(16, 16, 5),
		"cage": graph.Cage(300, 10, 24, 5),
	}
}

// TestAllSchedulersAllWorkloads is the master correctness matrix: every
// scheduler must drive every workload to a verifiably correct result on the
// simulator, in both software and hardware machine modes.
func TestAllSchedulersAllWorkloads(t *testing.T) {
	cfgs := map[string]sim.Config{
		"sw8":  sim.DefaultSW(8),
		"hw16": func() sim.Config { c := sim.DefaultHW(); c.Cores = 16; return c }(),
	}
	for gname, g := range smallGraphs() {
		for _, wname := range []string{"sssp", "bfs", "color", "pagerank"} {
			for _, sname := range Names() {
				for cname, cfg := range cfgs {
					s, err := ByName(sname)
					if err != nil {
						t.Fatal(err)
					}
					w, err := workload.New(wname, g)
					if err != nil {
						t.Fatal(err)
					}
					r := s.Run(w, cfg, 42)
					if r.CompletionTime <= 0 {
						t.Errorf("%s/%s/%s/%s: no time elapsed", sname, wname, gname, cname)
					}
					if r.TasksProcessed <= 0 {
						t.Errorf("%s/%s/%s/%s: no tasks processed", sname, wname, gname, cname)
					}
					if err := w.Verify(); err != nil {
						t.Errorf("%s/%s/%s/%s: %v", sname, wname, gname, cname, err)
					}
				}
			}
		}
	}
}

func TestHeavyWorkloadsOnKeySchedulers(t *testing.T) {
	// MST and A* are slower; run them against a representative subset.
	g := graph.Road(16, 16, 7)
	for _, wname := range []string{"mst", "astar"} {
		for _, sname := range []string{"seq", "reld", "hdcps-sw", "hdcps-hw", "obim", "pmod", "swminnow", "hwminnow", "swarm"} {
			s, _ := ByName(sname)
			w, _ := workload.New(wname, g)
			r := s.Run(w, sim.DefaultSW(8), 1)
			if r.TasksProcessed <= 0 {
				t.Errorf("%s/%s: no tasks", sname, wname)
			}
			if err := w.Verify(); err != nil {
				t.Errorf("%s/%s: %v", sname, wname, err)
			}
		}
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	g := graph.Road(16, 16, 3)
	for _, sname := range Names() {
		s, _ := ByName(sname)
		run := func() stats.Run {
			w, _ := workload.New("sssp", g)
			return s.Run(w, sim.DefaultSW(8), 7)
		}
		a, b := run(), run()
		if a.CompletionTime != b.CompletionTime || a.TasksProcessed != b.TasksProcessed {
			t.Errorf("%s not deterministic: %d/%d vs %d/%d",
				sname, a.CompletionTime, a.TasksProcessed, b.CompletionTime, b.TasksProcessed)
		}
	}
}

func TestBreakdownAccountsTime(t *testing.T) {
	// The summed per-core breakdown must roughly cover cores * completion
	// time (every core is always busy or idle-in-comm). Allow slack for
	// final-event bookkeeping.
	g := graph.Road(16, 16, 3)
	for _, sname := range []string{"reld", "hdcps-sw", "obim", "swarm"} {
		s, _ := ByName(sname)
		w, _ := workload.New("sssp", g)
		cfg := sim.DefaultSW(8)
		r := s.Run(w, cfg, 11)
		covered := r.Breakdown.Total()
		budget := r.CompletionTime * int64(cfg.Cores)
		if covered > budget*11/10 {
			t.Errorf("%s: breakdown %d exceeds time budget %d", sname, covered, budget)
		}
		if covered < budget/3 {
			t.Errorf("%s: breakdown %d covers under a third of budget %d (accounting hole)",
				sname, covered, budget)
		}
	}
}

func TestParallelismHelps(t *testing.T) {
	// More cores must reduce completion time on a parallel-friendly input
	// for the headline schedulers.
	g := graph.Cage(1500, 12, 30, 9)
	for _, sname := range []string{"hdcps-sw", "pmod"} {
		s, _ := ByName(sname)
		w1, _ := workload.New("sssp", g)
		t1 := s.Run(w1, sim.DefaultSW(1), 3).CompletionTime
		w16, _ := workload.New("sssp", g)
		t16 := s.Run(w16, sim.DefaultSW(16), 3).CompletionTime
		if t16 >= t1 {
			t.Errorf("%s: 16 cores (%d) not faster than 1 core (%d)", sname, t16, t1)
		}
	}
}

func TestHardwareAssistHelps(t *testing.T) {
	// hRQ+hPQ must beat the software-only configuration (Fig. 6's ~20%).
	g := graph.Cage(1500, 12, 30, 9)
	sw, _ := ByName("hdcps-sw")
	hw, _ := ByName("hdcps-hw")
	cfg := sim.DefaultHW()
	cfg.Cores = 16
	cfg.HRQSize, cfg.HPQSize = 0, 0
	wsw, _ := workload.New("sssp", g)
	tsw := sw.Run(wsw, cfg, 3).CompletionTime
	whw, _ := workload.New("sssp", g)
	thw := hw.Run(whw, cfg, 3).CompletionTime
	if thw >= tsw {
		t.Errorf("hardware assist slower: hw %d vs sw %d", thw, tsw)
	}
}

func TestRELDDriftWorseThanHDCPS(t *testing.T) {
	// The paper's central claim: HD-CPS:SW tracks and improves priority
	// drift relative to RELD on a divergent-priority (road) input.
	g := graph.Road(28, 28, 13)
	reld, _ := ByName("reld")
	hd, _ := ByName("hdcps-sw")
	wr, _ := workload.New("sssp", g)
	rr := reld.Run(wr, sim.DefaultSW(16), 5)
	wh, _ := workload.New("sssp", g)
	rh := hd.Run(wh, sim.DefaultSW(16), 5)
	if rh.CompletionTime >= rr.CompletionTime {
		t.Errorf("hdcps-sw (%d) not faster than reld (%d)", rh.CompletionTime, rr.CompletionTime)
	}
}

func TestSwarmWorkEfficiency(t *testing.T) {
	// Swarm's near-ordered execution should process no more tasks than
	// RELD's relaxed execution on a drift-prone input.
	g := graph.Road(24, 24, 17)
	swarm, _ := ByName("swarm")
	reld, _ := ByName("reld")
	cfg := sim.DefaultHW()
	cfg.Cores = 16
	ws, _ := workload.New("sssp", g)
	rs := swarm.Run(ws, cfg, 5)
	wr, _ := workload.New("sssp", g)
	rr := reld.Run(wr, cfg, 5)
	if rs.TasksProcessed > rr.TasksProcessed {
		t.Errorf("swarm processed more tasks (%d) than reld (%d)", rs.TasksProcessed, rr.TasksProcessed)
	}
}

func TestTDFTraceRecorded(t *testing.T) {
	g := graph.Cage(2000, 12, 30, 3)
	s := NewCPS(CPSConfig{
		Label: "tdf-test", UseRQ: true,
		Drift: driftSmallInterval(),
	})
	w, _ := workload.New("sssp", g)
	r := s.Run(w, sim.DefaultSW(8), 3)
	if len(r.TDFTrace) == 0 {
		t.Fatal("no TDF updates recorded; controller never ran")
	}
	for _, tdf := range r.TDFTrace {
		if tdf < 1 || tdf > 100 {
			t.Fatalf("TDF %d out of range", tdf)
		}
	}
}

func TestOracleScheduleOverride(t *testing.T) {
	g := graph.Cage(800, 10, 24, 3)
	fixed := 0
	s := NewCPS(CPSConfig{
		Label: "oracle-test", UseRQ: true,
		Drift:       driftSmallInterval(),
		TDFSchedule: func(i int) int { fixed++; return 25 },
	})
	w, _ := workload.New("sssp", g)
	r := s.Run(w, sim.DefaultSW(8), 3)
	if fixed == 0 {
		t.Fatal("TDF schedule never consulted")
	}
	for _, tdf := range r.TDFTrace {
		if tdf != 25 {
			t.Fatalf("schedule override ignored: TDF %d", tdf)
		}
	}
}

func driftSmallInterval() drift.Config {
	return drift.Config{SampleInterval: 20}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("unknown scheduler should error")
	}
	for _, n := range Names() {
		s, err := ByName(n)
		if err != nil {
			t.Fatalf("registered name %q failed: %v", n, err)
		}
		if s.Name() == "" {
			t.Fatalf("%q has empty display name", n)
		}
	}
}

func TestSWMinnowConfigs(t *testing.T) {
	// Different worker/minnow splits must all complete correctly (Fig. 11).
	g := graph.Road(14, 14, 3)
	for _, minnows := range []int{1, 2, 4} {
		s := SWMinnow(minnows)
		w, _ := workload.New("bfs", g)
		r := s.Run(w, sim.DefaultSW(10), 3)
		if err := w.Verify(); err != nil {
			t.Errorf("swminnow-%d: %v", minnows, err)
		}
		if r.CompletionTime <= 0 {
			t.Errorf("swminnow-%d: no time", minnows)
		}
	}
}

// TestSWMinnowOneCore: one core leaves none to spare for a minnow, so the
// lone worker does its own global-map traffic (it used to divide by zero
// mapping itself to a minnow).
func TestSWMinnowOneCore(t *testing.T) {
	s, err := ByName("swminnow")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.New("sssp", graph.Road(14, 14, 3))
	r := s.Run(w, sim.DefaultSW(1), 3)
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if r.Scheduler != "swminnow" || r.TasksProcessed <= 0 {
		t.Fatalf("run %q processed %d tasks", r.Scheduler, r.TasksProcessed)
	}
}

func TestDriftTraceNonEmpty(t *testing.T) {
	g := graph.Cage(1500, 12, 30, 3)
	for _, sname := range []string{"reld", "obim", "hdcps-sw", "swarm"} {
		s, _ := ByName(sname)
		w, _ := workload.New("sssp", g)
		r := s.Run(w, sim.DefaultSW(8), 3)
		if len(r.DriftTrace) == 0 {
			t.Errorf("%s: no drift samples (run too short for probe or probe broken)", sname)
		}
	}
}

func TestFlowControlRedirects(t *testing.T) {
	// With a tiny hRQ, senders must hit full destinations and re-pick
	// (§III-D capacity counters). Observe it directly via the handler.
	g := graph.Cage(800, 16, 40, 3)
	w, _ := workload.New("sssp", g)
	cfg := sim.DefaultHW()
	cfg.Cores = 8
	cfg.HRQSize = 2
	m := sim.New(cfg)
	h := newCPSHandler(CPSConfig{Label: "fc", UseRQ: true, Drift: fixedTDF(100),
		Bags: bagNeverPolicy()}, w, m.Config(), 3)
	w.Reset()
	m.Run(h)
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if h.flowRedirects == 0 {
		t.Fatal("no flow-control redirects despite a 2-entry hRQ")
	}
	// A large hRQ should need (almost) none.
	w2, _ := workload.New("sssp", g)
	cfg.HRQSize = 1024
	m2 := sim.New(cfg)
	h2 := newCPSHandler(CPSConfig{Label: "fc", UseRQ: true, Drift: fixedTDF(100),
		Bags: bagNeverPolicy()}, w2, m2.Config(), 3)
	w2.Reset()
	m2.Run(h2)
	if h2.flowRedirects > h.flowRedirects/10 {
		t.Fatalf("large hRQ still redirects heavily: %d vs %d", h2.flowRedirects, h.flowRedirects)
	}
}

func bagNeverPolicy() bag.Policy { return bag.Policy{Mode: bag.Never} }
