package exp

import (
	"fmt"

	"hdcps/internal/bag"
	"hdcps/internal/drift"
	"hdcps/internal/exec"
	"hdcps/internal/graph"
	"hdcps/internal/sched"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
)

func init() {
	register(Experiment{"table1", "Simulator parameters (Table I)", table1})
	register(Experiment{"table2", "Input graphs and statistics (Table II)", table2})
	register(Experiment{"fig3", "Software CPS completion time and drift vs PMOD (Fig. 3)", fig3})
	register(Experiment{"fig4", "Thread scaling of PMOD vs HD-CPS:SW (Fig. 4)", fig4})
	register(Experiment{"fig5", "HD-CPS:SW variants vs RELD with breakdowns (Fig. 5)", fig5})
	register(Experiment{"fig6", "HD-CPS:HW variants vs HD-CPS:SW (Fig. 6)", fig6})
	register(Experiment{"fig7", "Hardware queue sizing sweep (Fig. 7)", fig7})
	register(Experiment{"fig8", "Speedup over sequential: Minnow, HD-CPS:HW, Swarm (Fig. 8)", fig8})
	register(Experiment{"fig9", "Breakdowns vs Swarm (Fig. 9)", fig9})
	register(Experiment{"fig10", "Simulator vs native runtime correlation (Fig. 10)", fig10})
	register(Experiment{"fig11", "Software Minnow worker-minnow splits (Fig. 11)", fig11})
	register(Experiment{"fig12", "HD-CPS:HW vs Dynamic Oracle vs PMOD (Fig. 12)", fig12})
	register(Experiment{"fig13", "TDF tunables: interval, step, initial TDF (Fig. 13)", fig13})
	register(Experiment{"fig14", "Bag transport: push vs pull (Fig. 14)", fig14})
	register(Experiment{"fig15", "Bag-creation threshold sweep (Fig. 15)", fig15})
	register(Experiment{"motivation", "Ordering spectrum: unordered vs relaxed vs ordered (§II, extension)", motivation})
	register(Experiment{"drift-timeline", "Native drift/TDF feedback timeline (obs trace)", driftTimeline})
	register(Experiment{"queue-sweep", "Native local-queue shapes: heap vs dheap vs twolevel", queueSweep})
	register(Experiment{"fairness-sweep", "Multi-tenant weighted fairness: measured vs entitled shares", fairnessSweep})
}

// runOne executes one (scheduler, pair) combination, verifies the workload
// result, and attaches the cached sequential task count.
func runOne(s sched.Scheduler, set *inputSet, p Pair, cfg sim.Config, o Options) (stats.Run, error) {
	w, err := set.workloadFor(p)
	if err != nil {
		return stats.Run{}, err
	}
	r := s.Run(w, cfg, o.Seed)
	if err := w.Verify(); err != nil {
		return r, fmt.Errorf("exp: %s on %s produced wrong result: %w", s.Name(), p.Label(), err)
	}
	if st, err := set.seqTasks(o, p); err == nil {
		r.SeqTasks = st
	}
	return r, nil
}

func table1(o Options) (Result, error) {
	cfg := sim.DefaultHW()
	res := Result{ID: "table1", Title: "Multicore simulator parameters", Series: []string{"value"}}
	add := func(label string, v float64) {
		res.Rows = append(res.Rows, Row{Label: label, Values: map[string]float64{"value": v}})
	}
	add("cores (RISC-V, in-order)", float64(cfg.Cores))
	add("hop latency (cycles)", float64(cfg.HopCycles))
	add("flit width (bits)", float64(cfg.FlitBits))
	add("hRQ entries/core", float64(cfg.HRQSize))
	add("hPQ entries/core", float64(cfg.HPQSize))
	add("hw queue latency (cycles)", float64(cfg.HWQueueCycles))
	add("entry size (bits)", float64(cfg.EntryBits))
	add("DRAM controllers", float64(cfg.DRAMControllers))
	add("DRAM latency (cycles)", float64(cfg.DRAMLatency))
	add("L1 lines/core (64B)", float64(cfg.L1Lines))
	add("L2 lines/core (64B)", float64(cfg.L2Lines))
	res.Notes = append(res.Notes,
		"matches Table I: 64 cores, 2D mesh XY routing, link contention only, 32/48 hardware queues, 1.25KB/core")
	return res, nil
}

func table2(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: "table2", Title: "Input graphs", Series: []string{"nodes", "edges", "avg_deg", "max_deg"}}
	for _, name := range []string{"cage", "road", "web", "lj"} {
		s := graph.ComputeStats(set.graphs[name])
		res.Rows = append(res.Rows, Row{Label: name, Values: map[string]float64{
			"nodes": float64(s.Nodes), "edges": float64(s.Edges),
			"avg_deg": float64(int(s.AvgDeg*10)) / 10, "max_deg": float64(s.MaxDeg),
		}})
	}
	res.Notes = append(res.Notes,
		"synthetic stand-ins for CAGE14 / rUSA / web-Google / LiveJournal at reduced scale (DESIGN.md)")
	return res, nil
}

func fig3(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	cfg := sim.DefaultSW(o.Cores)
	names := []string{"reld", "obim", "swminnow", "hdcps-sw"}
	res := Result{ID: "fig3", Title: "Completion time (and drift) normalized to PMOD, software mode",
		Series: []string{"reld", "obim", "swminnow", "hdcps-sw", "drift-reld", "drift-hdcps"}}
	rows, err := pairRows(pairs(), o, func(p Pair) (Row, error) {
		base, err := runOne(sched.PMOD(), set, p, cfg, o)
		if err != nil {
			return Row{}, err
		}
		row := Row{Label: p.Label(), Values: map[string]float64{}}
		for _, n := range names {
			s, _ := sched.ByName(n)
			r, err := runOne(s, set, p, cfg, o)
			if err != nil {
				return Row{}, err
			}
			row.Values[n] = ratio(r.CompletionTime, base.CompletionTime)
			switch n {
			case "reld":
				row.Values["drift-reld"] = ratioF(r.AvgDrift(), base.AvgDrift())
			case "hdcps-sw":
				row.Values["drift-hdcps"] = ratioF(r.AvgDrift(), base.AvgDrift())
			}
		}
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	geomeanRow(&res)
	res.Notes = append(res.Notes, "values < 1 are faster than PMOD; paper: RELD >2.2x, HD-CPS:SW ~0.8x (1.25x speedup)")
	return res, nil
}

func fig4(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	threads := []int{1, 5, 10, 20, 40}
	subset := []Pair{{"sssp", "cage"}, {"sssp", "road"}}
	res := Result{ID: "fig4", Title: "Speedup over sequential vs thread count"}
	for _, p := range subset {
		for _, sname := range []string{"pmod", "hdcps-sw"} {
			res.Series = append(res.Series, fmt.Sprintf("%s/%s", sname, p.Label()))
		}
	}
	seqTimes := map[string]int64{}
	for _, p := range subset {
		r, err := runOne(sched.Sequential{}, set, p, sim.DefaultSW(1), o)
		if err != nil {
			return res, err
		}
		seqTimes[p.Label()] = r.CompletionTime
	}
	rows, err := parallelMap(len(threads), o.Par, func(i int) (Row, error) {
		th := threads[i]
		row := Row{Label: fmt.Sprintf("threads=%d", th), Values: map[string]float64{}}
		for _, p := range subset {
			for _, sname := range []string{"pmod", "hdcps-sw"} {
				s, _ := sched.ByName(sname)
				r, err := runOne(s, set, p, sim.DefaultSW(th), o)
				if err != nil {
					return Row{}, err
				}
				row.Values[fmt.Sprintf("%s/%s", sname, p.Label())] =
					ratio(seqTimes[p.Label()], r.CompletionTime)
			}
		}
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	res.Notes = append(res.Notes, "paper: HD-CPS:SW at or above PMOD, gap widening with cores")
	return res, nil
}

func fig5(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	cfg := sim.DefaultSW(o.Cores)
	variants := []string{"srq", "srq+tdf", "srq+tdf+ac", "hdcps-sw"}
	res := Result{ID: "fig5", Title: "HD-CPS:SW variants normalized to RELD",
		Series: append([]string(nil), variants...)}
	res.Series = append(res.Series, "drift-sc")
	rows, err := pairRows(pairs(), o, func(p Pair) (Row, error) {
		base, err := runOne(sched.RELD(), set, p, cfg, o)
		if err != nil {
			return Row{}, err
		}
		row := Row{Label: p.Label(), Values: map[string]float64{}}
		for _, v := range variants {
			s, _ := sched.ByName(v)
			r, err := runOne(s, set, p, cfg, o)
			if err != nil {
				return Row{}, err
			}
			row.Values[v] = ratio(r.CompletionTime, base.CompletionTime)
			if v == "hdcps-sw" {
				row.Values["drift-sc"] = ratioF(r.AvgDrift(), base.AvgDrift())
			}
		}
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	geomeanRow(&res)
	res.Notes = append(res.Notes,
		"paper speedups over RELD: sRQ 1.3x, +TDF 2x, +AC 1.9x, +SC 2.4x (values here are time ratios; lower is better)")
	return res, nil
}

func fig6(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	base := sim.DefaultHW()
	base.HRQSize, base.HPQSize = 0, 0 // software-only on the Table I machine
	res := Result{ID: "fig6", Title: "HD-CPS:HW variants normalized to HD-CPS:SW (64 cores)",
		Series: []string{"hrq", "hrq+hpq", "enq", "deq", "comp", "comm"}}
	rows, err := pairRows(pairs(), o, func(p Pair) (Row, error) {
		sw, err := runOne(sched.HDCPSSW(), set, p, base, o)
		if err != nil {
			return Row{}, err
		}
		row := Row{Label: p.Label(), Values: map[string]float64{}}
		hr, err := runOne(sched.VariantHRQ(), set, p, base, o)
		if err != nil {
			return Row{}, err
		}
		row.Values["hrq"] = ratio(hr.CompletionTime, sw.CompletionTime)
		hb, err := runOne(sched.HDCPSHW(), set, p, base, o)
		if err != nil {
			return Row{}, err
		}
		row.Values["hrq+hpq"] = ratio(hb.CompletionTime, sw.CompletionTime)
		frac := hb.Breakdown.Normalized(hb.Breakdown.Total())
		row.Values["enq"], row.Values["deq"], row.Values["comp"], row.Values["comm"] =
			frac[0], frac[1], frac[2], frac[3]
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	geomeanRow(&res)
	res.Notes = append(res.Notes, "paper: hRQ ~10% faster, hRQ+hPQ ~20% faster than HD-CPS:SW")
	return res, nil
}

func fig7(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	sweeps := []struct{ hrq, hpq int }{
		{1024, 32}, {256, 32}, {64, 32}, {32, 32}, {24, 32},
		// Below the paper's range: at reduced scale the 24-32 entry regime
		// never overflows, so the overflow cliff the paper sees at 24 shows
		// up further down.
		{8, 32}, {2, 32}, {1, 32},
		{32, 48}, {32, 64}, {32, 8}, {32, 2},
	}
	// Queue sizing effects are small relative to scheduling-order noise at
	// reduced scale, so the sweep uses order-stable pairs (PageRank's task
	// count swings far more with order than any queue effect) and averages
	// each configuration over a few seeds.
	subset := []Pair{{"sssp", "cage"}, {"sssp", "road"}, {"bfs", "road"}, {"mst", "road"}}
	seeds := []uint64{o.Seed, o.Seed + 1, o.Seed + 2}
	res := Result{ID: "fig7", Title: "Queue sizing (geomean speedup vs hRQ=32,hPQ=48)",
		Series: []string{"geomean"}}
	timeFor := func(hrq, hpq int) (float64, error) {
		var times []float64
		for _, p := range subset {
			for _, seed := range seeds {
				cfg := sim.DefaultHW()
				cfg.HRQSize, cfg.HPQSize = hrq, hpq
				so := o
				so.Seed = seed
				r, err := runOne(sched.HDCPSHW(), set, p, cfg, so)
				if err != nil {
					return 0, err
				}
				times = append(times, float64(r.CompletionTime))
			}
		}
		return stats.Geomean(times), nil
	}
	base, err := timeFor(32, 48)
	if err != nil {
		return res, err
	}
	rows, err := parallelMap(len(sweeps), o.Par, func(i int) (Row, error) {
		sw := sweeps[i]
		t, err := timeFor(sw.hrq, sw.hpq)
		if err != nil {
			return Row{}, err
		}
		return Row{
			Label:  fmt.Sprintf("hRQ=%d,hPQ=%d", sw.hrq, sw.hpq),
			Values: map[string]float64{"geomean": base / t},
		}, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	res.Notes = append(res.Notes, "paper picks (32, 48): larger sizes saturate, smaller hRQ loses performance")
	return res, nil
}

func fig8(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	cfg := sim.DefaultHW()
	res := Result{ID: "fig8", Title: "Speedup over sequential on the 64-core simulator",
		Series: []string{"hwminnow", "hdcps-hw", "swarm"}}
	rows, err := pairRows(pairs(), o, func(p Pair) (Row, error) {
		seq, err := runOne(sched.Sequential{}, set, p, sim.DefaultSW(1), o)
		if err != nil {
			return Row{}, err
		}
		row := Row{Label: p.Label(), Values: map[string]float64{}}
		for _, n := range res.Series {
			s, _ := sched.ByName(n)
			r, err := runOne(s, set, p, cfg, o)
			if err != nil {
				return Row{}, err
			}
			row.Values[n] = ratio(seq.CompletionTime, r.CompletionTime)
		}
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	geomeanRow(&res)
	res.Notes = append(res.Notes, "paper geomeans: Minnow 48x, HD-CPS:HW 61x, Swarm 66x")
	return res, nil
}

func fig9(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	cfg := sim.DefaultHW()
	res := Result{ID: "fig9", Title: "Completion time breakdowns normalized to Swarm",
		Series: []string{"hwminnow", "hdcps-hw", "hdcps-we", "minnow-we", "swarm-we"}}
	rows, err := pairRows(pairs(), o, func(p Pair) (Row, error) {
		sw, err := runOne(sched.Swarm(), set, p, cfg, o)
		if err != nil {
			return Row{}, err
		}
		row := Row{Label: p.Label(), Values: map[string]float64{"swarm-we": sw.WorkEfficiency()}}
		mn, err := runOne(sched.HWMinnow(), set, p, cfg, o)
		if err != nil {
			return Row{}, err
		}
		row.Values["hwminnow"] = ratio(mn.CompletionTime, sw.CompletionTime)
		row.Values["minnow-we"] = mn.WorkEfficiency()
		hd, err := runOne(sched.HDCPSHW(), set, p, cfg, o)
		if err != nil {
			return Row{}, err
		}
		row.Values["hdcps-hw"] = ratio(hd.CompletionTime, sw.CompletionTime)
		row.Values["hdcps-we"] = hd.WorkEfficiency()
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	geomeanRow(&res)
	res.Notes = append(res.Notes,
		"paper: HD-CPS:HW within ~7% of Swarm, ~8% faster than Minnow; Swarm has the best work efficiency")
	return res, nil
}

func fig10(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	// The native runtime replaces the Tilera machine: compare each
	// vehicle's per-workload times normalized by its own geomean, so the
	// two trend lines are directly comparable. The comparison runs serial
	// (one worker, one simulated core): on hosts without real parallelism
	// the native side serializes anyway, and serial-vs-serial isolates the
	// per-task cost model, which is what the correlation validates.
	workers := 1
	subset := []Pair{{"sssp", "road"}, {"bfs", "road"}, {"sssp", "cage"},
		{"astar", "road"}, {"mst", "road"}, {"color", "web"}}
	res := Result{ID: "fig10", Title: "Simulator vs native Go runtime (normalized trends)",
		Series: []string{"sim", "native", "variation"}}
	// Simulated times are deterministic cycle counts, so those cells fan out
	// on the pool. Native times are wall-clock: concurrent native runs would
	// contend for the CPU and distort Elapsed, so they stay sequential.
	simT, err := parallelMap(len(subset), o.Par, func(i int) (float64, error) {
		r, err := runOne(sched.HDCPSSW(), set, subset[i], sim.DefaultSW(workers), o)
		if err != nil {
			return 0, err
		}
		return float64(r.CompletionTime), nil
	})
	if err != nil {
		return res, err
	}
	native, err := exec.ByName(exec.NativeName)
	if err != nil {
		return res, err
	}
	var natT []float64
	for _, p := range subset {
		w, err := set.workloadFor(p)
		if err != nil {
			return res, err
		}
		nr := native.Run(w, exec.Spec{Cores: workers, Seed: o.Seed})
		if err := w.Verify(); err != nil {
			return res, fmt.Errorf("exp: native run wrong on %s: %w", p.Label(), err)
		}
		natT = append(natT, float64(nr.CompletionTime))
	}
	gs, gn := stats.Geomean(simT), stats.Geomean(natT)
	for i, p := range subset {
		s := simT[i] / gs
		n := natT[i] / gn
		v := s/n - 1
		if v < 0 {
			v = -v
		}
		res.Rows = append(res.Rows, Row{Label: p.Label(), Values: map[string]float64{
			"sim": s, "native": n, "variation": v,
		}})
	}
	res.Notes = append(res.Notes,
		"paper reports ~5% average variation between simulator and Tilera; the native Go runtime is the stand-in vehicle")
	return res, nil
}

func fig11(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	splits := []int{1, 2, 4, 8, 10}
	subset := []Pair{{"sssp", "road"}, {"sssp", "cage"}, {"pagerank", "web"}}
	res := Result{ID: "fig11", Title: "Software Minnow splits (time normalized to 36-4)"}
	for _, p := range subset {
		res.Series = append(res.Series, p.Label())
	}
	baseRuns, err := parallelMap(len(subset), o.Par, func(i int) (int64, error) {
		r, err := runOne(sched.SWMinnow(4), set, subset[i], sim.DefaultSW(o.Cores), o)
		if err != nil {
			return 0, err
		}
		return r.CompletionTime, nil
	})
	if err != nil {
		return res, err
	}
	baseTimes := map[string]int64{}
	for i, p := range subset {
		baseTimes[p.Label()] = baseRuns[i]
	}
	rows, err := parallelMap(len(splits), o.Par, func(i int) (Row, error) {
		m := splits[i]
		row := Row{Label: fmt.Sprintf("%d-%d", o.Cores-m, m), Values: map[string]float64{}}
		for _, p := range subset {
			r, err := runOne(sched.SWMinnow(m), set, p, sim.DefaultSW(o.Cores), o)
			if err != nil {
				return Row{}, err
			}
			row.Values[p.Label()] = ratio(r.CompletionTime, baseTimes[p.Label()])
		}
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	res.Notes = append(res.Notes, "paper: 36-4 is the best geomean split; sparse road likes more minnows, dense fewer")
	return res, nil
}

func fig12(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	cfg := sim.DefaultHW()
	subset := []Pair{{"sssp", "cage"}, {"sssp", "road"}, {"pagerank", "web"}}
	candidates := []int{10, 30, 50, 70, 90}
	const intervals = 3
	res := Result{ID: "fig12", Title: "HD-CPS:HW vs Dynamic Oracle, normalized to PMOD",
		Series: []string{"hdcps-hw", "oracle"}}
	rows, err := pairRows(subset, o, func(p Pair) (Row, error) {
		base, err := runOne(sched.PMOD(), set, p, cfg, o)
		if err != nil {
			return Row{}, err
		}
		hd, err := runOne(sched.HDCPSHW(), set, p, cfg, o)
		if err != nil {
			return Row{}, err
		}
		// Oracle: greedy per-interval sweep (§III-C), then a final run with
		// the chosen schedule.
		eval := func(schedule []int) float64 {
			s := sched.NewCPS(sched.CPSConfig{
				Label: "oracle-eval", UseRQ: true, Bags: bag.DefaultPolicy(),
				TDFSchedule: drift.FixedSchedule(schedule, 50),
			})
			w, err := set.workloadFor(p)
			if err != nil {
				return 0
			}
			return float64(s.Run(w, cfg, o.Seed).CompletionTime)
		}
		schedule := drift.Oracle(intervals, candidates, eval)
		or := sched.NewCPS(sched.CPSConfig{
			Label: "oracle", UseRQ: true, Bags: bag.DefaultPolicy(),
			TDFSchedule: drift.FixedSchedule(schedule, 50),
		})
		orr, err := runOne(or, set, p, cfg, o)
		if err != nil {
			return Row{}, err
		}
		return Row{Label: p.Label(), Values: map[string]float64{
			"hdcps-hw": ratio(hd.CompletionTime, base.CompletionTime),
			"oracle":   ratio(orr.CompletionTime, base.CompletionTime),
		}}, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	geomeanRow(&res)
	res.Notes = append(res.Notes, "paper: heuristic comparable to oracle; oracle slightly ahead on divergent-priority inputs")
	return res, nil
}

func fig13(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	cfg := sim.DefaultHW()
	subset := []Pair{{"sssp", "cage"}, {"sssp", "road"}, {"pagerank", "web"}}
	baseRuns, err := parallelMap(len(subset), o.Par, func(i int) (int64, error) {
		r, err := runOne(sched.PMOD(), set, subset[i], cfg, o)
		if err != nil {
			return 0, err
		}
		return r.CompletionTime, nil
	})
	if err != nil {
		return res13(), err
	}
	base := map[string]int64{}
	for i, p := range subset {
		base[p.Label()] = baseRuns[i]
	}
	res := res13()
	type cfgCase struct {
		label string
		d     drift.Config
	}
	var cases []cfgCase
	for _, iv := range []int{100, 500, 1000, 2000, 2500} {
		cases = append(cases, cfgCase{fmt.Sprintf("A:interval=%d", iv), drift.Config{SampleInterval: iv}})
	}
	for _, st := range []int{5, 10, 20, 30} {
		cases = append(cases, cfgCase{fmt.Sprintf("B:step=%d", st), drift.Config{Step: st}})
	}
	for _, it := range []int{10, 30, 50, 70, 90} {
		cases = append(cases, cfgCase{fmt.Sprintf("C:init=%d", it), drift.Config{InitialTDF: it}})
	}
	rows, err := parallelMap(len(cases), o.Par, func(i int) (Row, error) {
		c := cases[i]
		s := sched.NewCPS(sched.CPSConfig{
			Label: c.label, UseRQ: true, UseTDF: true, Bags: bag.DefaultPolicy(), Drift: c.d,
		})
		var ratios []float64
		for _, p := range subset {
			r, err := runOne(s, set, p, cfg, o)
			if err != nil {
				return Row{}, err
			}
			ratios = append(ratios, float64(base[p.Label()])/float64(r.CompletionTime))
		}
		return Row{Label: c.label,
			Values: map[string]float64{"speedup-vs-pmod": stats.Geomean(ratios)}}, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	res.Notes = append(res.Notes, "paper picks interval 2000, step 10%, initial 50%; initial TDF is insensitive")
	return res, nil
}

func res13() Result {
	return Result{ID: "fig13", Title: "Adaptive TDF tunables (geomean speedup vs PMOD)",
		Series: []string{"speedup-vs-pmod"}}
}

func fig14(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	cfg := sim.DefaultHW()
	res := Result{ID: "fig14", Title: "Bag transport vs PMOD (speedup; higher is better)",
		Series: []string{"push", "pull"}}
	// The push/pull gap is small relative to order noise at reduced scale,
	// so every cell averages a few seeds.
	seeds := []uint64{o.Seed, o.Seed + 1, o.Seed + 2}
	rows, err := pairRows(pairs(), o, func(p Pair) (Row, error) {
		avg := func(run func(Options) (stats.Run, error)) (float64, error) {
			var times []float64
			for _, seed := range seeds {
				so := o
				so.Seed = seed
				r, err := run(so)
				if err != nil {
					return 0, err
				}
				times = append(times, float64(r.CompletionTime))
			}
			return stats.Geomean(times), nil
		}
		baseT, err := avg(func(so Options) (stats.Run, error) {
			return runOne(sched.PMOD(), set, p, cfg, so)
		})
		if err != nil {
			return Row{}, err
		}
		row := Row{Label: p.Label(), Values: map[string]float64{}}
		for _, tr := range []bag.Transport{bag.Push, bag.Pull} {
			pol := bag.DefaultPolicy()
			pol.Transport = tr
			s := sched.NewCPS(sched.CPSConfig{
				Label: "hdcps-" + tr.String(), UseRQ: true, UseTDF: true, Bags: pol,
			})
			t, err := avg(func(so Options) (stats.Run, error) {
				return runOne(s, set, p, cfg, so)
			})
			if err != nil {
				return Row{}, err
			}
			row.Values[tr.String()] = baseT / t
		}
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	geomeanRow(&res)
	res.Notes = append(res.Notes, "paper: pull ~1.5x better than push; push roughly at par with PMOD")
	return res, nil
}

func fig15(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	cfg := sim.DefaultHW()
	subset := []Pair{{"sssp", "cage"}, {"sssp", "road"}, {"pagerank", "web"}, {"color", "web"}}
	res := Result{ID: "fig15", Title: "Bag-creation threshold (geomean speedup vs PMOD)",
		Series: []string{"speedup-vs-pmod"}}
	baseRuns, err := parallelMap(len(subset), o.Par, func(i int) (int64, error) {
		r, err := runOne(sched.PMOD(), set, subset[i], cfg, o)
		if err != nil {
			return 0, err
		}
		return r.CompletionTime, nil
	})
	if err != nil {
		return res, err
	}
	base := map[string]int64{}
	for i, p := range subset {
		base[p.Label()] = baseRuns[i]
	}
	thresholds := []int{1, 2, 3, 4, 5}
	rows, err := parallelMap(len(thresholds), o.Par, func(i int) (Row, error) {
		th := thresholds[i]
		pol := bag.DefaultPolicy()
		pol.MinSize = th
		s := sched.NewCPS(sched.CPSConfig{
			Label: fmt.Sprintf("thresh-%d", th), UseRQ: true, UseTDF: true, Bags: pol,
		})
		var ratios []float64
		for _, p := range subset {
			r, err := runOne(s, set, p, cfg, o)
			if err != nil {
				return Row{}, err
			}
			ratios = append(ratios, float64(base[p.Label()])/float64(r.CompletionTime))
		}
		return Row{Label: fmt.Sprintf("threshold=%d", th),
			Values: map[string]float64{"speedup-vs-pmod": stats.Geomean(ratios)}}, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	res.Notes = append(res.Notes, "paper: threshold 3 delivers the best overall performance")
	return res, nil
}

// motivation quantifies the paper's §II argument on the same simulator:
// unordered execution (work stealing) wastes work, strictly ordered
// execution (one locked global queue) wastes synchronization, and relaxed
// priority schedulers (MultiQueue, RELD, PMOD, HD-CPS) live between. Not a
// paper figure; an extension experiment.
func motivation(o Options) (Result, error) {
	o = o.normalized()
	set, err := inputs(o)
	if err != nil {
		return Result{}, err
	}
	cfg := sim.DefaultSW(o.Cores)
	// No sssp-road here: unordered execution of weighted SSSP on a
	// high-diameter graph does unbounded rework — the extreme form of the
	// very effect this experiment quantifies.
	subset := []Pair{{"sssp", "cage"}, {"bfs", "road"}, {"color", "road"}}
	names := []string{"steal", "ordered", "multiq", "reld", "pmod", "hdcps-sw"}
	res := Result{ID: "motivation",
		Title: "Time (vs hdcps-sw) and work efficiency across the ordering spectrum"}
	for _, n := range names {
		res.Series = append(res.Series, n, "we-"+n)
	}
	rows, err := pairRows(subset, o, func(p Pair) (Row, error) {
		base, err := runOne(sched.HDCPSSW(), set, p, cfg, o)
		if err != nil {
			return Row{}, err
		}
		row := Row{Label: p.Label(), Values: map[string]float64{
			"hdcps-sw": 1.0, "we-hdcps-sw": base.WorkEfficiency(),
		}}
		for _, n := range names {
			if n == "hdcps-sw" {
				continue
			}
			s, err := sched.ByName(n)
			if err != nil {
				return Row{}, err
			}
			r, err := runOne(s, set, p, cfg, o)
			if err != nil {
				return Row{}, err
			}
			row.Values[n] = ratio(r.CompletionTime, base.CompletionTime)
			row.Values["we-"+n] = r.WorkEfficiency()
		}
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	geomeanRow(&res)
	res.Notes = append(res.Notes,
		"expected: steal has the worst work efficiency, ordered the best but the worst time at scale, relaxed schedulers win overall (§II)")
	return res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ratioF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
