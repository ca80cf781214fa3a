package hdcps

import (
	"bytes"
	"fmt"
	"testing"

	"hdcps/internal/exec"
	"hdcps/internal/exp"
	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/sched"
	"hdcps/internal/sim"
	"hdcps/internal/workload"
)

// One benchmark per table and figure of the paper's evaluation section.
// Each iteration regenerates the experiment end to end at tiny scale (the
// hdcps-bench command runs them at full scale); the custom "simcycles"
// metric reports deterministic simulated completion time where one exists,
// so changes to the schedulers show up even though wall time is noisy.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.Get(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	opts := exp.Options{Scale: "tiny", Seed: 42, Cores: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }

// BenchmarkSchedulers measures one (scheduler, workload) simulation per
// iteration and reports simulated cycles — the deterministic headline
// number behind Fig. 3 — alongside host wall time.
func BenchmarkSchedulers(b *testing.B) {
	g := graph.Road(48, 48, 42)
	for _, name := range []string{"seq", "reld", "obim", "pmod", "hdcps-sw", "hdcps-hw", "swarm"} {
		b.Run(name, func(b *testing.B) {
			s, err := sched.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := workload.New("sssp", g)
				if err != nil {
					b.Fatal(err)
				}
				r := s.Run(w, sim.DefaultSW(8), 42)
				cycles = r.CompletionTime
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkSimSweep is the simulator's host cost at the benchmark's
// sim-sweep shapes: sssp on Road(120) and pagerank on Web(5000), seed 42,
// under the six schedulers the sweep runs — the software ones on the 40-core
// software machine, hdcps-hw and swarm on the 64-core Table I machine. Each
// sub-benchmark is one cell and reports host ns per simulated task, the
// number a change to internal/sim or internal/pq moves; pagerank is most of
// the sweep's host time, and its spread accesses are what make the cache
// model's footprint show. A pass of all twelve takes ~2 s, so bench-smoke
// leaves it out; profile the sweep with
// go test -run '^$' -bench BenchmarkSimSweep -cpuprofile cpu.out .
func BenchmarkSimSweep(b *testing.B) {
	for _, in := range []struct {
		name string
		kind string
		g    *graph.CSR
	}{
		{"sssp-road", "sssp", graph.Road(120, 120, 42)},
		{"pagerank-web", "pagerank", graph.Web(5000, 42)},
	} {
		w, err := workload.New(in.kind, in.g)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"reld", "obim", "pmod", "hdcps-sw", "hdcps-hw", "swarm"} {
			s, err := sched.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg := sim.DefaultSW(40)
			if name == "hdcps-hw" || name == "swarm" {
				cfg = sim.DefaultHW()
			}
			b.Run(name+"/"+in.name, func(b *testing.B) {
				var tasks int64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tasks += s.Run(w, cfg, 42).TasksProcessed
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tasks), "ns/task")
			})
		}
	}
}

// solveNative is one native solve through exec.RunJobs, failed unless it
// drained with its ledger exact; it returns the run's report, whose Final is
// the snapshot taken after Stop.
func solveNative(b *testing.B, w workload.Workload, cfg runtime.Config) *exec.JobsReport {
	b.Helper()
	_, rep, err := exec.RunJobs([]workload.Workload{w}, []runtime.JobConfig{{}}, exec.Spec{Native: &cfg})
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkNativeRuntime measures the goroutine-based HD-CPS runtime on the
// host: tasks per second across the paper's workloads.
func BenchmarkNativeRuntime(b *testing.B) {
	g := graph.Road(48, 48, 42)
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			var tasks int64
			for i := 0; i < b.N; i++ {
				w, err := workload.New(name, g)
				if err != nil {
					b.Fatal(err)
				}
				tasks += solveNative(b, w, runtime.DefaultConfig(4)).Final.TasksProcessed
			}
			b.ReportMetric(float64(tasks)/float64(b.N), "tasks/op")
		})
	}
}

// BenchmarkNativeSolve is one native solve at the benchmark's shapes — sssp on
// Road(240, 240) and pagerank on Web(10000), graph and engine seed 42 — at one
// and two workers, the one workload reset by each solve's engine as the
// benchmark does. pagerank-copies is the owner-affinity control: two disjoint
// copies of Web(5000), the second numbered from 5000, so at two workers each
// copy is exactly one worker's block and no edge crosses the block cut. Its ns/task (solve wall time over tasks run, engine setup
// included) is the figure a CPU profile of the per-task path divides by:
//
//	go test -run '^$' -bench 'NativeSolve/sssp/w2' -cpuprofile cpu.out .
//
// A solve takes 10-60 ms, so bench-smoke's 100x leaves it out.
func BenchmarkNativeSolve(b *testing.B) {
	for _, tc := range []struct {
		name, kind string
		g          *graph.CSR
	}{
		{"sssp", "sssp", graph.Road(240, 240, 42)},
		{"pagerank", "pagerank", graph.Web(10000, 42)},
		{"pagerank-copies", "pagerank", twoCopies(graph.Web(5000, 42))},
	} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(b *testing.B) {
				cfg := runtime.DefaultConfig(workers)
				cfg.Seed = 42
				// Each solve's engine resets the one workload.
				w, err := workload.New(tc.kind, tc.g)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var tasks int64
				for i := 0; i < b.N; i++ {
					tasks += solveNative(b, w, cfg).Final.TasksProcessed
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tasks), "ns/task")
				b.ReportMetric(float64(tasks)/float64(b.N), "tasks/op")
			})
		}
	}
}

// twoCopies is g's disjoint union with itself: node v of the second copy is
// v + N, N being g's node count.
func twoCopies(g *graph.CSR) *graph.CSR {
	n, m := uint32(g.NumNodes()), uint32(g.NumEdges())
	c := &graph.CSR{
		Name: g.Name + "-x2",
		Off:  append([]uint32(nil), g.Off...),
		Dst:  append([]graph.NodeID(nil), g.Dst...),
		Wt:   append(append([]uint32(nil), g.Wt...), g.Wt...),
	}
	for _, o := range g.Off[1:] {
		c.Off = append(c.Off, o+m)
	}
	for _, v := range g.Dst {
		c.Dst = append(c.Dst, v+n)
	}
	return c
}

// BenchmarkInputs is input preparation at the benchmark's sizes, seed 42,
// one step a sub-benchmark with its allocations: generating the graph,
// workload.New on it (the source seed, the bucket width) and the sequential
// oracle run on a clone, which is what every benchmark workload pays before
// its first solve. road-120 and web-5000 are sim-sweep's inputs, the others
// those of the solve workloads. Profile one step with:
//
//	go test -run '^$' -bench 'Inputs/cage-80000/new' -cpuprofile cpu.out .
func BenchmarkInputs(b *testing.B) {
	for _, in := range []struct {
		name, kind string
		gen        func() *graph.CSR
	}{
		{"road-240", "sssp", func() *graph.CSR { return graph.Road(240, 240, 42) }},
		{"road-120", "sssp", func() *graph.CSR { return graph.Road(120, 120, 42) }},
		{"cage-32000", "sssp", func() *graph.CSR { return graph.Cage(32000, 34, 80, 42) }},
		{"cage-80000", "bfs", func() *graph.CSR { return graph.Cage(80000, 34, 80, 43) }},
		{"web-10000", "pagerank", func() *graph.CSR { return graph.Web(10000, 42) }},
		{"web-5000", "pagerank", func() *graph.CSR { return graph.Web(5000, 42) }},
		{"web-20000", "sssp", func() *graph.CSR { return graph.Web(20000, 42) }},
	} {
		b.Run(in.name+"/generate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.gen()
			}
		})
		b.Run(in.name+"/new", func(b *testing.B) {
			g := in.gen()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := workload.New(in.kind, g); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(in.name+"/oracle", func(b *testing.B) {
			w, err := workload.New(in.kind, in.gen())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var tasks int64
			for i := 0; i < b.N; i++ {
				tasks += workload.RunSequential(w.Clone())
			}
			b.ReportMetric(float64(tasks)/float64(b.N), "tasks/op")
		})
	}
}

// BenchmarkNativeRuntimeObserved is BenchmarkNativeRuntime with a live
// obs.Recorder attached — the number that backs the observability layer's
// "within 3% of disabled" overhead claim. Compare:
//
//	go test -run XX -bench 'NativeRuntime(Observed)?/sssp' -count 10 .
func BenchmarkNativeRuntimeObserved(b *testing.B) {
	g := graph.Road(48, 48, 42)
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			// Each solve gets a fresh recorder, so its event rings start
			// empty.
			cfg := runtime.DefaultConfig(4)
			var tasks int64
			for i := 0; i < b.N; i++ {
				w, err := workload.New(name, g)
				if err != nil {
					b.Fatal(err)
				}
				cfg.Obs = obs.New(obs.Config{Workers: cfg.Workers})
				rep := solveNative(b, w, cfg)
				snap := rep.Final
				tasks += snap.TasksProcessed
				b.StopTimer()
				var buf bytes.Buffer
				if err := rep.WriteTrace(&buf); err != nil {
					b.Fatal(err)
				}
				tr, err := obs.ReadTrace(&buf)
				if err != nil {
					b.Fatal(err)
				}
				sums := map[string]int64{}
				for _, row := range tr.Counters {
					for name, v := range row {
						sums[name] += v
					}
				}
				var processed int64
				for _, row := range tr.Jobs {
					p, _ := row["processed"].(float64)
					processed += int64(p)
				}
				if processed != snap.TasksProcessed ||
					sums[obs.CTasksBagged.String()] != snap.BaggedTasks ||
					sums[obs.CUnitsKeptLocal.String()] != snap.KeptLocal {
					b.Fatal("the trace's counters and job lines disagree with the engine's snapshot")
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(tasks)/float64(b.N), "tasks/op")
		})
	}
}

// BenchmarkWorkloadProcess isolates per-task workload cost from scheduling:
// a full strict-order drain per iteration, once serial (plain memory
// operations, what the simulator and the oracle run) and once shared
// (atomic ones, what the native engine runs). The gap is what atomicity
// costs one uncontended goroutine.
func BenchmarkWorkloadProcess(b *testing.B) {
	g := graph.Cage(600, 12, 30, 42)
	modes := []struct {
		name  string
		reset func(workload.Workload)
	}{
		{"serial", workload.ResetSerial},
		{"shared", workload.Workload.Reset},
	}
	for _, name := range workload.Names() {
		for _, m := range modes {
			b.Run(name+"/"+m.name, func(b *testing.B) {
				w, err := workload.New(name, g)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				var tasks int64
				for i := 0; i < b.N; i++ {
					m.reset(w)
					tasks = workload.DrainStrict(w)
				}
				b.ReportMetric(float64(tasks), "tasks/op")
			})
		}
	}
}
