package hdcps

import (
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

// solveNative is one native solve through exec.RunJobs, failed unless it
// drained with its ledger exact; it returns the snapshot taken after Stop.
func solveNative(b *testing.B, w workload.Workload, cfg runtime.Config) runtime.Snapshot {
	b.Helper()
	_, rep, err := exec.RunJobs([]workload.Workload{w}, []runtime.JobConfig{{}}, exec.Spec{Native: &cfg})
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		b.Fatal(err)
	}
	return rep.Final
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
				tasks += solveNative(b, w, runtime.DefaultConfig(4)).TasksProcessed
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
			// A recorder serves one engine: the engine keeps its counts in the
			// recorder's rows, so each solve gets a fresh one.
			cfg := runtime.DefaultConfig(4)
			var tasks int64
			for i := 0; i < b.N; i++ {
				w, err := workload.New(name, g)
				if err != nil {
					b.Fatal(err)
				}
				rec := obs.New(obs.Config{Workers: cfg.Workers})
				cfg.Obs = rec
				snap := solveNative(b, w, cfg)
				tasks += snap.TasksProcessed
				if rec.Total(obs.CTasksProcessed) != snap.TasksProcessed ||
					rec.Total(obs.CTasksBagged) != snap.BaggedTasks ||
					rec.Total(obs.CUnitsKeptLocal) != snap.KeptLocal {
					b.Fatal("recorder disagrees with the engine's snapshot")
				}
			}
			b.ReportMetric(float64(tasks)/float64(b.N), "tasks/op")
		})
	}
}

// BenchmarkWorkloadProcess isolates per-task workload cost (the simulator's
// inner loop) from scheduling: a full sequential drain per iteration.
func BenchmarkWorkloadProcess(b *testing.B) {
	g := graph.Cage(600, 12, 30, 42)
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			w, err := workload.New(name, g)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var tasks int64
			for i := 0; i < b.N; i++ {
				tasks = workload.RunSequential(w)
			}
			b.ReportMetric(float64(tasks), "tasks/op")
		})
	}
}
