// Command hdcps-run executes one (executor, workload, input) combination
// and prints its metrics: completion time, task counts, work efficiency,
// priority drift, and the §IV-C breakdown. The executor is any simulated
// scheduler, or "native" for the goroutine HD-CPS runtime.
//
// Usage:
//
//	hdcps-run -sched hdcps-sw -workload sssp -input road -cores 40 [-hw] [-scale small]
//	hdcps-run -sched native -workload sssp -input road -cores 4
//	hdcps-run -sched native -workload sssp -input road -queue twolevel
//	hdcps-run -sched native -workload sssp -input road -queue multiqueue
//	hdcps-run -sched native -workload sssp -input road -trace trace.jsonl -metrics :6060
//	hdcps-run -sched native -workload sssp -input cage -jobs 4 -weights 4,2,1,1
//	hdcps-run -chaos "seed=42,delay=0.1,dup=0.02,reorder=0.2" -workload sssp -input road
//	hdcps-run -list
//
// For -sched native, -trace writes the observability layer's JSONL trace
// (schema "hdcps-obs/v2": counters, sampled events, per-job ledger rows,
// the drift/ref/TDF control series) and -metrics serves expvar + pprof + a
// live counter snapshot at /debug/obs while the run executes.
//
// -jobs K runs K concurrent clones of the workload as tenants of ONE native
// engine (the multi-tenant job layer) with fair-share weights from -weights
// (comma-separated, default all 1), and prints each tenant's conservation
// ledger plus its measured share of processed tasks over the window where
// every tenant was backlogged, against the share its weight entitles it to.
//
// -chaos runs the native runtime behind the fault-injecting transport
// (executor "native-chaos") with the given mix spec ("default" for the
// stock mix) and prints the injected-fault counts, the conservation-ledger
// verdict, and any quarantined tasks or stall diagnostics.
package main

import (
	_ "expvar" // /debug/vars on the -metrics mux
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // register /debug/pprof on the -metrics server
	"os"
	"strconv"
	"strings"

	"hdcps/internal/chaos"
	"hdcps/internal/exec"
	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/stats"
	"hdcps/internal/workload"
)

func main() {
	var (
		schedName = flag.String("sched", "hdcps-sw", "executor name: a simulated scheduler or \"native\" (see -list)")
		wlName    = flag.String("workload", "sssp", "workload name (see -list)")
		input     = flag.String("input", "road", "input graph: road, cage, web, lj, grid, or a file path (.gr/.txt/.mtx)")
		cores     = flag.Int("cores", 40, "simulated cores, or native worker goroutines for -sched native")
		hw        = flag.Bool("hw", false, "use the Table I hardware machine (hRQ/hPQ enabled; simulated executors only)")
		scale     = flag.String("scale", "small", "synthetic input scale: tiny, small, large")
		seed      = flag.Uint64("seed", 42, "deterministic seed")
		verify    = flag.Bool("verify", true, "verify the workload result against the sequential reference")
		list      = flag.Bool("list", false, "list executors and workloads, then exit")
		trace     = flag.String("trace", "", "write the native runtime's JSONL observability trace here (\"-\" for stdout; -sched native only)")
		metrics   = flag.String("metrics", "", "serve expvar/pprof/obs debug HTTP on this address during the run, e.g. :6060 (-sched native only)")
		chaosSpec = flag.String("chaos", "", "run under fault injection with this mix, e.g. \"seed=42,delay=0.1,dup=0.02\" or \"default\" (native runtime only)")
		jobsN     = flag.Int("jobs", 1, "run this many concurrent clones of the workload as tenants of one native engine (-sched native only)")
		weightsCS = flag.String("weights", "", "comma-separated fair-share weights for -jobs tenants, e.g. 4,2,1,1 (default: all 1)")
		// The accepted values come from runtime.QueueKinds() — both here and
		// in validQueueKind — so a newly registered kind can never be
		// silently missing from the CLI.
		queueKind = flag.String("queue", "", "native local-queue shape: "+
			strings.Join(runtime.QueueKinds(), ", ")+
			" (default "+runtime.QueueTwoLevel+"; -sched native only)")
	)
	flag.Parse()

	if *list {
		fmt.Println("executors: ", exec.Names())
		fmt.Println("workloads: ", workload.Names())
		fmt.Println("inputs:    road cage web lj grid, or a file path (.gr DIMACS, .txt SNAP, .mtx MatrixMarket)")
		return
	}

	g, err := buildInput(*input, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	w, err := workload.New(*wlName, g)
	if err != nil {
		fatal(err)
	}
	// -chaos forces the fault-injected native executor.
	if *chaosSpec != "" {
		*schedName = exec.ChaosName
	}
	x, err := exec.ByName(*schedName)
	if err != nil {
		fatal(err)
	}
	isChaos := *schedName == exec.ChaosName
	native := *schedName == exec.NativeName || isChaos

	spec := exec.Spec{Cores: *cores, Seed: *seed, Hardware: *hw}
	var rec *obs.Recorder
	if *trace != "" || *metrics != "" || *queueKind != "" {
		if !native {
			fatal(fmt.Errorf("-trace/-metrics/-queue need the native runtime (use -sched native)"))
		}
		if *queueKind != "" && !validQueueKind(*queueKind) {
			fatal(fmt.Errorf("unknown -queue %q (valid: %s)", *queueKind, strings.Join(runtime.QueueKinds(), ", ")))
		}
		workers := *cores
		if workers <= 0 {
			workers = 4
		}
		cfg := runtime.DefaultConfig(workers)
		cfg.Seed = *seed
		cfg.QueueKind = *queueKind
		if *trace != "" || *metrics != "" {
			rec = obs.New(obs.Config{Workers: workers})
			cfg.Obs = rec
		}
		spec.Native = &cfg
		if *metrics != "" {
			http.Handle("/debug/obs", rec.Handler())
			go func() {
				if err := http.ListenAndServe(*metrics, nil); err != nil {
					fmt.Fprintf(os.Stderr, "hdcps-run: metrics server: %v\n", err)
				}
			}()
			fmt.Fprintf(os.Stderr, "metrics: serving /debug/vars /debug/pprof/ /debug/obs on %s\n", *metrics)
		}
	}

	if *jobsN > 1 {
		if !native || isChaos {
			fatal(fmt.Errorf("-jobs needs the plain native runtime (use -sched native)"))
		}
		runJobsCmd(w, g, *jobsN, *weightsCS, spec, rec, *trace, *verify)
		return
	}
	if *weightsCS != "" {
		fatal(fmt.Errorf("-weights needs -jobs > 1"))
	}

	var r stats.Run
	var rep *exec.ChaosReport
	if isChaos {
		mix, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fatal(err)
		}
		spec.Chaos = &mix
		r, rep = exec.RunChaos(w, spec)
	} else {
		r = x.Run(w, spec)
	}
	r.SeqTasks = workload.RunSequential(w.Clone())

	fmt.Printf("executor:        %s\n", r.Scheduler)
	fmt.Printf("workload/input:  %s / %s (%d nodes, %d edges)\n",
		r.Workload, r.Input, g.NumNodes(), g.NumEdges())
	fmt.Printf("cores:           %d (%s mode)\n", r.Cores, mode(native, *hw))
	fmt.Printf("completion time: %d %s\n", r.CompletionTime, timeUnit(native))
	fmt.Printf("tasks processed: %d (sequential needs %d, work efficiency %.3f)\n",
		r.TasksProcessed, r.SeqTasks, r.WorkEfficiency())
	if r.EdgesExamined > 0 {
		fmt.Printf("edges examined:  %d\n", r.EdgesExamined)
	}
	if !native {
		fmt.Printf("messages sent:   %d\n", r.MessagesSent)
	}
	if r.BagsCreated > 0 {
		fmt.Printf("bags created:    %d (%d tasks bagged)\n", r.BagsCreated, r.BaggedTasks)
	}
	if r.Aborts > 0 {
		fmt.Printf("aborts:          %d\n", r.Aborts)
	}
	fmt.Printf("avg drift:       %.2f over %d samples\n", r.AvgDrift(), len(r.DriftTrace))
	if len(r.TDFTrace) > 0 {
		var tdfSum int
		for _, tdf := range r.TDFTrace {
			tdfSum += tdf
		}
		fmt.Printf("TDF trace:       %v (mean TDF %.1f, mean drift %.2f over %d intervals)\n",
			compact(r.TDFTrace, 16), float64(tdfSum)/float64(len(r.TDFTrace)), r.AvgDrift(), len(r.TDFTrace))
	}
	if r.DriftClamped > 0 {
		fmt.Printf("drift clamped:   %d priority reports out of range (negative ones count as 0: the controller is blind to them)\n", r.DriftClamped)
	}
	if !native {
		fmt.Printf("breakdown:       %s\n", r.Breakdown)
	}

	if rep != nil {
		fmt.Printf("chaos mix:       %s\n", rep.Mix)
		fmt.Printf("chaos faults:    %s\n", rep.Faults)
		s := rep.Snapshot
		fmt.Printf("chaos ledger:    submitted %d + spawned %d = processed %d + bagsRetired %d + quarantined %d (outstanding %d, redirects %d)\n",
			s.Submitted, s.Spawned, s.TasksProcessed, s.BagsRetired, s.Quarantined, s.Outstanding, s.Redirects)
		if rep.ConservationErr != nil {
			fatal(fmt.Errorf("conservation FAILED: %w", rep.ConservationErr))
		}
		fmt.Println("conservation:    OK (no task lost)")
		for _, q := range rep.Quarantined {
			fmt.Printf("quarantined:     %s\n", q)
		}
		if rep.DrainErr != nil {
			fatal(fmt.Errorf("drain stalled: %w", rep.DrainErr))
		}
	}
	if rec != nil {
		fmt.Printf("obs:             %d events recorded, %d spills, %d parks, %d TDF steps\n",
			rec.EventCount(), rec.Total(obs.COverflowSpills),
			rec.Total(obs.CIdleParks), rec.Total(obs.CTDFSteps))
	}
	if *trace != "" {
		if err := writeTrace(*trace, rec, r); err != nil {
			fatal(err)
		}
		if *trace != "-" {
			fmt.Printf("trace:           %s (%s)\n", *trace, obs.TraceSchema)
		}
	}

	if *verify {
		if rep != nil && len(rep.Quarantined) > 0 {
			// Quarantined tasks are accounted-for losses: the run is lossy by
			// design, so the sequential reference no longer applies.
			fmt.Printf("verification:    skipped (%d tasks quarantined)\n", len(rep.Quarantined))
		} else if err := w.Verify(); err != nil {
			fatal(fmt.Errorf("verification FAILED: %w", err))
		} else {
			fmt.Println("verification:    OK")
		}
	}
}

// runJobsCmd executes n concurrent clones of the workload as tenants of one
// native engine and prints per-job ledgers plus the weighted-fairness
// verdict: each tenant's measured share of processed tasks over the
// all-backlogged contention window against its weight share.
func runJobsCmd(w workload.Workload, g *graph.CSR, n int, weightSpec string, spec exec.Spec, rec *obs.Recorder, tracePath string, verify bool) {
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1
	}
	if weightSpec != "" {
		parts := strings.Split(weightSpec, ",")
		if len(parts) != n {
			fatal(fmt.Errorf("-weights has %d entries, -jobs wants %d", len(parts), n))
		}
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || v <= 0 {
				fatal(fmt.Errorf("-weights entry %q: want a positive integer", p))
			}
			weights[i] = v
		}
	}
	ws := make([]workload.Workload, n)
	jcs := make([]runtime.JobConfig, n)
	ws[0] = w
	for i := 1; i < n; i++ {
		ws[i] = w.Clone()
	}
	for i := range ws {
		jcs[i] = runtime.JobConfig{Name: fmt.Sprintf("%s-%d", w.Name(), i), Weight: weights[i]}
	}
	r, rep, err := exec.RunJobs(ws, jcs, spec)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("executor:        %s\n", r.Scheduler)
	fmt.Printf("workload/input:  %s / %s (%d nodes, %d edges)\n",
		r.Workload, r.Input, g.NumNodes(), g.NumEdges())
	fmt.Printf("cores:           %d (native goroutines)\n", r.Cores)
	fmt.Printf("completion time: %d ns\n", r.CompletionTime)
	fmt.Printf("tasks processed: %d (all tenants)\n", r.TasksProcessed)
	fmt.Printf("jobs:            %d tenants, weights %v\n", n, weights)
	for i, js := range rep.Jobs {
		fmt.Printf("job %d (%s): weight %d share %.3f (want %.3f) | submitted %d + spawned %d = processed %d + bags %d + quarantined %d + cancelled %d (outstanding %d)\n",
			i, js.Name, js.Weight, rep.Shares[i], rep.WeightShares[i],
			js.Submitted, js.Spawned, js.Processed, js.BagsRetired,
			js.Quarantined, js.CancelledTasks, js.Outstanding)
	}
	fmt.Printf("fairness window: %d tasks, worst |share-want| %.4f\n",
		rep.ShareSamples, rep.ShareError())
	if rep.DrainErr != nil {
		fatal(fmt.Errorf("drain stalled: %w", rep.DrainErr))
	}
	if rep.ConservationErr != nil {
		fatal(fmt.Errorf("conservation FAILED: %w", rep.ConservationErr))
	}
	fmt.Println("conservation:    OK (global + per-job ledgers exact, rows partition the totals)")

	if tracePath != "" && rec != nil {
		err := func() error {
			out := os.Stdout
			if tracePath != "-" {
				f, err := os.Create(tracePath)
				if err != nil {
					return err
				}
				defer f.Close()
				out = f
			}
			if err := rec.WriteJSONL(out); err != nil {
				return err
			}
			return obs.WriteJobsJSONL(out, runtime.JobRows(rep.Jobs))
		}()
		if err != nil {
			fatal(err)
		}
		if tracePath != "-" {
			fmt.Printf("trace:           %s (%s)\n", tracePath, obs.TraceSchema)
		}
	}

	if verify {
		for i, tw := range ws {
			if err := tw.Verify(); err != nil {
				fatal(fmt.Errorf("verification FAILED for job %d: %w", i, err))
			}
		}
		fmt.Printf("verification:    OK (%d tenants)\n", n)
	}
}

// writeTrace dumps the recorder's JSONL trace plus the run's control-plane
// time series (drift/ref/TDF per interval).
func writeTrace(path string, rec *obs.Recorder, r stats.Run) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := rec.WriteJSONL(out); err != nil {
		return err
	}
	return obs.WriteControlJSONL(out, obs.ControlSeries(r.DriftTrace, r.RefTrace, r.TDFTrace))
}

func validQueueKind(kind string) bool {
	for _, k := range runtime.QueueKinds() {
		if k == kind {
			return true
		}
	}
	return false
}

func mode(native, hw bool) string {
	switch {
	case native:
		return "native goroutines"
	case hw:
		return "hardware"
	default:
		return "software"
	}
}

func timeUnit(native bool) string {
	if native {
		return "ns"
	}
	return "cycles"
}

func compact(xs []int, max int) []int {
	if len(xs) <= max {
		return xs
	}
	return xs[:max]
}

// buildInput is a builtin input at the scale, or else a graph file.
func buildInput(name, scale string, seed uint64) (*graph.CSR, error) {
	g, berr := graph.Builtin(name, scale, seed)
	if berr == nil {
		return g, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("input %q is not a builtin (%v) and not readable: %w", name, berr, err)
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(name, ".mtx"):
		return graph.ReadMatrixMarket(name, f)
	case strings.HasSuffix(name, ".txt"):
		return graph.ReadSNAP(name, f)
	default:
		return graph.ReadDIMACS(name, f)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hdcps-run:", err)
	os.Exit(1)
}
