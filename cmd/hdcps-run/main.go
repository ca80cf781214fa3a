// Command hdcps-run executes one (scheduler, workload, input) combination
// and prints its metrics: completion time, task counts, work efficiency,
// priority drift, and the §IV-C breakdown. The scheduler is any simulated
// one, or "native" for the goroutine HD-CPS runtime.
//
// Usage:
//
//	hdcps-run -sched hdcps-sw -workload sssp -input road -cores 40 [-hw] [-scale small]
//	hdcps-run -sched native -workload sssp -input road -cores 4
//	hdcps-run -sched native -workload sssp -input road -queue multiqueue
//	hdcps-run -sched native -workload sssp -input road -trace trace.jsonl -metrics :6060
//	hdcps-run -sched native -workload sssp -input cage -jobs 4 -weights 4,2,1,1
//	hdcps-run -chaos "seed=42,delay=0.1,dup=0.02,reorder=0.2" -workload sssp -input road
//	hdcps-run -list
//
// An unset -cores means 40 simulated cores, or the runtime's default fleet
// for a native run. Every native run goes through exec.RunJobs and prints one
// report: the metrics, the engine's conservation ledger and its verdict, and
// the check against the sequential reference. -trace writes the run's JSONL
// trace (schema "hdcps-obs/v5": meta, per-worker counters, sampled events,
// one job row per tenant, the drift/ref/TDF control series) and -metrics
// serves expvar + pprof + a live counter snapshot at /debug/obs while the
// run executes.
//
// -jobs K runs K clones of the workload as tenants of one engine with
// fair-share weights from -weights (comma-separated, default all 1), and adds
// each tenant's ledger plus its measured share of processed tasks over the
// window where every tenant was backlogged, against its weight's share.
//
// -chaos runs the native runtime behind the fault-injecting transport with
// the given mix spec ("default" for the stock mix) and adds the
// injected-fault counts and any quarantined tasks; it combines with -jobs.
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
	"hdcps/internal/sched"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
	"hdcps/internal/workload"
)

// native is the -sched name of the goroutine runtime.
const native = "native"

func main() {
	var (
		schedName = flag.String("sched", "hdcps-sw", "scheduler: a simulated one or \"native\" (see -list)")
		wlName    = flag.String("workload", "sssp", "workload name (see -list)")
		input     = flag.String("input", "road", "input graph: road, cage, web, lj, grid, or a file path (.gr/.txt/.mtx)")
		cores     = flag.Int("cores", 0, "simulated cores (default 40), or native worker goroutines (default: the runtime's fleet of 4)")
		hw        = flag.Bool("hw", false, "use the Table I hardware machine (hRQ/hPQ enabled; simulated schedulers only)")
		scale     = flag.String("scale", "small", "synthetic input scale: tiny, small, large")
		seed      = flag.Uint64("seed", 42, "deterministic seed")
		verify    = flag.Bool("verify", true, "verify the workload result against the sequential reference")
		list      = flag.Bool("list", false, "list schedulers and workloads, then exit")
		trace     = flag.String("trace", "", "write the native runtime's JSONL observability trace here (\"-\" for stdout; native only)")
		metrics   = flag.String("metrics", "", "serve expvar/pprof/obs debug HTTP on this address during the run, e.g. :6060 (native only)")
		chaosSpec = flag.String("chaos", "", "run the native runtime under fault injection with this mix, e.g. \"seed=42,delay=0.1,dup=0.02\" or \"default\"")
		jobsN     = flag.Int("jobs", 1, "run this many concurrent clones of the workload as tenants of one native engine (native only)")
		weightsCS = flag.String("weights", "", "comma-separated fair-share weights for -jobs tenants, e.g. 4,2,1,1 (default: all 1)")
		// The accepted values come from runtime.QueueKinds() — both here and
		// in validQueueKind — so a newly registered kind can never be
		// silently missing from the CLI.
		queueKind = flag.String("queue", "", "native local-queue shape: "+
			strings.Join(runtime.QueueKinds(), ", ")+
			" (default "+runtime.QueueTwoLevel+"; native only)")
	)
	flag.Parse()

	if *list {
		fmt.Println("schedulers:", append(sched.Names(), native))
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

	if *schedName != native && *chaosSpec == "" {
		if *trace != "" || *metrics != "" || *queueKind != "" || *jobsN > 1 || *weightsCS != "" {
			fatal(fmt.Errorf("-trace/-metrics/-queue/-jobs/-weights need the native runtime (use -sched native)"))
		}
		s, err := sched.ByName(*schedName)
		if err != nil {
			fatal(fmt.Errorf("%w (or %q for the native runtime; see -list)", err, native))
		}
		r := s.Run(w, machine(*cores, *hw), *seed)
		r.SeqTasks = workload.RunSequential(w.Clone())
		printRun(r, g, false, *hw)
		if *verify {
			if err := w.Verify(); err != nil {
				fatal(fmt.Errorf("verification FAILED: %w", err))
			}
			fmt.Println("verification:    OK")
		}
		return
	}

	// Native: one spec, one run, one report.
	weights, err := parseWeights(*weightsCS, *jobsN)
	if err != nil {
		fatal(err)
	}
	if *queueKind != "" && !validQueueKind(*queueKind) {
		fatal(fmt.Errorf("unknown -queue %q (valid: %s)", *queueKind, strings.Join(runtime.QueueKinds(), ", ")))
	}
	cfg := runtime.DefaultConfig(*cores)
	cfg.Seed = *seed
	cfg.QueueKind = *queueKind
	var rec *obs.Recorder
	if *trace != "" || *metrics != "" {
		rec = obs.New(obs.Config{Workers: cfg.Workers})
		cfg.Obs = rec
	}
	spec := exec.Spec{Native: &cfg}
	if *chaosSpec != "" {
		mix, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fatal(err)
		}
		spec.Chaos = &mix
	}
	if *metrics != "" {
		http.Handle("/debug/obs", rec.Handler())
		go func() {
			if err := http.ListenAndServe(*metrics, nil); err != nil {
				fmt.Fprintf(os.Stderr, "hdcps-run: metrics server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "metrics: serving /debug/vars /debug/pprof/ /debug/obs on %s\n", *metrics)
	}

	ws := []workload.Workload{w}
	jcs := []runtime.JobConfig{{Name: fmt.Sprintf("%s-0", w.Name()), Weight: weights[0]}}
	for i := 1; i < len(weights); i++ {
		ws = append(ws, w.Clone())
		jcs = append(jcs, runtime.JobConfig{Name: fmt.Sprintf("%s-%d", w.Name(), i), Weight: weights[i]})
	}
	r, rep, err := exec.RunJobs(ws, jcs, spec)
	if err != nil {
		fatal(err)
	}
	r.SeqTasks = int64(len(ws)) * workload.RunSequential(w.Clone())
	printRun(r, g, true, false)

	if spec.Chaos != nil {
		fmt.Printf("chaos mix:       %s\n", spec.Chaos)
		fmt.Printf("chaos faults:    %s\n", rep.Faults)
	}
	if len(ws) > 1 {
		fmt.Printf("jobs:            %d tenants, weights %v\n", len(ws), weights)
		for i, js := range rep.Jobs {
			fmt.Printf("job %d (%s): weight %d share %.3f (want %.3f) | submitted %d + spawned %d = processed %d + bags %d + quarantined %d + cancelled %d (outstanding %d)\n",
				i, js.Name, js.Weight, rep.Shares[i], rep.WeightShares[i],
				js.Submitted, js.Spawned, js.Processed, js.BagsRetired,
				js.Quarantined, js.CancelledTasks, js.Outstanding)
		}
		fmt.Printf("fairness window: %d tasks, worst |share-want| %.4f\n",
			rep.ShareSamples, rep.ShareError())
	}
	s := rep.Snapshot
	fmt.Printf("ledger:          submitted %d + spawned %d = processed %d + bagsRetired %d + quarantined %d + cancelled %d (outstanding %d, redirects %d, stolen %d)\n",
		s.Submitted, s.Spawned, s.TasksProcessed, s.BagsRetired, s.Quarantined, s.Cancelled, s.Outstanding, s.Redirects, s.Stolen)
	if rep.ConservationErr != nil {
		fatal(fmt.Errorf("conservation FAILED: %w", rep.ConservationErr))
	}
	fmt.Println("conservation:    OK (global + per-job ledgers exact, rows partition the totals)")
	for _, q := range rep.Quarantined {
		fmt.Printf("quarantined:     %s\n", q)
	}
	if rep.DrainErr != nil {
		fatal(fmt.Errorf("drain stalled: %w", rep.DrainErr))
	}
	if rec != nil {
		fmt.Printf("obs:             %d events recorded, %d spills, %d parks, %d TDF steps\n",
			rec.EventCount(), rec.Total(obs.COverflowSpills),
			rec.Total(obs.CIdleParks), rec.Total(obs.CTDFSteps))
	}
	if *trace != "" {
		if err := writeTrace(*trace, rep); err != nil {
			fatal(err)
		}
		if *trace != "-" {
			fmt.Printf("trace:           %s (%s)\n", *trace, obs.TraceSchema)
		}
	}

	if *verify {
		if len(rep.Quarantined) > 0 {
			// Quarantined tasks are accounted-for losses: the run is lossy by
			// design, so the sequential reference no longer applies.
			fmt.Printf("verification:    skipped (%d tasks quarantined)\n", len(rep.Quarantined))
			return
		}
		for i, tw := range ws {
			if err := tw.Verify(); err != nil {
				fatal(fmt.Errorf("verification FAILED for job %d: %w", i, err))
			}
		}
		if len(ws) > 1 {
			fmt.Printf("verification:    OK (%d tenants)\n", len(ws))
		} else {
			fmt.Println("verification:    OK")
		}
	}
}

// printRun prints a run's metrics; the simulator adds messages and the
// §IV-C breakdown.
func printRun(r stats.Run, g *graph.CSR, isNative, hw bool) {
	mode, unit := "software", "cycles"
	switch {
	case isNative:
		mode, unit = "native goroutines", "ns"
	case hw:
		mode = "hardware"
	}
	fmt.Printf("executor:        %s\n", r.Scheduler)
	fmt.Printf("workload/input:  %s / %s (%d nodes, %d edges)\n",
		r.Workload, r.Input, g.NumNodes(), g.NumEdges())
	fmt.Printf("cores:           %d (%s mode)\n", r.Cores, mode)
	fmt.Printf("completion time: %d %s\n", r.CompletionTime, unit)
	fmt.Printf("tasks processed: %d (sequential needs %d, work efficiency %.3f)\n",
		r.TasksProcessed, r.SeqTasks, r.WorkEfficiency())
	if r.EdgesExamined > 0 {
		fmt.Printf("edges examined:  %d\n", r.EdgesExamined)
	}
	if !isNative {
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
			r.TDFTrace[:min(len(r.TDFTrace), 16)], float64(tdfSum)/float64(len(r.TDFTrace)), r.AvgDrift(), len(r.TDFTrace))
	}
	if r.DriftClamped > 0 {
		fmt.Printf("drift clamped:   %d priority reports out of range (negative ones count as 0: the controller is blind to them)\n", r.DriftClamped)
	}
	if !isNative {
		fmt.Printf("breakdown:       %s\n", r.Breakdown)
	}
}

// machine is the simulated machine -cores and -hw select: the Table I
// machine or the software one, at -cores (40 when unset).
func machine(cores int, hw bool) sim.Config {
	if cores <= 0 {
		cores = 40
	}
	if !hw {
		return sim.DefaultSW(cores)
	}
	cfg := sim.DefaultHW()
	cfg.Cores = cores
	return cfg
}

// parseWeights reads -weights for n tenants (all 1 when unset).
func parseWeights(spec string, n int) ([]int, error) {
	weights := make([]int, max(n, 1))
	for i := range weights {
		weights[i] = 1
	}
	if spec == "" {
		return weights, nil
	}
	if n <= 1 {
		return nil, fmt.Errorf("-weights needs -jobs > 1")
	}
	parts := strings.Split(spec, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("-weights has %d entries, -jobs wants %d", len(parts), n)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-weights entry %q: want a positive integer", p)
		}
		weights[i] = v
	}
	return weights, nil
}

// writeTrace writes the run's trace to path ("-" for stdout).
func writeTrace(path string, rep *exec.JobsReport) error {
	if path == "-" {
		return rep.WriteTrace(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func validQueueKind(kind string) bool {
	for _, k := range runtime.QueueKinds() {
		if k == kind {
			return true
		}
	}
	return false
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
