// Command hdcps-bench regenerates the paper's tables and figures: it runs
// the relevant schedulers and workloads on the simulator (or the native
// runtime, for Fig. 10) and prints the same rows and series the paper
// reports.
//
// Usage:
//
//	hdcps-bench -exp fig3            # one experiment
//	hdcps-bench -exp all             # the whole evaluation section
//	hdcps-bench -list                # available experiments
//	hdcps-bench -exp fig8 -scale large -seed 7
//	hdcps-bench -exp all -par 8      # run the experiment grid on 8 workers
//	hdcps-bench -native -label pr1 -o BENCH_native.json   # native runtime perf
//	hdcps-bench -native -label ci -scale tiny -reps 3 -o /tmp/gate.json \
//	    -check BENCH_native.json -tol 0.25               # CI regression gate
//	hdcps-bench -serve -label pr8 -o BENCH_serve.json     # serving saturation sweep
//	hdcps-bench -serve -label ci -scale tiny -o /tmp/serve.json \
//	    -check BENCH_serve.json -tol 0.25                # serve CI gate
//	hdcps-bench -scale-gate 1.5                           # 2 workers vs 1 on sssp/road
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"hdcps/internal/exp"
)

// startCPUProfile begins profiling into path ("" is a no-op) and returns the
// stop function; profile errors are fatal since the caller asked for data.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdcps-bench: cpuprofile: %v\n", err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err == nil {
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdcps-bench: memprofile: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	var (
		id     = flag.String("exp", "", "experiment to run: table1, table2, fig3..fig15, or all")
		scale  = flag.String("scale", "small", "input scale: tiny, small, large")
		seed   = flag.Uint64("seed", 42, "deterministic seed")
		cores  = flag.Int("cores", 40, "software-mode core count (hardware experiments always use Table I's 64)")
		format = flag.String("format", "table", "output format: table or csv")
		list   = flag.Bool("list", false, "list experiments and exit")
		par    = flag.Int("par", 0, "experiment grid worker pool size (0 = GOMAXPROCS)")
		trace  = flag.String("trace", "", "JSONL observability trace output for trace-producing experiments (e.g. drift-timeline; \"-\" for stdout)")

		native  = flag.Bool("native", false, "benchmark the native goroutine runtime and emit BENCH_native.json")
		srv     = flag.Bool("serve", false, "benchmark the network front-end (saturation sweep) and emit BENCH_serve.json")
		label   = flag.String("label", "dev", "label for the -native/-serve run (e.g. a commit or PR id)")
		out     = flag.String("o", "", "output path for -native/-serve (default BENCH_native.json / BENCH_serve.json; \"-\" for stdout)")
		workers = flag.Int("workers", 4, "native runtime worker count for -native/-serve")
		reps    = flag.Int("reps", 20, "repetitions per workload for -native")
		check   = flag.String("check", "", "regression gate: compare the fresh -native/-serve run against the latest run in this baseline document")
		tol     = flag.Float64("tol", 0.25, "fractional collapse tolerance for -check: fail below (1-tol) of baseline")
		gate    = flag.Float64("scale-gate", 0, "scaling gate: solve sssp/road with 1 and 2 workers in turn and fail when the 2-worker median exceeds this multiple of the 1-worker median (0: off; -reps solves each, at least 15)")
		probeD  = flag.Duration("probe-dur", 400*time.Millisecond, "per-probe duration for the -serve knee search")
		fixedD  = flag.Duration("fixed-dur", 0, "fixed-rate latency run duration for -serve (0: 2x probe-dur)")
		streams = flag.Int("streams", 0, "persistent-stream fan-out for -serve probes (0: 4, negative: legacy one POST per batch)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the -serve sweep here")
		memProf = flag.String("memprofile", "", "write a heap profile after the -serve sweep here")
	)
	flag.Parse()

	if *srv {
		if *out == "" {
			*out = "BENCH_serve.json"
		}
		stopProf := startCPUProfile(*cpuProf)
		run, err := runServeBench(*label, *scale, *out, *workers, *streams, *seed, *probeD, *fixedD)
		// Profiles are written before the exit-code decision so a failed run
		// (the case worth profiling) still leaves its artifacts behind.
		stopProf()
		if *memProf != "" {
			writeHeapProfile(*memProf)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdcps-bench: serve bench failed: %v\n", err)
			os.Exit(1)
		}
		if *check != "" {
			if err := checkServeRun(run, *check, *tol); err != nil {
				fmt.Fprintf(os.Stderr, "hdcps-bench: serve gate failed: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	if *native {
		if *out == "" {
			*out = "BENCH_native.json"
		}
		run, err := runNativeBench(*label, *scale, *out, *workers, *reps, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdcps-bench: native bench failed: %v\n", err)
			os.Exit(1)
		}
		if *check != "" {
			if err := checkNativeRun(run, *check, *tol); err != nil {
				fmt.Fprintf(os.Stderr, "hdcps-bench: regression gate failed: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	if *gate > 0 {
		if err := runScaleGate(*scale, *seed, *reps, *gate); err != nil {
			fmt.Fprintf(os.Stderr, "hdcps-bench: scale gate failed: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list || *id == "" {
		fmt.Println("experiments:")
		for _, eid := range exp.IDs() {
			e, _ := exp.Get(eid)
			fmt.Printf("  %-8s %s\n", eid, e.Title)
		}
		return
	}

	opts := exp.Options{Scale: *scale, Seed: *seed, Cores: *cores, Par: *par, TracePath: *trace}
	ids := []string{strings.ToLower(*id)}
	if *id == "all" {
		ids = exp.IDs()
	}
	for _, eid := range ids {
		e, ok := exp.Get(eid)
		if !ok {
			fmt.Fprintf(os.Stderr, "hdcps-bench: unknown experiment %q (use -list)\n", eid)
			os.Exit(1)
		}
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdcps-bench: %s failed: %v\n", eid, err)
			os.Exit(1)
		}
		if *format == "csv" {
			res.FormatCSV(os.Stdout)
		} else {
			res.Format(os.Stdout)
			fmt.Printf("  (%s, scale=%s, %.1fs)\n\n", eid, *scale, time.Since(start).Seconds())
		}
	}
}
