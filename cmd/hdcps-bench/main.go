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
//	hdcps-bench -scale-gate 1.01 -scale large -reps 25   # 2 workers vs 1, 2 per CPU vs 2, on sssp/road
//
// Performance claims and the regression gate are the benchmark's
// (benchmark/, make bench-gate), not this command's. make scale-gate runs
// -scale-gate at the Makefile's limits in this tree and in its base through
// cmd/hdcps-ab.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hdcps/internal/exp"
)

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

		reps = flag.Int("reps", 20, "solves per worker count for -scale-gate (at least 15)")
		gate = flag.Float64("scale-gate", 0, "scaling gate: solve sssp/road with 1 and 2 workers and 2 per CPU in turn and fail when the 2-worker median exceeds this multiple of the 1-worker median, or the 2-per-CPU median 2x the 2-worker one (0: off)")
	)
	flag.Parse()

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
