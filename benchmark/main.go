// Command benchmark is the one benchmark of the whole stack: five named
// workloads, the end-to-end metrics a user of the scheduler sees, a
// per-layer ledger and a traced pass. README.md in this directory is the
// glossary; BENCHMARK.json at the repository root is the contract a driver
// runs it under.
//
//	go run ./benchmark -seed 42                          # all five, both passes
//	go run ./benchmark -workload sssp-road -trace 0      # one end-to-end pass
//	go run ./benchmark -workload sssp-road -trace 1      # one traced pass
//	go run ./benchmark -compare a.json b.json            # regression verdicts
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"time"
)

// env is one single-workload run: its inputs, its clock budget and what it
// has measured so far.
type env struct {
	workload string
	seed     uint64
	seconds  float64 // length of the measured phase
	trace    bool
	smoke    bool // tiny inputs and a fraction of a second per phase (tests)
	outDir   string
	out      io.Writer

	nproc int
	w     int // workers = GOMAXPROCS = min(nproc, 4)

	calib     []*calibJob   // the box clock's jobs, one per worker
	spans     *spanRecorder // nil in the untraced pass
	vals      values
	attempted int64
	failed    int64
	failNotes int
}

// warm is the discarded warm-up: the first ~1.5 s of a process run the same
// solve four times slower than steady state.
func (e *env) warm() time.Duration {
	if e.smoke {
		return 20 * time.Millisecond
	}
	if e.trace {
		return 2 * time.Second
	}
	return 3 * time.Second
}

// share returns frac of the measured phase as a duration.
func (e *env) share(frac float64) time.Duration {
	return time.Duration(e.seconds * frac * float64(time.Second))
}

// size picks an input dimension: full for a real run, small under -smoke.
func (e *env) size(full, small int) int {
	if e.smoke {
		return small
	}
	return full
}

// op counts one attempted operation; a non-nil err counts it as failed and
// prints the first few reasons.
func (e *env) op(err error) {
	e.attempted++
	if err == nil {
		return
	}
	e.failed++
	if e.failNotes < 5 {
		e.failNotes++
		fmt.Fprintf(e.out, "FAILED %s: %v\n", e.workload, err)
	}
}

func (e *env) set(name string, v float64) { e.vals[name] = v }

// clock returns a box clock with no bursts yet, whose bursts keep threads
// threads busy: as many as the phase it is for does.
func (e *env) clock(threads int) *boxClock { return &boxClock{jobs: e.calib[:threads]} }

var runners = map[string]func(*env) error{
	wSSSPRoad:     runSingleSolve,
	wPageRankWeb:  runSingleSolve,
	wTenantsMixed: runTenants,
	wServeIngest:  runIngest,
	wSimSweep:     runSimSweep,
}

// runOne runs a single workload in this process and prints its metrics and
// the driver's result line. It returns the process exit code.
func runOne(e *env) int {
	run, ok := runners[e.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %v)\n", e.workload, workloadNames)
		return 2
	}
	e.nproc = stdruntime.NumCPU()
	e.w = min(e.nproc, 4)
	prev := stdruntime.GOMAXPROCS(e.w)
	defer stdruntime.GOMAXPROCS(prev)
	e.vals = values{}
	e.calib = newCalibJobs(e.w, e.smoke)
	if e.trace {
		e.spans = newSpanRecorder()
	}
	fmt.Fprintf(e.out, "# %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d W=%d %s\n",
		e.workload, e.seed, e.seconds, e.trace, e.nproc, e.w, e.w, stdruntime.Version())

	if err := run(e); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", e.workload, err)
		return 1
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
		if err := os.MkdirAll(e.outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		if err := e.spans.writeJSONL(filepath.Join(e.outDir, e.workload+".trace.jsonl")); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing spans: %v\n", err)
			return 1
		}
		for name, ms := range selfByName(e.spans.all()) {
			fmt.Fprintf(e.out, "# span self time %-22s %12.3f ms\n", name, ms)
		}
	}
	metrics, err := report(e.out, e.workload, defs, e.vals)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	res := runResult{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: metrics}
	if err := printResult(e.out, res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames)+"); empty runs all five, both passes")
	seed := fs.Uint64("seed", 42, "input seed: the same seed gives the same graphs and arrival schedule")
	seconds := fs.Float64("seconds", 15, "length of the measured phase of each pass")
	trace := fs.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass with the per-layer ledger")
	smoke := fs.Bool("smoke", false, "tiny inputs, a fraction of a second per phase: proves every metric is still emitted")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json and the span files")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.json[,a2.json...] b.json[,b2.json...]")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse does not return an error
	if *smoke {
		explicit := false
		fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "seconds" })
		if !explicit {
			*seconds = 0.3
		}
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files (or comma-separated lists of them)")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, fs.Arg(0), fs.Arg(1)))
	case *workload != "":
		os.Exit(runOne(&env{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
			smoke: *smoke, outDir: *outDir, out: os.Stdout,
		}))
	default:
		os.Exit(runAll(*seed, *seconds, *smoke, *outDir))
	}
}
