// Command hdcps-ab measures this tree against a base commit on the same box,
// now: the base is checked out beside the tree in a temporary git worktree
// and both sides run in turn, because a checked-in wall-clock baseline
// cannot gate on a shared box (the same commit reads 28% apart an hour
// later). A is the base (default HEAD~1), B this tree. Run it from the root
// of the checkout. It has three modes:
//
//	hdcps-ab [base-ref]
//	    The regression gate (make bench-gate): the whole benchmark in the
//	    order A B B A, so that a slow stretch of the host falls on both
//	    sides, at --seed 42 --seconds 5, judged by `benchmark -compare`:
//	    non-zero when an end-to-end metric is worse beyond its bound or a
//	    simulated sched.* count moved. About 5.5 minutes on 2 CPUs.
//
//	hdcps-ab -workload W [-pairs N] [-seed S] [base-ref]
//	    A claim's pairs: N pairs of one workload at BENCHMARK.json's settings
//	    (--seconds 15 --trace 0), the side that runs first alternating pair
//	    by pair. For each end-to-end metric it prints both medians and IQRs,
//	    the pairs B won, the exact two-sided sign-test p and whether the
//	    claim rule is met. It exits 1 when a run failed an operation. The run
//	    logs stay in $TMPDIR/hdcps-ab.*.
//
//	hdcps-ab -scale small=1.36,large=1.01 [base-ref]
//	    The scaling gate (make scale-gate): each tree's own `hdcps-bench
//	    -scale-gate <limit> -scale <s> -reps 25`, base first. It fails on
//	    this tree's ratio verdict, or when its one- or two-worker median is
//	    more than 25% slower than the base's.
//
// SIGINT and SIGTERM stop the runs; the worktree goes either way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// config is one A/B: the base and the mode's settings. A workload selects
// the claim mode, scales the scale mode, neither the gate.
type config struct {
	base, workload string
	pairs          int
	seed           uint64
	scales         [][2]string // scale, ratio limit
}

func main() {
	cfg := config{base: "HEAD~1"}
	flag.StringVar(&cfg.workload, "workload", "", "claim mode: run pairs of this benchmark workload")
	flag.IntVar(&cfg.pairs, "pairs", 10, "claim mode: the number of pairs")
	flag.Uint64Var(&cfg.seed, "seed", 42, "claim mode: the benchmark's input seed")
	flag.Func("scale", "scale mode: scale=limit,... for hdcps-bench -scale-gate", func(list string) error {
		for _, kv := range strings.Split(list, ",") {
			s, limit, _ := strings.Cut(kv, "=")
			if x, err := strconv.ParseFloat(limit, 64); err != nil || x <= 0 {
				return fmt.Errorf("%q: the limit must be a positive number", kv)
			}
			cfg.scales = append(cfg.scales, [2]string{s, limit})
		}
		return nil
	})
	flag.Parse()
	if flag.NArg() == 1 {
		cfg.base = flag.Arg(0)
	}
	if flag.NArg() > 1 || cfg.pairs < 1 || (cfg.workload != "" && cfg.scales != nil) {
		fmt.Fprintln(os.Stderr, "usage: hdcps-ab [-workload W [-pairs N] [-seed S] | -scale s=limit,...] [base-ref]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdcps-ab: %v\n", err)
		os.Exit(1)
	}
}

// run checks the base out in a temporary git worktree and runs the mode's
// trials. The worktree goes, with git's record of it, whatever the mode
// returns, also when a signal cancelled its commands.
func run(ctx context.Context, cfg config) error {
	tmp, err := os.MkdirTemp("", "hdcps-ab.")
	if err != nil {
		return err
	}
	if cfg.workload == "" { // a claim's logs stay for the record
		defer os.RemoveAll(tmp)
	}
	wt := filepath.Join(tmp, "base")
	defer exec.Command("git", "worktree", "prune").Run()
	defer os.RemoveAll(wt)
	if out, err := exec.Command("git", "worktree", "add", "--detach", wt, cfg.base).CombinedOutput(); err != nil {
		return fmt.Errorf("git worktree add %s: %v (a shallow checkout? fetch full history, or name a ref that is here)\n%s", cfg.base, err, out)
	}
	if cfg.scales != nil {
		for _, s := range cfg.scales {
			// The base only lends its medians: its ratio is not this tree's to meet.
			gate := []string{"go", "run", "./cmd/hdcps-bench", "-scale", s[0], "-reps", "25", "-scale-gate"}
			base, err := trial(ctx, tmp, "base-"+s[0], wt, append(gate, "1000")...)
			if err != nil {
				return err
			}
			head, err := trial(ctx, tmp, "head-"+s[0], ".", append(gate, s[1])...)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "base: %shead: %s", base, head)
			if b, h := medians(base), medians(head); tooSlow(b, h) {
				return fmt.Errorf("%s: medians %v ms against the base's %v ms: slower by more than 25%%", s[0], h, b)
			}
		}
		return nil
	}
	pairs, args := 2, []string{"--seed", "42", "--seconds", "5"}
	if cfg.workload != "" {
		pairs, args = cfg.pairs, []string{"--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed), "--seconds", "15", "--trace", "0"}
		fmt.Fprintf(os.Stderr, "hdcps-ab: %s, %d pairs, seed %d; A = %s, B = this tree; logs in %s\n", cfg.workload, pairs, cfg.seed, cfg.base, tmp)
	}
	for _, name := range order(pairs) {
		dir := map[byte]string{'a': wt, 'b': "."}[name[0]]
		if _, err := trial(ctx, tmp, name, dir, append([]string{"bash", "benchmark/run.sh", "--out", filepath.Join(tmp, name)}, args...)...); err != nil {
			return err
		}
	}
	if cfg.workload != "" {
		c, err := loadClaim(tmp, pairs)
		fmt.Print(c)
		return err
	}
	ab := func(s string) string { return fmt.Sprintf("%[1]s/%[2]s1/result.json,%[1]s/%[2]s2/result.json", tmp, s) }
	out, err := trial(ctx, tmp, "compare", ".", "bash", "benchmark/run.sh", "--compare", ab("a"), ab("b"))
	fmt.Print(out)
	return err
}

// trial runs argv in dir and returns its output, which it keeps in
// tmp/<name>.log and shows when the run fails. argv leads a process group
// of its own, and the end of ctx kills the whole group: a run is a shell or
// go run, the build it starts and the binary that build made.
func trial(ctx context.Context, tmp, name, dir string, argv ...string) (string, error) {
	fmt.Fprintf(os.Stderr, "hdcps-ab: %s in %s\n", name, dir)
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Dir, cmd.SysProcAttr = dir, &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	out, err := cmd.CombinedOutput()
	os.WriteFile(filepath.Join(tmp, name+".log"), out, 0o644) // a claim reads its logs back: a lost one fails there
	if err != nil {
		os.Stderr.Write(out)
		return "", fmt.Errorf("%s failed: %v", name, err)
	}
	return string(out), nil
}

// order is the order n pairs run in, by name: an A run goes in the base's
// worktree, a B run in this tree, the A side first in odd pairs, so that two
// pairs are the gate's A B B A.
func order(n int) (names []string) {
	for i := 1; i <= n; i++ {
		a, b := fmt.Sprint("a", i), fmt.Sprint("b", i)
		if i%2 == 0 {
			a, b = b, a
		}
		names = append(names, a, b)
	}
	return names
}

// medians reads the one- and two-worker medians of a scale gate's report,
// nil when it printed none (it skipped on one CPU).
func medians(report string) []float64 {
	var one, two float64
	_, after, _ := strings.Cut(report, " solves: ")
	if _, err := fmt.Sscanf(after, "1 worker %g ms, 2 workers %g ms", &one, &two); err != nil {
		return nil
	}
	return []float64{one, two}
}

// tooSlow is the scale gate's absolute condition: this tree's one- or
// two-worker median more than 25% (BENCHMARK.json's timing bound) over the
// base's. A ratio cannot tell "one worker got faster" from "two workers got
// slower", so the ratio limit alone cannot be the gate. Without both sides'
// medians there is nothing to compare.
func tooSlow(base, head []float64) bool {
	return base != nil && head != nil && (head[0] > 1.25*base[0] || head[1] > 1.25*base[1])
}

// metricDef is one end_to_end entry of BENCHMARK.json.
type metricDef struct{ Name, Better string }

// runResult is the result line a single-workload benchmark run ends with.
type runResult struct {
	Correct           bool
	Attempted, Failed int64
	Metrics           map[string]struct{ Value float64 }
}

// claim is the aggregate of a claim's pairs: one row per end-to-end metric,
// and a line for each run that failed an operation and each metric a run
// lacks.
type claim struct {
	pairs    int
	rows     []row
	failures []string
}

// row is one metric over the pairs: both sides' medians and IQRs (Q3-Q1,
// exclusive quartiles), and the pairs B won and lost; a tie counts for
// neither side.
type row struct {
	name                   string
	medA, iqrA, medB, iqrB float64
	won, lost, pairs       int
}

// loadClaim reads BENCHMARK.json's end-to-end metrics and the result line,
// the last one, of each log a1.log, b1.log ... of n pairs in dir. It fails
// when a run failed an operation or lacks a metric.
func loadClaim(dir string, n int) (c claim, err error) {
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &doc)
	}
	if err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	c.pairs = n
	vals := map[string][]float64{} // side + metric name
	for _, side := range "ab" {
		for i := 1; i <= n; i++ {
			var r runResult
			path := filepath.Join(dir, fmt.Sprintf("%c%d.log", side, i))
			raw, err := os.ReadFile(path)
			if err != nil {
				return c, err
			}
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return c, fmt.Errorf("%s: no result line at the end: %w", path, err)
			}
			if !r.Correct || r.Failed > 0 {
				c.failures = append(c.failures, fmt.Sprintf("run %c%d: %d of %d operations failed (correct %v)", side, i, r.Failed, r.Attempted, r.Correct))
			}
			for name, m := range r.Metrics {
				vals[string(side)+name] = append(vals[string(side)+name], m.Value)
			}
		}
	}
	for _, d := range doc.EndToEnd {
		if xa, xb := vals["a"+d.Name], vals["b"+d.Name]; len(xa) == n && len(xb) == n {
			c.rows = append(c.rows, newRow(d, xa, xb))
		} else {
			c.failures = append(c.failures, d.Name+" missing from some runs")
		}
	}
	if len(c.failures) > 0 {
		err = fmt.Errorf("%d runs or metrics failed", len(c.failures))
	}
	return c, err
}

func newRow(d metricDef, xa, xb []float64) row {
	r := row{name: d.Name, pairs: len(xa),
		medA: quartile(xa, 2), iqrA: quartile(xa, 3) - quartile(xa, 1),
		medB: quartile(xb, 2), iqrB: quartile(xb, 3) - quartile(xb, 1)}
	for i := range xa {
		switch {
		case xb[i] == xa[i]:
		case (xb[i] > xa[i]) == (d.Better == "higher"):
			r.won++
		default:
			r.lost++
		}
	}
	return r
}

// met is the claim rule: B won at least nine tenths of all pairs run, and
// the medians differ by more than the spread of A's own runs.
func (r row) met() bool {
	return 10*r.won >= 9*r.pairs && math.Abs(r.medB-r.medA) > r.iqrA
}

func (c claim) String() string {
	var s strings.Builder
	for _, f := range c.failures {
		fmt.Fprintln(&s, f)
	}
	fmt.Fprintf(&s, "%d pairs; A is the base, B the change; IQR is Q3-Q1 (exclusive quartiles)\n", c.pairs)
	fmt.Fprintf(&s, "%-16s %12s %11s %12s %11s %8s %6s %9s  %s\n",
		"metric", "median A", "IQR A", "median B", "IQR B", "B vs A", "B won", "sign p", "claim")
	for _, r := range c.rows {
		met := map[bool]string{true: "met", false: "not met"}[r.met()]
		fmt.Fprintf(&s, "%-16s %12.6g %11.4g %12.6g %11.4g %+7.1f%% %3d/%-2d %9.4f  %s\n", r.name, r.medA, r.iqrA, r.medB,
			r.iqrB, 100*(r.medB-r.medA)/r.medA, r.won, r.pairs, signTestP(r.won, r.lost), met)
	}
	return s.String()
}

// quartile returns the k-th quartile of xs (k = 2 is the median) by the
// exclusive method of Python's statistics.quantiles(n=4), the one
// `benchmark -compare` takes its spread from.
func quartile(xs []float64, k int) float64 {
	asc := append([]float64(nil), xs...)
	sort.Float64s(asc)
	n := len(asc)
	if n == 1 {
		return asc[0]
	}
	// The fraction is taken from the clamped index, as Python does: at
	// n <= 3 the outer quartiles fall outside [1, n-1] and extrapolate.
	pos := float64(k) * float64(n+1) / 4
	j := min(max(int(pos), 1), n-1)
	return asc[j-1] + (asc[j]-asc[j-1])*(pos-float64(j))
}

// signTestP is the exact two-sided sign-test p of won wins against lost
// losses, ties dropped: the chance that a fair coin lands at least this far
// from an even split.
func signTestP(won, lost int) float64 {
	n := won + lost
	if n == 0 {
		return 1
	}
	tail, c := 0.0, 1.0 // c = C(n, i)
	for i := 0; i <= min(won, lost); i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}
