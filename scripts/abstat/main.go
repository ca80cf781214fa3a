// Command abstat summarises alternating base/change pairs of one benchmark
// workload: for each end-to-end metric BENCHMARK.json declares, both sides'
// medians and interquartile ranges, how many pairs the change won, and the
// exact two-sided sign-test p of that count. scripts/bench_ab.sh runs it
// after its pairs:
//
//	go run ./scripts/abstat BENCHMARK.json a1.log,a2.log,... b1.log,b2.log,...
//
// Each log is one `benchmark -workload W` run's output, whose last line is
// the run's result JSON; the i-th log of each list is the i-th pair. A tie
// counts for neither side. It exits 1 when a run is missing its result or
// reports a failed operation.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef is one end_to_end entry of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// runResult is the result line a single-workload benchmark run ends with.
type runResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: abstat BENCHMARK.json a1.log,a2.log,... b1.log,b2.log,...")
		os.Exit(2)
	}
	defs, err := loadDefs(os.Args[1])
	if err != nil {
		fail(err)
	}
	a, err := loadRuns(os.Args[2])
	if err != nil {
		fail(err)
	}
	b, err := loadRuns(os.Args[3])
	if err != nil {
		fail(err)
	}
	if len(a) != len(b) {
		fail(fmt.Errorf("%d runs of A against %d of B: pairs need both sides", len(a), len(b)))
	}
	code := 0
	for s, runs := range [][]runResult{a, b} {
		for i, r := range runs {
			if !r.Correct || r.Failed > 0 {
				fmt.Printf("run %c%d: %d of %d operations failed (correct %v)\n", 'A'+s, i+1, r.Failed, r.Attempted, r.Correct)
				code = 1
			}
		}
	}
	fmt.Printf("%d pairs; A is the base, B the change; IQR is Q3-Q1 (exclusive quartiles)\n", len(a))
	fmt.Printf("%-16s %12s %11s %12s %11s %8s %6s %9s\n",
		"metric", "median A", "IQR A", "median B", "IQR B", "B vs A", "B won", "sign p")
	for _, d := range defs {
		xa, xb := values(a, d.Name), values(b, d.Name)
		if len(xa) != len(a) || len(xb) != len(b) {
			fmt.Printf("%-16s missing from some runs\n", d.Name)
			code = 1
			continue
		}
		won, lost := 0, 0
		for i := range xa {
			switch better(xb[i], xa[i], d.Better) {
			case 1:
				won++
			case -1:
				lost++
			}
		}
		ma, mb := quartile(xa, 2), quartile(xb, 2)
		change := math.NaN()
		if ma != 0 {
			change = 100 * (mb - ma) / ma
		}
		fmt.Printf("%-16s %12.6g %11.4g %12.6g %11.4g %+7.1f%% %3d/%-2d %9.4f\n",
			d.Name, ma, quartile(xa, 3)-quartile(xa, 1), mb, quartile(xb, 3)-quartile(xb, 1),
			change, won, len(xa), signTestP(won, lost))
	}
	os.Exit(code)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "abstat: %v\n", err)
	os.Exit(2)
}

func loadDefs(path string) ([]metricDef, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// loadRuns reads the result line, the last one, of each log in a
// comma-separated list.
func loadRuns(list string) ([]runResult, error) {
	var runs []runResult
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
		var r runResult
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return nil, fmt.Errorf("%s: no result line at the end: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func values(runs []runResult, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// better is 1 when b beats a in the metric's direction, -1 when a beats b,
// and 0 for a tie.
func better(b, a float64, dir string) int {
	switch {
	case b == a:
		return 0
	case (b > a) == (dir == "higher"):
		return 1
	}
	return -1
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
