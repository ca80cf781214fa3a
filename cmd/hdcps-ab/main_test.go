package main

import (
	"strings"
	"testing"
)

// The gate's two pairs are A B B A; a claim's pair i runs A first when i is
// odd, so that a slow stretch of the host falls on both sides.
func TestOrder(t *testing.T) {
	for _, c := range []struct {
		pairs int
		want  string
	}{
		{1, "a1 b1"},
		{2, "a1 b1 b2 a2"},
		{5, "a1 b1 b2 a2 a3 b3 b4 a4 a5 b5"},
	} {
		if got := strings.Join(order(c.pairs), " "); got != c.want {
			t.Errorf("order(%d) = %s, want %s", c.pairs, got, c.want)
		}
	}
}

// A line in the format hdcps-bench's runScaleGate prints.
const scaleReport = "scale-gate: sssp road-240x240, median of 25 solves: 1 worker 12.34 ms, 2 workers 10.56 ms, ratio 0.86 (limit 1.01); 4 workers on 2 CPUs 11.20 ms, 1.06 times 2 workers (limit 2.00)\n"

func TestMedians(t *testing.T) {
	got := medians(scaleReport)
	if len(got) != 2 || got[0] != 12.34 || got[1] != 10.56 {
		t.Fatalf("medians = %v, want [12.34 10.56]", got)
	}
	if got := medians("scale-gate: skipped, 1 CPU: two workers need two\n"); got != nil {
		t.Fatalf("a skipped gate's medians = %v, want none", got)
	}
}

func TestTooSlow(t *testing.T) {
	base := []float64{10, 8}
	for _, c := range []struct {
		name       string
		base, head []float64
		want       bool
	}{
		{"faster", base, []float64{9, 7}, false},
		{"exactly 1.25x", base, []float64{12.5, 10}, false},
		{"one worker just above", base, []float64{12.51, 8}, true},
		{"two workers just above", base, []float64{10, 10.01}, true},
		{"base skipped", nil, []float64{100, 100}, false},
		{"both skipped", nil, nil, false},
	} {
		if got := tooSlow(c.base, c.head); got != c.want {
			t.Errorf("%s: tooSlow(%v, %v) = %v, want %v", c.name, c.base, c.head, got, c.want)
		}
	}
}

// quartile must agree with Python's statistics.quantiles(xs, n=4,
// method='exclusive') at every n, the small ones included, where the outer
// quartiles' index is clamped. The wants are Python's output.
func TestQuartileMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{4, 1, 2}, [3]float64{1, 2, 4}},
		{[]float64{1, 2, 4, 8}, [3]float64{1.25, 3, 7}},
		{[]float64{64, 1, 32, 2, 16, 4, 8}, [3]float64{2, 8, 32}},
	} {
		for k := 1; k <= 3; k++ {
			if got := quartile(c.xs, k); got != c.want[k-1] {
				t.Errorf("n=%d: quartile %d = %v, want %v", len(c.xs), k, got, c.want[k-1])
			}
		}
	}
}

func TestSignTestP(t *testing.T) {
	for _, c := range []struct {
		won, lost int
		want      float64
	}{
		{0, 0, 1},
		{3, 0, 0.25},
		{5, 0, 0.0625},
		{7, 0, 0.015625},
		{4, 1, 0.375},
		{2, 2, 1},
	} {
		if got := signTestP(c.won, c.lost); got != c.want {
			t.Errorf("signTestP(%d, %d) = %v, want %v", c.won, c.lost, got, c.want)
		}
	}
}

// A row is met when B won at least 9/10 of all pairs run (a tie counts for
// neither side) and the medians differ by more than A's IQR.
func TestClaimMet(t *testing.T) {
	a := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19} // median 14.5, IQR 5.5
	shift := func(d float64, at map[int]float64) []float64 {
		b := make([]float64, len(a))
		for i, x := range a {
			b[i] = x + d
			if y, ok := at[i]; ok {
				b[i] = y
			}
		}
		return b
	}
	for _, c := range []struct {
		name      string
		better    string
		b         []float64
		won, lost int
		met       bool
	}{
		{"10/10, far", "lower", shift(-10, nil), 10, 0, true},
		{"9/10 and a tie, far", "lower", shift(-10, map[int]float64{9: 19}), 9, 0, true},
		{"9/10 and a loss, far", "lower", shift(-10, map[int]float64{0: 11}), 9, 1, true},
		{"9/10, within A's IQR", "lower", shift(-1, map[int]float64{9: 20}), 9, 1, false},
		{"8/10, far", "lower", shift(-10, map[int]float64{0: 11, 1: 12}), 8, 2, false},
		{"10/10 the wrong way", "higher", shift(-10, nil), 0, 10, false},
		{"10/10, higher is better", "higher", shift(10, nil), 10, 0, true},
	} {
		r := newRow(metricDef{Name: "m", Better: c.better}, a, c.b)
		if r.won != c.won || r.lost != c.lost || r.met() != c.met {
			t.Errorf("%s: won %d lost %d met %v, want %d, %d, %v (medians %v / %v, IQR A %v)",
				c.name, r.won, r.lost, r.met(), c.won, c.lost, c.met, r.medA, r.medB, r.iqrA)
		}
	}
}
