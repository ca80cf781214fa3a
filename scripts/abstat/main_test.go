package main

import "testing"

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
