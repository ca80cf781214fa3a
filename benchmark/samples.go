package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (q in [0,1]) of an ascending slice by
// linear interpolation between the two nearest ranks; 0 for no samples.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// percentileLadder is the set of percentiles a timing may be reported at,
// each with the share of samples that lies beyond it, in parts per 10000
// (integers, so that "ten of a hundred samples lie beyond p90" is exact).
var percentileLadder = []struct {
	q      float64
	beyond int
}{{0.50, 5000}, {0.75, 2500}, {0.90, 1000}, {0.99, 100}, {0.999, 10}, {0.9999, 1}}

// highestPercentile returns the highest rung of percentileLadder that still
// has at least ten of n samples beyond it — the tail a sample of that size
// can support. Below 20 samples not even the median qualifies and it
// returns 0.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n*p.beyond >= 10*10000 {
			best = p.q
		}
	}
	return best
}

// spread is the distance between the first and third quartile as a share of
// the median, computed the way Python's statistics.quantiles(n=4) does
// (exclusive method), so -compare and the driver agree.
func spread(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		frac := pos - float64(j)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return asc[j-1] + (asc[j]-asc[j-1])*frac
	}
	med := quantile(asc, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
