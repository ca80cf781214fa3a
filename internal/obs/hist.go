package obs

// Histogram is a concurrent log-bucketed latency histogram: the recording
// side is one atomic add on a bucket chosen with shift/mask arithmetic (no
// floating point, no locks), and the read side reconstructs quantiles from
// the bucket boundaries. Buckets are exact below histLinear and then use
// histSub linear sub-buckets per power of two, which bounds the relative
// quantile error at 1/histSub (6.25%) — plenty for p50/p99/p99.9 SLO
// reporting, where run-to-run noise dwarfs bucket width.
//
// The zero value is NOT ready; use NewHistogram. Values are int64 (the
// serving layer records nanoseconds); negative observations clamp to 0.

import (
	"encoding/json"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// histSubBits picks 2^histSubBits linear sub-buckets per octave.
	histSubBits = 4
	histSub     = 1 << histSubBits // 16
	// histBuckets covers the whole non-negative int64 range: the largest
	// exponent Len64 can produce is 63, so indexes stay below 64*histSub.
	histBuckets = 64 * histSub
)

// Histogram accumulates int64 observations into log-spaced buckets. All
// methods are safe for concurrent use.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histBucket maps a value to its bucket index: identity below histSub,
// then (exponent, sub-bucket) pairs laid out contiguously.
func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - histSubBits - 1
	return exp*histSub + int(v>>uint(exp))
}

// histLower returns the smallest value that lands in bucket idx — the
// conservative (never over-reporting) quantile estimate.
func histLower(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	exp := idx/histSub - 1
	return int64(histSub+idx%histSub) << uint(exp)
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns the q-quantile (q in [0,1]) as the lower bound of the
// bucket holding that rank — a conservative estimate within 1/histSub of
// the true value. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest-rank on the cumulative counts; rank is 1-based.
	rank := int64(q*float64(n-1)) + 1
	var cum int64
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			cum += c
			if cum >= rank {
				return histLower(i)
			}
		}
	}
	return h.max.Load()
}

// HistSummary is the JSON-friendly view of a histogram of nanosecond
// latencies: counts plus the SLO quantiles in milliseconds.
type HistSummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary computes the SLO quantiles, interpreting observations as
// nanoseconds.
func (h *Histogram) Summary() HistSummary {
	const ms = 1e6
	return HistSummary{
		Count:  h.Count(),
		MeanMs: h.Mean() / ms,
		P50Ms:  float64(h.Quantile(0.50)) / ms,
		P90Ms:  float64(h.Quantile(0.90)) / ms,
		P99Ms:  float64(h.Quantile(0.99)) / ms,
		P999Ms: float64(h.Quantile(0.999)) / ms,
		MaxMs:  float64(h.Max()) / ms,
	}
}

// histDump is the full-fidelity JSON form: the summary plus every
// non-empty bucket (lower bound in ns → count), so a failure artifact
// carries the whole distribution, not just the quantiles.
type histDump struct {
	HistSummary
	Buckets []histBucketJSON `json:"buckets"`
}

type histBucketJSON struct {
	LoNs  int64 `json:"lo_ns"`
	Count int64 `json:"count"`
}

// MarshalJSON renders the summary plus the non-empty buckets.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	d := histDump{HistSummary: h.Summary()}
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			d.Buckets = append(d.Buckets, histBucketJSON{LoNs: histLower(i), Count: c})
		}
	}
	return json.Marshal(d)
}
