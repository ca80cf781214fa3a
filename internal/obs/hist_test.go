package obs

import (
	"encoding/json"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestHistBucketMonotoneAndContiguous(t *testing.T) {
	// Bucket index must be non-decreasing in the value, and the lower
	// bound of a value's bucket must never exceed the value.
	prev := -1
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 63, 64, 1000, 1 << 20, 1<<40 + 12345, 1 << 62} {
		idx := histBucket(v)
		if idx < prev {
			t.Fatalf("bucket index regressed at v=%d: %d < %d", v, idx, prev)
		}
		prev = idx
		if lo := histLower(idx); lo > v {
			t.Fatalf("histLower(%d)=%d > value %d", idx, lo, v)
		}
	}
	// Exhaustive round-trip over a dense small range: every bucket's lower
	// bound must map back to the same bucket.
	for v := int64(0); v < 1<<12; v++ {
		idx := histBucket(v)
		if histBucket(histLower(idx)) != idx {
			t.Fatalf("histLower(%d) does not round-trip for v=%d", idx, v)
		}
	}
}

func TestHistogramQuantilesWithinBucketError(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform values spanning 1us..1s in ns.
		v := int64(1000 * (1 << uint(rng.Intn(20))))
		v += rng.Int63n(v)
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := h.Quantile(q)
		// Conservative lower-bound estimate within one bucket (6.25% down,
		// never above the next bucket boundary).
		if got > exact {
			t.Fatalf("q%.3f: estimate %d above exact %d", q, got, exact)
		}
		if float64(got) < float64(exact)*(1-2.0/histSub) {
			t.Fatalf("q%.3f: estimate %d more than one bucket below exact %d", q, got, exact)
		}
	}
	if h.Count() != int64(len(vals)) {
		t.Fatalf("count %d != %d", h.Count(), len(vals))
	}
	if h.Max() != vals[len(vals)-1] {
		t.Fatalf("max %d != %d", h.Max(), vals[len(vals)-1])
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(-5)
	if h.Count() != 1 || h.Quantile(0.5) != 0 {
		t.Fatal("negative observation must clamp to zero")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				h.Observe(rng.Int63n(1 << 30))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != 20000 {
		t.Fatalf("count %d != 20000", h.Count())
	}
	if m := h.Max(); m <= 0 || m >= 1<<30 {
		t.Fatalf("max %d outside (0, 2^30)", m)
	}
	if h.Quantile(0.999) == 0 {
		t.Fatal("quantile should be nonzero")
	}
}

func TestHistogramJSON(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(int64(i) * 1e6)
	}
	buf, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Count   int64 `json:"count"`
		Buckets []struct {
			LoNs  int64 `json:"lo_ns"`
			Count int64 `json:"count"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != 100 || len(back.Buckets) == 0 {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
	var sum int64
	for _, b := range back.Buckets {
		sum += b.Count
	}
	if sum != 100 {
		t.Fatalf("bucket counts sum to %d, want 100", sum)
	}
}
