package drift

import (
	"math"
	"math/rand"
	"testing"
)

// climbOn feeds c n intervals whose drift is curve at the TDF in force,
// through step, and returns the TDF chosen after each.
func climbOn(c *Controller, step func(float64) int, curve func(tdf int) float64, n int) []int {
	tdfs := make([]int, n)
	for i := range tdfs {
		tdfs[i] = step(curve(c.TDF()))
	}
	return tdfs
}

// TestClimbOnCurves runs the native rule on noiseless drift(TDF) curves: it
// has to find the end of the range or the interior minimum the curve puts the
// least drift at, within ten intervals of the 50% start, and stay there.
func TestClimbOnCurves(t *testing.T) {
	d := DefaultConfig()
	cases := []struct {
		name   string
		curve  func(tdf int) float64
		lo, hi int // where the TDF has to be from the tenth interval on
	}{
		// Every remote dispatch adds drift: down to the floor.
		{"rising", func(tdf int) float64 { return float64(tdf) }, d.MinTDF, d.MinTDF + d.Step},
		// Each step up cuts drift by more than the band (e^-0.5 = 0.61):
		// distribution earns its keep, up to the ceiling.
		{"falling", func(tdf int) float64 { return 1000 * math.Exp(-float64(tdf)/20) }, d.MaxTDF - d.Step, d.MaxTDF},
		// Minimum at 30: within one step of it.
		{"u-shaped", func(tdf int) float64 { return 10 + float64((tdf-30)*(tdf-30))/10 }, 30 - d.Step, 30 + d.Step},
		// No priority information at all: never move.
		{"zero", func(int) float64 { return 0 }, d.InitialTDF, d.InitialTDF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewController(Config{})
			tdfs := climbOn(c, func(pd float64) int { return c.Climb(pd, 0) }, tc.curve, 200)
			for i, tdf := range tdfs[9:] {
				if tdf < tc.lo || tdf > tc.hi {
					t.Fatalf("interval %d: TDF %d outside [%d, %d]; walk %v", i+10, tdf, tc.lo, tc.hi, tdfs[:i+10])
				}
			}
			if len(c.History()) != len(tdfs) {
				t.Fatalf("history has %d records for %d intervals", len(c.History()), len(tdfs))
			}
		})
	}
}

// TestClimbFirstMoves pins the four branches interval by interval.
func TestClimbFirstMoves(t *testing.T) {
	c := NewController(Config{})
	for i, s := range []struct {
		pd   float64
		want int
		why  string
	}{
		{100, 50, "first interval: nothing to compare against"},
		{110, 40, "inside the band, signal non-zero: step down"},
		{60, 30, "improved after a step down: repeat it"},
		{90, 40, "worsened after a step down: reverse"},
		{50, 50, "improved after a step up: repeat it"},
		{80, 40, "worsened after a step up: reverse"},
		{0, 30, "improved to zero after a step down: repeat it"},
		{0, 30, "zero twice: hold"},
		{1, 40, "worsened from zero after a step down: reverse"},
	} {
		if got := c.Climb(s.pd, 0); got != s.want {
			t.Fatalf("interval %d (%s): TDF %d, want %d", i, s.why, got, s.want)
		}
	}
}

// meanStep runs n intervals of seeded multiplicative noise around a constant
// drift through step, on a controller whose range no walk of n steps can
// reach the end of, and returns the mean TDF change per interval in steps
// and the share of intervals whose change stayed inside noiseBand.
func meanStep(n int, noise func(*rand.Rand) float64, step func(*Controller, float64)) (mean, inBand float64) {
	const start = 1 << 30
	c := NewController(Config{InitialTDF: start, MinTDF: 1, MaxTDF: 2 * start, Step: 1})
	rng := rand.New(rand.NewSource(1))
	prev := 0.0
	for i := 0; i < n; i++ {
		pd := 10 * noise(rng)
		if i > 0 && pd >= prev*(1-noiseBand) && pd <= prev*(1+noiseBand) {
			inBand++
		}
		prev = pd
		step(c, pd)
	}
	return float64(c.TDF()-start) / float64(n), inBand / float64(n)
}

// Under noise the native rule must walk exactly as far as its tie-break says
// and no further: one step down for every interval inside the band, nothing
// for the rest (improved and worsened are equally likely and cancel).
func TestClimbUnbiasedUnderNoise(t *testing.T) {
	climb := func(c *Controller, pd float64) { c.Climb(pd, 0) }
	const n = 10000

	within := func(rng *rand.Rand) float64 { return 1 + 0.1*(2*rng.Float64()-1) } // +-10%
	mean, inBand := meanStep(n, within, climb)
	if inBand < 0.999 || math.Abs(mean+1) > 0.05 {
		t.Fatalf("noise inside the band: mean step %.3f with %.3f of intervals in band, want -1", mean, inBand)
	}

	wide := func(rng *rand.Rand) float64 { return math.Exp(2 * rng.NormFloat64()) }
	mean, inBand = meanStep(n, wide, climb)
	if inBand > 0.1 || math.Abs(mean+inBand) > 0.05 {
		t.Fatalf("noise far wider than the band: mean step %.3f, want -%.3f (the in-band share) +-0.05", mean, inBand)
	}
}

// Algorithm 2 (improving drift raises the TDF: the prose reading) is a biased walk
// under the same noise, which is what pinned the native TDF at MaxTDF: after
// a decrease every outcome raises the TDF, after an increase the odds are
// even, so the TDF climbs a third of a step per interval when comparisons
// are independent and 0.27 on i.i.d. noise (neighbouring comparisons share a
// sample). The simulator's default controller still behaves this way and its
// figures depend on it; this test is here so that nobody "fixes" it unseen.
func TestAlgorithm2ProseReadingClimbsUnderNoise(t *testing.T) {
	wide := func(rng *rand.Rand) float64 { return math.Exp(2 * rng.NormFloat64()) }
	mean, _ := meanStep(10000, wide, func(c *Controller, pd float64) { c.UpdateWithRef(pd, 0) })
	if mean < 0.2 || mean > 0.4 {
		t.Fatalf("mean step %.3f under noise, want the documented upward bias (0.2 to 0.4)", mean)
	}
}

// Climb shares UpdateWithRef's boundary: garbage drifts are clamped, the
// TDF stays in range and every interval is recorded.
func TestClimbSanitizesAndStaysInRange(t *testing.T) {
	c := NewController(Config{})
	for i, pd := range []float64{5, math.NaN(), math.Inf(1), -3, math.Inf(-1), 7, 0, 0, 1e300} {
		tdf := c.Climb(pd, int64(i))
		if tdf < c.Config().MinTDF || tdf > c.Config().MaxTDF {
			t.Fatalf("interval %d: TDF %d out of range", i, tdf)
		}
	}
	h := c.History()
	if len(h) != 9 || h[8].Ref != 8 {
		t.Fatalf("history %+v", h)
	}
	for i, r := range h {
		if math.IsNaN(r.Drift) || math.IsInf(r.Drift, 0) || r.Drift < 0 {
			t.Fatalf("interval %d recorded unsanitized drift %v", i, r.Drift)
		}
	}
	for _, r := range h {
		if math.IsNaN(r.Drift) || r.Drift < 0 {
			t.Fatalf("unsanitized drift in history: %+v", h)
		}
	}
}
