package drift

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDriftEquation(t *testing.T) {
	// Eq. 1: mean absolute difference to the reference.
	reports := []int64{10, 12, 10, 18}
	ref := MinReference(reports)
	if ref != 10 {
		t.Fatalf("ref = %d", ref)
	}
	got := Drift(reports, ref)
	want := (0.0 + 2 + 0 + 8) / 4
	if got != want {
		t.Fatalf("drift = %v, want %v", got, want)
	}
}

func TestDriftEdgeCases(t *testing.T) {
	if Drift(nil, 0) != 0 {
		t.Fatal("empty drift should be 0")
	}
	if MinReference(nil) != 0 {
		t.Fatal("empty reference should be 0")
	}
	if d := Drift([]int64{7, 7, 7}, 7); d != 0 {
		t.Fatalf("uniform reports drift = %v", d)
	}
	// Reference below all reports still yields non-negative drift.
	if d := Drift([]int64{5, 9}, 3); d != 4 {
		t.Fatalf("drift = %v, want 4", d)
	}
}

func TestDriftNonNegativeProperty(t *testing.T) {
	err := quick.Check(func(raw []int32) bool {
		reports := make([]int64, len(raw))
		for i, r := range raw {
			reports[i] = int64(r)
		}
		return Drift(reports, MinReference(reports)) >= 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestControllerDefaults(t *testing.T) {
	c := NewController(Config{})
	cfg := c.Config()
	if cfg.InitialTDF != 50 || cfg.Step != 10 || cfg.SampleInterval != 200 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if c.TDF() != 50 {
		t.Fatalf("initial TDF = %d", c.TDF())
	}
}

func TestControllerFirstIntervalHolds(t *testing.T) {
	c := NewController(Config{InitialTDF: 40})
	if got := c.UpdateWithRef(100, 0); got != 40 {
		t.Fatalf("first interval changed TDF to %d", got)
	}
}

// TestControllerAlgorithm2 walks the three branches of Algorithm 2 (the
// improving-drift branch under the prose's reading: increase).
func TestControllerAlgorithm2(t *testing.T) {
	c := NewController(Config{InitialTDF: 50, Step: 10})
	c.UpdateWithRef(100, 0) // prime pd_prev; TDF stays 50, prev=Increase

	// Branch lines 5-7: drift worsened after an increase -> decrease.
	if got := c.UpdateWithRef(120, 0); got != 40 {
		t.Fatalf("worsen-after-increase: TDF = %d, want 40", got)
	}
	// Branch lines 8-10: drift worsened after a decrease -> increase.
	if got := c.UpdateWithRef(140, 0); got != 50 {
		t.Fatalf("worsen-after-decrease: TDF = %d, want 50", got)
	}
	// Branch lines 11-13: drift improving -> increase, whatever came before.
	if got := c.UpdateWithRef(90, 0); got != 60 {
		t.Fatalf("improving after an increase: TDF = %d, want 60", got)
	}
	c.UpdateWithRef(95, 0) // worsened after the increase: back to 50
	if got := c.UpdateWithRef(80, 0); got != 60 {
		t.Fatalf("improving after a decrease: TDF = %d, want 60", got)
	}
}

func TestControllerImproveIncreases(t *testing.T) {
	// Improving drift keeps raising the TDF.
	c := NewController(Config{InitialTDF: 50, Step: 10})
	c.UpdateWithRef(100, 0)
	if got := c.UpdateWithRef(50, 0); got != 60 {
		t.Fatalf("improving drift: TDF = %d, want 60", got)
	}
	if got := c.UpdateWithRef(20, 0); got != 70 {
		t.Fatalf("improving again: TDF = %d, want 70", got)
	}
	// Worsening after the increases backs off.
	if got := c.UpdateWithRef(90, 0); got != 60 {
		t.Fatalf("worsening: TDF = %d, want 60", got)
	}
}

func TestControllerClamping(t *testing.T) {
	c := NewController(Config{InitialTDF: 10, Step: 30, MinTDF: 5, MaxTDF: 95})
	c.UpdateWithRef(10, 0)
	// Worsened after the (implicit) increase: 10-30 must stop at MinTDF.
	if got := c.UpdateWithRef(20, 0); got != 5 {
		t.Fatalf("TDF = %d, want clamp at 5", got)
	}
	// Improving drift repeatedly: TDF must not go above MaxTDF.
	for d := 19.0; d > 0; d-- {
		c.UpdateWithRef(d, 0)
	}
	if c.TDF() != 95 {
		t.Fatalf("TDF = %d, want clamp at 95", c.TDF())
	}
	// Oscillate worsening: must not exceed MaxTDF.
	c2 := NewController(Config{InitialTDF: 90, Step: 50, MinTDF: 5, MaxTDF: 95})
	c2.UpdateWithRef(1, 0)
	c2.UpdateWithRef(2, 0) // worsen after (implicit) increase -> decrease to 40
	c2.UpdateWithRef(3, 0) // worsen after decrease -> increase to 90
	c2.UpdateWithRef(4, 0) // worsen after increase -> decrease
	c2.UpdateWithRef(5, 0) // worsen after decrease -> increase, clamped
	if c2.TDF() > 95 {
		t.Fatalf("TDF = %d exceeds max", c2.TDF())
	}
}

func TestControllerBoundsProperty(t *testing.T) {
	err := quick.Check(func(drifts []float64, init, step uint8) bool {
		cfg := Config{InitialTDF: int(init%100) + 1, Step: int(step%30) + 1}
		c := NewController(cfg)
		for _, d := range drifts {
			if d < 0 {
				d = -d
			}
			tdf := c.UpdateWithRef(d, 0)
			if tdf < c.Config().MinTDF || tdf > c.Config().MaxTDF {
				return false
			}
		}
		return len(c.History()) == len(drifts)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestControllerHistory(t *testing.T) {
	c := NewController(Config{})
	c.UpdateWithRef(5, 0)
	c.UpdateWithRef(7, 0)
	h := c.History()
	if len(h) != 2 || h[0].Drift != 5 || h[1].Drift != 7 {
		t.Fatalf("history = %+v", h)
	}
	if h[0].TDF != 50 {
		t.Fatalf("first record TDF = %d", h[0].TDF)
	}
}

func TestUpdateUsesEquation1(t *testing.T) {
	c := NewController(Config{})
	c.Update([]int64{3, 5, 7}) // drift (0+2+4)/3 = 2
	if h := c.History(); len(h) != 1 || h[0].Drift != 2 {
		t.Fatalf("history = %+v", h)
	}
}

func TestOracleFindsBestConstant(t *testing.T) {
	// Completion time is minimized at TDF 30 in every interval.
	eval := func(schedule []int) float64 {
		var cost float64
		for _, tdf := range schedule {
			d := float64(tdf - 30)
			cost += d * d
		}
		return cost
	}
	got := Oracle(4, []int{10, 30, 50, 70, 90}, eval)
	if len(got) != 4 {
		t.Fatalf("schedule length %d", len(got))
	}
	for i, tdf := range got {
		if tdf != 30 {
			t.Fatalf("interval %d chose %d, want 30", i, tdf)
		}
	}
}

func TestOraclePhaseChange(t *testing.T) {
	// Intervals 0-1 favor high TDF, 2-3 favor low: the oracle must adapt
	// per interval, which is exactly its advantage over one static TDF.
	eval := func(schedule []int) float64 {
		var cost float64
		for i, tdf := range schedule {
			want := 90
			if i >= 2 {
				want = 10
			}
			d := float64(tdf - want)
			cost += d * d
		}
		return cost
	}
	got := Oracle(4, []int{10, 50, 90}, eval)
	want := []int{90, 90, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", got, want)
		}
	}
}

func TestOracleEdgeCases(t *testing.T) {
	if Oracle(0, []int{1}, func([]int) float64 { return 0 }) != nil {
		t.Fatal("zero intervals should return nil")
	}
	if Oracle(3, nil, func([]int) float64 { return 0 }) != nil {
		t.Fatal("no candidates should return nil")
	}
}

func TestFixedSchedule(t *testing.T) {
	f := FixedSchedule([]int{10, 20, 30}, 99)
	for i, want := range []int{10, 20, 30, 30, 30} {
		if got := f(i); got != want {
			t.Fatalf("f(%d) = %d, want %d", i, got, want)
		}
	}
	empty := FixedSchedule(nil, 42)
	if empty(0) != 42 || empty(7) != 42 {
		t.Fatal("empty schedule should use fallback")
	}
}

// A poisoned task handler can feed the controller NaN, infinite, or
// negative drift samples; before sanitizeDrift, one NaN made every
// subsequent pd >= pdPrev comparison false and pinned the controller in
// the "improving" branch forever. Each invalid sample must be clamped at
// the boundary, and the controller must keep stepping sanely.
func TestControllerSanitizesInvalidDrift(t *testing.T) {
	c := NewController(Config{InitialTDF: 50, Step: 10})
	c.UpdateWithRef(100, 0) // baseline; prev=Increase

	// NaN holds the previous drift: same-drift-after-increase worsens,
	// so the controller backs off rather than comparing against NaN.
	if got := c.UpdateWithRef(math.NaN(), 0); got != 40 {
		t.Fatalf("NaN sample: TDF = %d, want 40", got)
	}
	// The recorded history must hold the sanitized value, not NaN.
	h := c.History()
	if math.IsNaN(h[len(h)-1].Drift) {
		t.Fatal("NaN leaked into the controller history")
	}
	if h[len(h)-1].Drift != 100 {
		t.Fatalf("NaN sanitized to %v, want previous drift 100", h[len(h)-1].Drift)
	}

	// -Inf likewise falls back to the previous interval's drift.
	c.UpdateWithRef(math.Inf(-1), 0)
	// +Inf clamps to MaxFloat64: maximal worsening, a real comparison.
	c.UpdateWithRef(math.Inf(+1), 0)
	h = c.History()
	if v := h[len(h)-1].Drift; v != math.MaxFloat64 {
		t.Fatalf("+Inf sanitized to %v, want MaxFloat64", v)
	}
	// Negative drift clamps to zero (Equation 1 cannot go negative).
	c.UpdateWithRef(-42, 0)
	h = c.History()
	if v := h[len(h)-1].Drift; v != 0 {
		t.Fatalf("negative drift sanitized to %v, want 0", v)
	}
	// The controller still works after the garbage: a normal worsening
	// sample moves the TDF and stays within bounds.
	tdf := c.UpdateWithRef(500, 0)
	if tdf < c.Config().MinTDF || tdf > c.Config().MaxTDF {
		t.Fatalf("TDF %d escaped [%d, %d] after invalid samples",
			tdf, c.Config().MinTDF, c.Config().MaxTDF)
	}
}

// A NaN in the very first interval (no previous drift to fall back to)
// must sanitize to zero, not poison the stored baseline.
func TestControllerNaNFirstInterval(t *testing.T) {
	c := NewController(Config{InitialTDF: 50, Step: 10})
	c.UpdateWithRef(math.NaN(), 0)
	if h := c.History(); h[0].Drift != 0 {
		t.Fatalf("first-interval NaN stored as %v, want 0", h[0].Drift)
	}
	// The baseline is usable: an improving second interval steps the TDF.
	if got := c.UpdateWithRef(0, 0); got < c.Config().MinTDF {
		t.Fatalf("TDF %d below floor after NaN baseline", got)
	}
}

// Property: no stream of arbitrary float64 drifts (including NaN and ±Inf
// from bit patterns) can drive the TDF out of bounds or poison the history.
func TestControllerInvalidDriftProperty(t *testing.T) {
	err := quick.Check(func(bits []uint64) bool {
		c := NewController(Config{})
		for _, b := range bits {
			tdf := c.UpdateWithRef(math.Float64frombits(b), 0)
			if tdf < c.Config().MinTDF || tdf > c.Config().MaxTDF {
				return false
			}
		}
		for _, rec := range c.History() {
			if math.IsNaN(rec.Drift) || rec.Drift < 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// History hands back a copy: callers appending to or mutating the returned
// slice must not corrupt the controller's internal trace.
func TestHistoryReturnsCopy(t *testing.T) {
	c := NewController(Config{})
	c.UpdateWithRef(5, 0)
	c.UpdateWithRef(3, 0)
	h := c.History()
	if len(h) != 2 || h[0].Drift != 5 || h[1].Drift != 3 {
		t.Fatalf("history = %v", h)
	}
	h[0].Drift = -99
	h = append(h, Record{Drift: 123})
	_ = h
	c.UpdateWithRef(1, 0)
	h2 := c.History()
	if len(h2) != 3 {
		t.Fatalf("internal trace length %d, want 3", len(h2))
	}
	if h2[0].Drift != 5 || h2[2].Drift != 1 {
		t.Fatalf("internal trace corrupted by caller mutation: %v", h2)
	}
}
