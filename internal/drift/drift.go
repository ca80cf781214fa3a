// Package drift implements the paper's central signal and heuristic:
// priority drift (Equation 1) and the feedback-driven task-distribution-
// factor controller (Algorithms 2 and 3, §III-C), plus the dynamic-oracle
// TDF search used as the heuristic's upper bound (§III-C, Fig. 12).
package drift

import "math"

// Drift computes Equation 1 over one interval's per-core priority reports:
// the mean absolute difference between each core's latest task priority and
// the reference priority. ref should be the globally highest priority (the
// numerically smallest report); Reports' callers typically pass
// MinReference(reports).
func Drift(reports []int64, ref int64) float64 {
	if len(reports) == 0 {
		return 0
	}
	var sum float64
	for _, p := range reports {
		d := p - ref
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	return sum / float64(len(reports))
}

// MinReference returns the highest priority (smallest value) among the
// reports, the paper's P0. It returns 0 for an empty slice.
func MinReference(reports []int64) int64 {
	if len(reports) == 0 {
		return 0
	}
	ref := reports[0]
	for _, p := range reports[1:] {
		if p < ref {
			ref = p
		}
	}
	return ref
}

// Decision records whether the controller last moved the TDF up or down.
type Decision int

const (
	// Increase means the adjustment raised (or will raise) the TDF.
	Increase Decision = iota
	// Decrease means the adjustment lowered (or will lower) the TDF.
	Decrease
)

// Config holds the controller's tunable parameters, with the paper's
// empirically chosen defaults (§V-E, Fig. 13).
type Config struct {
	// InitialTDF is the task distribution factor (percent of enqueues sent
	// to random remote cores) used before the first feedback. Paper: 50.
	InitialTDF int
	// Step is the TDF change per interval, in percentage points. Paper: 10.
	Step int
	// MinTDF and MaxTDF bound the controller. The paper notes TDF must stay
	// non-zero so distribution keeps load-balancing the cores.
	MinTDF, MaxTDF int
	// SampleInterval is the number of tasks a core processes between
	// reports to the master core (Algorithm 3's send_threshold). The paper
	// uses 2000 on billion-task runs; the default here is 200 so that a
	// reduced-scale run still gives the controller a comparable number of
	// feedback updates (Fig. 13A sweeps this parameter).
	SampleInterval int
}

// DefaultConfig returns the paper's tuned parameters.
func DefaultConfig() Config {
	return Config{
		InitialTDF: 50, Step: 10, MinTDF: 5, MaxTDF: 95,
		SampleInterval: 200,
	}
}

// sanitized fills zero fields with defaults so a partially specified Config
// behaves sensibly.
func (c Config) sanitized() Config {
	d := DefaultConfig()
	if c.InitialTDF <= 0 {
		c.InitialTDF = d.InitialTDF
	}
	if c.Step <= 0 {
		c.Step = d.Step
	}
	if c.MaxTDF <= 0 {
		c.MaxTDF = d.MaxTDF
	}
	if c.MinTDF <= 0 {
		c.MinTDF = d.MinTDF
	}
	if c.MinTDF > c.MaxTDF {
		c.MinTDF = c.MaxTDF
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = d.SampleInterval
	}
	return c
}

// Controller is the feedback TDF heuristic. Each sampling interval the
// master core feeds it the cores' priority reports; the controller compares
// the interval's drift with the previous one and nudges the TDF one step up
// or down, by one of two rules over the same state: Algorithm 2 as the paper
// gives it (Update, UpdateWithRef — the simulator's), or the
// drift-minimising hill-climber the native runtime uses (Climb).
//
// Controller is not safe for concurrent use; in HD-CPS only the master core
// updates it (the heuristic is non-blocking for all other cores, which keep
// using the previous TDF until the new value propagates).
type Controller struct {
	cfg      Config
	tdf      int
	pdPrev   float64
	havePrev bool
	prev     Decision
	history  []Record
}

// Record is one interval's controller state, kept for drift traces and the
// oracle comparison. Ref is the reference priority (Equation 1's P0) the
// interval's drift was computed against.
type Record struct {
	Drift float64
	Ref   int64
	TDF   int
}

// NewController returns a controller with cfg (zero fields take defaults).
func NewController(cfg Config) *Controller {
	c := cfg.sanitized()
	return &Controller{cfg: c, tdf: clamp(c.InitialTDF, c.MinTDF, c.MaxTDF), prev: Increase}
}

// Config returns the sanitized configuration in effect.
func (c *Controller) Config() Config { return c.cfg }

// TDF returns the current task distribution factor in percent.
func (c *Controller) TDF() int { return c.tdf }

// History returns a copy of the per-interval drift and TDF records
// accumulated so far. Returning a copy keeps the controller's internal
// trace safe from callers that append to or mutate the result.
func (c *Controller) History() []Record {
	return append([]Record(nil), c.history...)
}

// Update runs one Algorithm 2 step from the cores' priority reports and
// returns the TDF for the next interval.
func (c *Controller) Update(reports []int64) int {
	ref := MinReference(reports)
	return c.UpdateWithRef(Drift(reports, ref), ref)
}

// sanitizeDrift clamps an invalid drift sample: a task handler that emits
// garbage priorities corrupts Equation 1's signal, so the controller
// sanitizes at the boundary instead of walking its TDF off a poisoned
// comparison. NaN and -Inf fall back to
// the previous interval's drift (no signal → hold the comparison steady);
// +Inf and negative values clamp to the nearest representable valid value.
func (c *Controller) sanitizeDrift(pd float64) float64 {
	switch {
	case math.IsNaN(pd), math.IsInf(pd, -1):
		if c.havePrev {
			return c.pdPrev
		}
		return 0
	case math.IsInf(pd, +1):
		return math.MaxFloat64
	case pd < 0:
		return 0
	}
	return pd
}

// UpdateWithRef runs one controller step from a precomputed drift and the
// reference priority it was measured against, keeping both in the interval
// record so time-series consumers can reconstruct the feedback loop.
// Invalid drifts (NaN/Inf/negative) are clamped first (sanitizeDrift).
func (c *Controller) UpdateWithRef(pd float64, ref int64) int {
	pd = c.sanitizeDrift(pd)
	if c.havePrev { // the first interval has nothing to compare against
		switch {
		case pd >= c.pdPrev && c.prev == Increase:
			// Drift worsened after raising TDF: more communication did not
			// help, back off (Alg. 2 lines 5-7).
			c.move(Decrease)
		case pd >= c.pdPrev && c.prev == Decrease:
			// Drift worsened after lowering TDF: restore communication
			// (Alg. 2 lines 8-10).
			c.move(Increase)
		default: // pd < pdPrev
			// Drift improving: raise the TDF. Alg. 2's prose and pseudocode
			// disagree here (lines 11-13: "always increased" against a
			// decrement); this follows the prose, because the paper also
			// stresses that distribution must keep load-balancing the cores
			// and the pseudocode reading walks the TDF to its floor.
			c.move(Increase)
		}
	}
	return c.record(pd, ref)
}

// noiseBand is the relative change in drift between two intervals that
// Climb treats as no change. One interval's drift is a W-sample statistic
// (|p0-p1|/2 with two workers), so at a constant TDF it swings by more than
// its own size from one interval to the next (coefficient of variation
// measured on sssp/road: 1.3 to 2.3 with two workers, 0.5 to 0.6 with four;
// DESIGN.md §9.1). A quarter is well inside that noise: the band does not
// separate signal from noise, it sets how often a walk on pure noise takes
// the step down (a quarter to a half of the intervals).
const noiseBand = 0.25

// Climb runs one step of the native runtime's rule instead of Algorithm 2:
// a hill-climber on drift that charges for communication. Drift improved by
// more than noiseBand: the last move helped, repeat it. Worsened by more
// than the band: it hurt, reverse it. A change inside the band says the move
// bought nothing, and a remote dispatch costs a ring slot, a claim CAS and
// the child's cache lines crossing cores, so the TDF steps down: under pure
// noise the walk sinks instead of climbing, and distribution has to show a
// gain in drift to be kept. With no drift in either interval there is no
// priority information to act on and the TDF holds. History, clamping and
// sample sanitizing are UpdateWithRef's.
func (c *Controller) Climb(pd float64, ref int64) int {
	pd = c.sanitizeDrift(pd)
	if c.havePrev && (pd > 0 || c.pdPrev > 0) {
		switch {
		case pd < c.pdPrev*(1-noiseBand):
			c.move(c.prev)
		case pd > c.pdPrev*(1+noiseBand):
			c.move(Increase + Decrease - c.prev) // the other direction
		default:
			c.move(Decrease)
		}
	}
	return c.record(pd, ref)
}

// move steps the TDF one Step in direction d (anything but Increase is a
// Decrease), within [MinTDF, MaxTDF].
func (c *Controller) move(d Decision) {
	step := c.cfg.Step
	if d != Increase {
		d, step = Decrease, -step
	}
	c.tdf = clamp(c.tdf+step, c.cfg.MinTDF, c.cfg.MaxTDF)
	c.prev = d
}

// record closes the interval: pd becomes the next comparison's baseline and
// the interval joins the history with the TDF chosen for the next one.
func (c *Controller) record(pd float64, ref int64) int {
	c.history = append(c.history, Record{Drift: pd, Ref: ref, TDF: c.tdf})
	c.pdPrev, c.havePrev = pd, true
	return c.tdf
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
