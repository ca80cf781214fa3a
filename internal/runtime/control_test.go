package runtime

import (
	"reflect"
	"sync"
	"testing"

	"hdcps/internal/drift"
	"hdcps/internal/obs"
	"hdcps/internal/task"
)

// An interval closes on every W-th report, whichever workers made them: once
// thieves can empty a worker's queue it may run too few tasks to report, and
// waiting for every worker to report (the rule until steal-when-behind)
// stalled the controller. A slot that was never written, or was cleared when
// its worker went idle, stays out of its job's snapshot: before the sentinel,
// a zero-valued slot against priority 1000 fabricated a drift of 500, and an
// idle worker's last priority would pose as drift.
func TestControlPlaneClosesEveryWReports(t *testing.T) {
	cfg := Config{Workers: 2}.withDefaults()
	cp := newTestPlane(cfg)
	cp.addJob()
	cp.report(0, 0, 100)
	if h := cp.History(); len(h) != 0 {
		t.Fatalf("interval closed on one report of two: %v", h)
	}
	cp.report(0, 0, 300) // the second report closes, worker 1 unheard
	h := cp.History()
	if len(h) != 1 || h[0].Drift != 0 {
		t.Fatalf("history %v, want one interval of drift 0: a never-reported slot leaked into a job's snapshot", h)
	}
	cp.report(1, 1, 1000) // worker 1, job 1 only
	cp.report(1, 0, 500)  // job 0 now has both workers: |500-300|/2
	if h = cp.History(); len(h) != 2 {
		t.Fatalf("controller updates %d, want 2", len(h))
	}
	// Per-job drifts weighted by reporters: (100*2 + 0*1) / 3.
	if want := 200.0 / 3; h[1].Drift != want {
		t.Fatalf("drift %v, want %v", h[1].Drift, want)
	}
	cp.idle(1)
	cp.report(0, 0, 300)
	cp.report(0, 0, 300)
	if h = cp.History(); len(h) != 3 || h[2].Drift != 0 {
		t.Fatalf("history %v, want a third interval of drift 0: an idle worker's last priority posed as drift", h)
	}
}

// Racing reporters close exactly one interval per W reports, however unevenly
// the workers report: the count is claimed by compare-and-swap, so no report
// is lost to a concurrent close and no two reports close the same interval.
func TestControlPlaneSingleCloserUnderRace(t *testing.T) {
	const workers, n = 4, 500
	cfg := Config{Workers: workers}.withDefaults()
	cp := newTestPlane(cfg)
	var wg sync.WaitGroup
	total := 0
	for w := 0; w < workers; w++ {
		reports := n
		if w == 0 {
			reports = 10 * n
		}
		total += reports
		wg.Add(1)
		go func(w, reports int) {
			defer wg.Done()
			for i := 0; i < reports; i++ {
				cp.report(w, 0, int64(i+w))
			}
		}(w, reports)
	}
	wg.Wait()
	if got, want := len(cp.History()), total/workers; got != want {
		t.Fatalf("%d intervals from %d reports, want %d", got, total, want)
	}
}

func TestControlPlaneFullSnapshotDrift(t *testing.T) {
	cfg := Config{Workers: 4}.withDefaults()
	cp := newTestPlane(cfg)
	for i, p := range []int64{100, 200, 300, 400} {
		cp.report(i, 0, p)
	}
	h := cp.History()
	if len(h) != 1 {
		t.Fatalf("controller updates %d, want 1", len(h))
	}
	// Eq. 1: mean |p - min| = (0 + 100 + 200 + 300) / 4.
	if h[0].Drift != 150 {
		t.Fatalf("drift %v, want 150", h[0].Drift)
	}
}

func TestControlPlaneFixedTDF(t *testing.T) {
	cfg := Config{Workers: 2, Drift: fixedTDF(70)}.withDefaults()
	cp := newTestPlane(cfg)
	if cp.TDF() != 70 {
		t.Fatalf("TDF %d, want 70", cp.TDF())
	}
	cp.report(0, 0, 5)
	cp.report(1, 0, 10)
	cp.report(0, 0, 5)
	cp.report(1, 0, 105)
	if cp.TDF() != 70 {
		t.Fatalf("fixed TDF moved to %d", cp.TDF())
	}
	// Drift is measured and recorded all the same, against the constant TDF.
	want := []drift.Record{{Drift: 2.5, Ref: 5, TDF: 70}, {Drift: 50, Ref: 5, TDF: 70}}
	if h := cp.History(); !reflect.DeepEqual(h, want) {
		t.Fatalf("fixed-TDF history %v, want %v", h, want)
	}

	// The zero Config pins nothing: it runs the adaptive controller from
	// drift's default start over drift's default range.
	cp2 := newTestPlane(Config{Workers: 2}.withDefaults())
	if c, d := cp2.ctrl.Config(), drift.DefaultConfig(); cp2.TDF() != int64(d.InitialTDF) || c.MinTDF != d.MinTDF || c.MaxTDF != d.MaxTDF {
		t.Fatalf("zero Config: TDF %d over [%d, %d], want %d over [%d, %d]",
			cp2.TDF(), c.MinTDF, c.MaxTDF, d.InitialTDF, d.MinTDF, d.MaxTDF)
	}
}

// A handler that emits a negative priority, or one at or above the
// never-reported sentinel, used to flow straight into the drift snapshot:
// one -1<<40 report fabricated a drift term that walked the controller's
// TDF to its floor. Report must clamp such priorities at the boundary,
// count them, and keep the drift signal finite.
func TestControlPlaneClampsOutOfRangePriorities(t *testing.T) {
	cfg := Config{Workers: 2}.withDefaults()
	cp := newTestPlane(cfg)

	cp.report(0, 0, -1<<40)          // negative: clamps to 0
	cp.report(1, 0, neverReported+7) // sentinel collision: clamps to neverReported-1
	for id, n := range cp.n {
		if got := n[obs.CDriftClamped]; got != 1 {
			t.Fatalf("worker %d clamped = %d, want 1 (each report counts in its reporter's counts)", id, got)
		}
	}
	if got := cp.n[1][obs.CTDFSteps]; got != 1 {
		t.Fatalf("worker 1 tdf_steps = %d, want 1 (its report closed the interval)", got)
	}
	h := cp.History()
	if len(h) != 1 {
		t.Fatalf("controller updates %d, want 1", len(h))
	}
	// Snapshot is {0, neverReported-1}: drift is finite and the reference
	// is the clamped negative, not the raw garbage.
	if h[0].Ref != 0 {
		t.Fatalf("reference %d, want clamped 0", h[0].Ref)
	}
	if want := float64(neverReported-1) / 2; h[0].Drift != want {
		t.Fatalf("drift %v, want %v", h[0].Drift, want)
	}

	// In-range reports don't touch the counter.
	cp.report(0, 0, 100)
	cp.report(1, 0, 200)
	if got := cp.n[0][obs.CDriftClamped] + cp.n[1][obs.CDriftClamped]; got != 2 {
		t.Fatalf("in-range report counted as clamped: %d", got)
	}
}

// testPlane is a control plane beside one worker's counts per worker, as an
// engine's workers hold them.
type testPlane struct {
	*controlPlane
	n []obs.Counts
}

func newTestPlane(cfg Config) *testPlane {
	return &testPlane{controlPlane: newControlPlane(cfg), n: make([]obs.Counts, cfg.Workers)}
}

// report is worker id's Report, counting in its counts.
func (tp *testPlane) report(id int, job task.JobID, prio int64) {
	tp.Report(&tp.n[id], id, job, prio)
}

func TestControlPlaneAdaptive(t *testing.T) {
	cfg := Config{Workers: 2, Drift: drift.Config{InitialTDF: 50, Step: 10}}.withDefaults()
	cp := newTestPlane(cfg)
	if cp.TDF() != 50 {
		t.Fatalf("initial TDF %d, want 50", cp.TDF())
	}
	// The plane runs drift.Controller.Climb, not Algorithm 2: each interval
	// is two reports, worker 1 ahead of worker 0 by twice the drift.
	for i, s := range []struct {
		drift int64
		want  int64
		why   string
	}{
		{100, 50, "first interval is the baseline"},
		{90, 40, "change inside the noise band: communication has to earn its keep, step down"},
		{25, 30, "improved after stepping down: repeat"},
		{60, 40, "worsened after stepping down: reverse"},
		{20, 50, "improved after stepping up: repeat (the only way up)"},
	} {
		cp.report(0, 0, 100)
		cp.report(1, 0, 100+2*s.drift)
		if got := cp.TDF(); got != s.want {
			t.Fatalf("interval %d (%s): TDF %d, want %d", i, s.why, got, s.want)
		}
	}
	if len(cp.History()) != 5 {
		t.Fatalf("history %d entries, want 5", len(cp.History()))
	}

	// All-zero drift (every report equal, or every report clamped to zero as
	// pagerank's negative priorities are) carries no information: hold.
	flat := newTestPlane(cfg)
	for i := 0; i < 20; i++ {
		flat.report(0, 0, -7)
		flat.report(1, 0, -9)
	}
	if flat.TDF() != 50 || len(flat.History()) != 20 {
		t.Fatalf("blind controller moved: TDF %d after %d intervals", flat.TDF(), len(flat.History()))
	}
}
