package runtime

// The control layer is the drift-feedback plane of §III-C: workers report
// the priority of their latest task (Algorithm 3's send side), the layer
// assembles per-interval snapshots, runs the controller — a hill-climber on
// drift (drift.Controller.Climb) in place of Algorithm 2, whose walk under
// the noise of a W-sample drift climbs to MaxTDF (DESIGN.md §9.1) — and
// publishes the resulting TDF for every dispatch decision to read with one
// atomic load. It is the only part of the runtime with any cross-worker
// policy state, which is why it gets its own file and tests.

import (
	"math"
	"sync"
	"sync/atomic"

	"hdcps/internal/drift"
	"hdcps/internal/obs"
	"hdcps/internal/task"
)

// neverReported is the sentinel a worker's report slot holds before its
// first report. It is excluded from drift snapshots: feeding the zero value
// of an idle slot into Equation 1 would fabricate a huge drift term (the
// reference is the minimum report) and skew the controller's first
// adjustments — exactly what happened when a fast worker reported twice
// before a slow one reported at all.
const neverReported = int64(1) << 62

// controlPlane owns drift reporting and TDF propagation for one engine.
type controlPlane struct {
	workers int
	rec     *obs.Recorder // nil when observability is disabled

	// reports is the per-job report matrix: reports[job][worker] holds the
	// worker's latest priority within that job (atomic access), seeded with
	// neverReported. Jobs have independent priority domains (their own graphs
	// and scales), so drift must be measured within a job and only then
	// combined — one flat row would fabricate drift between tenants whose
	// priorities are merely on different scales. The matrix is COW: addJob
	// publishes a grown copy, readers pay one atomic pointer load.
	reports atomic.Pointer[[][]int64]
	// An interval closes on every W-th report, from whichever workers made
	// them: nReported counts the reports since the last close, and the one
	// report that would take it to W swaps it back to zero instead, so each
	// interval has exactly one closer. Counting distinct reporters instead
	// (until steal-when-behind) stalled the controller whenever one worker ran
	// too few tasks to report, which thieves emptying its queue make routine;
	// a worker that goes idle clears its slots instead (idle), so its last
	// priority cannot pose as drift.
	nReported atomic.Int64

	mu       sync.Mutex // serializes controller updates and history reads
	ctrl     *drift.Controller
	snapshot []int64 // one job row's reports, reused by every interval's close

	// tdf is the propagated task-distribution factor in percent; every
	// dispatch reads it with one atomic load (the paper's non-blocking
	// propagation: workers keep using the previous value until the master's
	// update lands).
	tdf atomic.Int64
}

// newControlPlane builds the plane for cfg.Workers workers. A one-point Drift
// range (MinTDF == MaxTDF) pins the TDF there: intervals are measured and
// recorded but no move can land.
func newControlPlane(cfg Config) *controlPlane {
	cp := &controlPlane{
		workers:  cfg.Workers,
		rec:      cfg.Obs,
		ctrl:     drift.NewController(cfg.Drift),
		snapshot: make([]int64, 0, cfg.Workers),
	}
	rows := [][]int64{cp.newRow()}
	cp.reports.Store(&rows)
	cp.tdf.Store(int64(cp.ctrl.TDF()))
	return cp
}

// TDF returns the current task-distribution factor in percent.
func (cp *controlPlane) TDF() int64 { return cp.tdf.Load() }

// newRow builds one job's report row, every slot at the sentinel.
func (cp *controlPlane) newRow() []int64 {
	row := make([]int64, cp.workers)
	for i := range row {
		row[i] = neverReported
	}
	return row
}

// addJob grows the report matrix by one job row. Called under the engine's
// jobMu before the job becomes visible in the job table, so no Report for
// the new JobID can precede its row.
func (cp *controlPlane) addJob() {
	cp.mu.Lock()
	rows := *cp.reports.Load()
	grown := make([][]int64, len(rows)+1)
	copy(grown, rows)
	grown[len(rows)] = cp.newRow()
	cp.reports.Store(&grown)
	cp.mu.Unlock()
}

// SampleInterval returns the per-worker report spacing in processed tasks.
func (cp *controlPlane) SampleInterval() int64 {
	return int64(cp.ctrl.Config().SampleInterval)
}

// Report implements Algorithm 3's send plus the master-side controller
// step: the reporting worker stores its latest priority in its slot of the
// task's job row, and the report that completes an interval (the W-th since
// the last close) assembles the snapshot and runs drift.Controller.Climb.
// Drift is measured within each job (priorities of different tenants live on
// unrelated scales) and the per-job drifts are combined weighted by how many
// workers reported for the job, so a tenant carrying most of the fleet's
// work dominates the feedback signal. The published reference is the
// dominant job's. Workers that have never reported for a job are excluded
// from that job's snapshot rather than contributing stale zeros. A clamped
// report and the TDF step an interval's close applies count in n, the
// reporting worker's counts.
func (cp *controlPlane) Report(n *obs.Counts, id int, job task.JobID, prio int64) {
	// Validate at the boundary: a handler that emits a negative priority or
	// one colliding with the never-reported sentinel would fabricate a huge
	// drift term (Equation 1's reference is the minimum report) and walk
	// the controller's TDF off a corrupted signal. Clamp and count instead.
	if prio < 0 || prio >= neverReported {
		if prio < 0 {
			prio = 0
		} else {
			prio = neverReported - 1
		}
		n[obs.CDriftClamped]++
	}
	rows := *cp.reports.Load()
	if int(job) >= len(rows) {
		job = 0
	}
	atomic.StoreInt64(&rows[job][id], prio)
	if rec := cp.rec; rec != nil {
		rec.Event(id, obs.EvDriftReport, prio, int64(job), 0)
	}
	for {
		n := cp.nReported.Load()
		if n+1 < int64(cp.workers) {
			if cp.nReported.CompareAndSwap(n, n+1) {
				return
			}
		} else if cp.nReported.CompareAndSwap(n, 0) {
			break // this report closes the interval
		}
	}
	var (
		driftSum  float64
		weightSum float64
		ref       int64
		refCount  int
	)
	cp.mu.Lock()
	for _, row := range rows {
		snapshot := cp.snapshot[:0]
		for i := range row {
			if p := atomic.LoadInt64(&row[i]); p != neverReported {
				snapshot = append(snapshot, p)
			}
		}
		if len(snapshot) == 0 {
			continue
		}
		jref := drift.MinReference(snapshot)
		driftSum += drift.Drift(snapshot, jref) * float64(len(snapshot))
		weightSum += float64(len(snapshot))
		if len(snapshot) > refCount {
			refCount = len(snapshot)
			ref = jref
		}
	}
	pd := driftSum / weightSum // the reporter's own slot is always counted
	tdf := cp.ctrl.Climb(pd, ref)
	cp.mu.Unlock()
	cp.tdf.Store(int64(tdf))
	n[obs.CTDFSteps]++
	if rec := cp.rec; rec != nil {
		rec.Event(id, obs.EvTDFStep, int64(tdf), int64(math.Float64bits(pd)), ref)
	}
}

// idle takes an idle worker out of every job's drift snapshot until it
// reports again: its slots go back to the never-reported sentinel. Only the
// worker itself writes its slots, so this cannot erase a newer report.
func (cp *controlPlane) idle(id int) {
	for _, row := range *cp.reports.Load() {
		if atomic.LoadInt64(&row[id]) != neverReported {
			atomic.StoreInt64(&row[id], neverReported)
		}
	}
}

// History returns the controller's per-interval drift/TDF records. Safe to
// call while workers are still reporting.
func (cp *controlPlane) History() []drift.Record {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.ctrl.History()
}

// Series returns the control plane's time series — per-interval drift,
// reference priority, and TDF — the view that replaces eyeballing a
// point-in-time snapshot when studying the feedback loop. Safe to call
// while workers are still reporting.
func (cp *controlPlane) Series() []obs.ControlPoint {
	hist := cp.History()
	pts := make([]obs.ControlPoint, len(hist))
	for i, rec := range hist {
		pts[i] = obs.ControlPoint{Interval: i, Drift: rec.Drift, Ref: rec.Ref, TDF: rec.TDF}
	}
	return pts
}
