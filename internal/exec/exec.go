// Package exec runs the native engine to a checked finish. RunJobs is the one
// harness: one engine over one or more tenant workloads (with a fault hook on
// its transport when Spec.Chaos is set), every tenant seeded before the fleet
// starts, one drain under a no-progress watchdog, and one report — the
// snapshots after the drain and after the stop, the controller's series, the
// conservation-ledger verdict, the quarantine list and the injected-fault
// counts — beside the run's metrics in the stats.Run vocabulary the simulator
// shares. Every one-shot native run outside the benchmark goes through it:
// cmd/hdcps-run, hdcps.RunNative, the fig10, drift-timeline, queue-sweep and
// fairness-sweep experiments, hdcps-bench's scale gate, the root package's
// native benchmarks, and the benchmark's tenants-mixed workload; simulated
// runs go through sched.ByName.
package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"hdcps/internal/chaos"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/stats"
	"hdcps/internal/workload"
)

// stallTimeout is the drain watchdog RunJobs arms when the config leaves
// StallTimeout unset: a fleet that retires nothing for this long ends the
// run with a *runtime.StallError in JobsReport.DrainErr instead of hanging.
const stallTimeout = 30 * time.Second

// Spec is a native run's specification. Zero values select the runtime's
// defaults.
type Spec struct {
	// Seed drives destination selection when the config's own Seed is zero.
	Seed uint64
	// Native is the runtime configuration (nil: runtime.DefaultConfig with
	// the default fleet). Seed still applies if Native.Seed is zero, and an
	// unset Native.Workers is the default fleet.
	Native *runtime.Config
	// Chaos, when set, injects this fault mix into the engine's transport
	// (chaos.Engine); nil runs without faults.
	Chaos *chaos.Config
}

// JobsReport is a run's outcome: the engine's snapshots (Snapshot.Jobs has
// one JobStats row per tenant), the controller's series, the
// contention-window fairness shares, and the fault side.
type JobsReport struct {
	// Elapsed is Start to the engine-wide Drain's return.
	Elapsed time.Duration
	// Snapshot is read once Drain has returned: the view the ledger verdict
	// (ConservationErr) is taken over. Final is read once Stop has returned,
	// when every worker has published, so its diagnostic counters
	// (BaggedTasks, KeptLocal, EdgesExamined...) are exact; the returned
	// stats.Run is built from it.
	Snapshot runtime.Snapshot
	Final    runtime.Snapshot
	// Control is the control plane's series, one point per controller
	// interval (Engine.ControlTrace).
	Control []obs.ControlPoint

	// WeightShares[i] is tenant i's weight divided by the weight total;
	// Shares[i] is its share of the tasks processed across the contention
	// window — the span between the first and last observed snapshots in
	// which every tenant was backlogged (outstanding work beyond one batch
	// round per worker). Deficit round robin only equalizes backlogged
	// tenants: before a workload's frontier widens, or after it drains, its
	// share is limited by its own task supply, not by the scheduler, so
	// those phases are excluded by construction. ShareSamples is the total
	// task count the window covers; shares over a tiny sample are noise,
	// not a fairness verdict. The window is measured only with two or more
	// tenants: a one-job run leaves Shares nil.
	WeightShares []float64
	Shares       []float64
	ShareSamples int64

	// DrainErr is the engine-wide drain failure, if any (a *StallError
	// with per-worker diagnostics); ConservationErr is the chaos.Checker
	// verdict over the final snapshot (global ledger, every per-job ledger,
	// and the partition identity between them) — the quiescent check after
	// a clean drain, the live one otherwise.
	DrainErr        error
	ConservationErr error
	// Quarantined is the poison-task list (empty unless a handler panics:
	// a panicking task is quarantined on its first panic).
	Quarantined []runtime.QuarantinedTask
	// Faults is the chaos mix's injected-fault counters (nil without
	// Spec.Chaos).
	Faults *chaos.Stats

	eng *runtime.Engine
}

// Err is the run's verdict as one error: the drain failure and the
// conservation-ledger violation, joined (nil when the run drained with every
// ledger exact).
func (r *JobsReport) Err() error { return errors.Join(r.DrainErr, r.ConservationErr) }

// ShareError returns the largest |measured - weight| share deviation across
// the tenants (0 for a one-job run).
func (r *JobsReport) ShareError() float64 {
	var worst float64
	for i := range r.Shares {
		d := r.Shares[i] - r.WeightShares[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// WriteTrace writes the stopped engine's JSONL trace (Engine.WriteTrace:
// recorder meta, per-worker counters, events, one job row per tenant, and
// one control line per controller interval).
func (r *JobsReport) WriteTrace(w io.Writer) error { return r.eng.WriteTrace(w) }

// RunJobs executes len(ws) workloads to completion as concurrent jobs of one
// native engine. jcs[i] parameterizes tenant i (weight, quota, name...);
// len(jcs) must equal len(ws). Every job's initial tasks are submitted
// before the fleet starts, so the tenants contend from the first scheduling
// round — the window the fairness shares are measured over. The returned
// stats.Run aggregates the whole fleet (all tenants combined).
func RunJobs(ws []workload.Workload, jcs []runtime.JobConfig, spec Spec) (stats.Run, *JobsReport, error) {
	if len(ws) == 0 || len(ws) != len(jcs) {
		return stats.Run{}, nil, fmt.Errorf("exec: RunJobs needs matching workloads and job configs (%d vs %d)", len(ws), len(jcs))
	}
	cfg := runtime.DefaultConfig(0)
	if spec.Native != nil {
		cfg = *spec.Native
		if cfg.Workers <= 0 {
			cfg.Workers = runtime.DefaultConfig(0).Workers
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = spec.Seed
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = stallTimeout
	}
	cfg.DefaultJob = jcs[0]

	rep := &JobsReport{WeightShares: weightShares(jcs)}
	if spec.Chaos != nil {
		rep.eng, rep.Faults = chaos.Engine(ws[0], cfg, *spec.Chaos)
	} else {
		rep.eng = runtime.NewEngine(ws[0], cfg)
	}
	e := rep.eng
	handles := make([]*runtime.Job, len(ws))
	handles[0] = e.DefaultJob()
	for i := 1; i < len(ws); i++ {
		j, err := e.NewJob(ws[i], jcs[i])
		if err != nil {
			return stats.Run{}, nil, fmt.Errorf("exec: RunJobs job %d: %w", i, err)
		}
		handles[i] = j
	}
	for i, j := range handles {
		if err := j.Submit(ws[i].InitialTasks()...); err != nil {
			return stats.Run{}, nil, fmt.Errorf("exec: RunJobs seeding job %d: %w", i, err)
		}
	}
	started := time.Now()
	if err := e.Start(); err != nil {
		return stats.Run{}, nil, err
	}
	if len(ws) > 1 {
		rep.Shares, rep.ShareSamples = fairnessWindow(e, jcs, cfg)
	}
	rep.DrainErr = e.Drain(context.Background())
	rep.Elapsed = time.Since(started)
	rep.Snapshot = e.Snapshot()
	_ = e.Stop(context.Background())
	rep.Final = e.Snapshot()
	rep.Control = e.ControlTrace()
	rep.Quarantined = e.Quarantined()

	var ck chaos.Checker
	if rep.DrainErr == nil {
		rep.ConservationErr = ck.Quiescent(rep.Snapshot)
	} else {
		rep.ConservationErr = ck.Live(rep.Snapshot)
	}
	return nativeStats(ws[0], cfg.Workers, rep), rep, nil
}

// fairnessWindow samples snapshots until the first tenant quiesces,
// remembering the first and last samples in which every tenant was
// backlogged, and returns each tenant's share of the tasks processed between
// those two bounds plus that task count. "Backlogged" scales with the
// tenant's weight: to be service-limited rather than supply-limited, a
// tenant must hold roughly a full round of its own entitlement (workers ×
// the fill loop's per-weight quantum × weight) in flight — a weight-4 tenant
// with 50 queued tasks cannot absorb half a 4-worker fleet, and counting
// such stretches would blame the scheduler for the tenant's thin supply.
// Polling at 200µs bounds how much ramp-up or drain tail can leak into the
// window edges. A fleet that retires nothing for cfg.StallTimeout ends the
// sampling too, leaving the stall to Drain's watchdog to name.
func fairnessWindow(e *runtime.Engine, jcs []runtime.JobConfig, cfg runtime.Config) ([]float64, int64) {
	minBacklog := make([]int64, len(jcs))
	for i, jc := range jcs {
		minBacklog[i] = int64(cfg.Workers) * 32 * int64(max(jc.Weight, 1))
	}
	var first, last runtime.Snapshot
	haveWindow := false
	mark, moved := int64(-1), time.Now()
	for {
		snap := e.Snapshot()
		if snap.Outstanding == 0 || !allActive(snap.Jobs) {
			break
		}
		if m := snap.TasksProcessed + snap.Quarantined + snap.Cancelled; m != mark {
			mark, moved = m, time.Now()
		} else if time.Since(moved) > cfg.StallTimeout {
			break
		}
		if allBacklogged(snap.Jobs, minBacklog) {
			if !haveWindow {
				first, haveWindow = snap, true
			}
			last = snap
		}
		time.Sleep(200 * time.Microsecond)
	}
	shares := make([]float64, len(jcs))
	if !haveWindow {
		return shares, 0
	}
	deltas := make([]int64, len(last.Jobs))
	var total int64
	for i := range last.Jobs {
		deltas[i] = last.Jobs[i].Processed - first.Jobs[i].Processed
		total += deltas[i]
	}
	if total > 0 {
		for i, d := range deltas {
			shares[i] = float64(d) / float64(total)
		}
	}
	return shares, total
}

// nativeStats renders a report in the stats.Run vocabulary shared with the
// simulator (completion time in nanoseconds, every tenant combined).
func nativeStats(w workload.Workload, workers int, rep *JobsReport) stats.Run {
	r := stats.Run{
		Scheduler:      "native-hdcps",
		Workload:       w.Name(),
		Input:          w.Graph().Name,
		Cores:          workers,
		CompletionTime: rep.Elapsed.Nanoseconds(),
		TasksProcessed: rep.Final.TasksProcessed,
		BagsCreated:    rep.Final.BagsCreated,
		BaggedTasks:    rep.Final.BaggedTasks,
		EdgesExamined:  rep.Final.EdgesExamined,
		DriftClamped:   rep.Final.DriftClamped,
	}
	for _, p := range rep.Control {
		r.DriftTrace = append(r.DriftTrace, p.Drift)
		r.RefTrace = append(r.RefTrace, p.Ref)
		r.TDFTrace = append(r.TDFTrace, p.TDF)
	}
	return r
}

func weightShares(jcs []runtime.JobConfig) []float64 {
	shares := make([]float64, len(jcs))
	var total float64
	for i, jc := range jcs {
		shares[i] = float64(max(jc.Weight, 1))
		total += shares[i]
	}
	for i := range shares {
		shares[i] /= total
	}
	return shares
}

func allActive(jobs []runtime.JobStats) bool {
	for _, j := range jobs {
		if j.Outstanding == 0 {
			return false
		}
	}
	return len(jobs) > 0
}

func allBacklogged(jobs []runtime.JobStats, min []int64) bool {
	if len(jobs) != len(min) {
		return false
	}
	for i, j := range jobs {
		if j.Outstanding < min[i] {
			return false
		}
	}
	return len(jobs) > 0
}
