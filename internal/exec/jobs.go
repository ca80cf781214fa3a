package exec

// Multi-job execution: run K workloads concurrently as tenants of ONE native
// engine (runtime.Job) and report per-job ledgers plus the fairness
// measurement the job-level scheduler is accountable for — each tenant's
// share of processed tasks while every tenant still had work, against its
// weight share. cmd/hdcps-run's -jobs/-weights flags and the fairness-sweep
// experiment both drive this path.

import (
	"context"
	"fmt"
	"time"

	"hdcps/internal/chaos"
	"hdcps/internal/runtime"
	"hdcps/internal/stats"
	"hdcps/internal/workload"
)

// JobsReport is the multi-job run's outcome: the final engine snapshot, one
// JobStats row per tenant, and the contention-window fairness shares.
type JobsReport struct {
	Elapsed  time.Duration
	Snapshot runtime.Snapshot
	Jobs     []runtime.JobStats

	// WeightShares[i] is tenant i's weight divided by the weight total;
	// Shares[i] is its share of the tasks processed across the contention
	// window — the span between the first and last observed snapshots in
	// which every tenant was backlogged (outstanding work beyond one batch
	// round per worker). Deficit round robin only equalizes backlogged
	// tenants: before a workload's frontier widens, or after it drains, its
	// share is limited by its own task supply, not by the scheduler, so
	// those phases are excluded by construction. ShareSamples is the total
	// task count the window covers; shares over a tiny sample are noise,
	// not a fairness verdict.
	WeightShares []float64
	Shares       []float64
	ShareSamples int64

	// DrainErr is the engine-wide drain failure, if any; ConservationErr is
	// the chaos.Checker verdict over the quiescent snapshot (global ledger,
	// every per-job ledger, and the partition identity between them).
	DrainErr        error
	ConservationErr error
}

// ShareError returns the largest |measured - weight| share deviation across
// the tenants (0 when the fairness window saw no work).
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
	cfg := nativeConfig(spec)
	cfg.DefaultJob = jcs[0]

	e := runtime.NewEngine(ws[0], cfg)
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

	rep := &JobsReport{WeightShares: weightShares(jcs)}

	// Fairness window: sample snapshots until the first tenant quiesces,
	// remembering the first and last samples in which every tenant was
	// backlogged. The delta between those two bounds is the contention
	// measurement. "Backlogged" scales with the tenant's weight: to be
	// service-limited rather than supply-limited, a tenant must hold
	// roughly a full round of its own entitlement (workers × the fill
	// loop's per-weight quantum × weight) in flight — a weight-4 tenant
	// with 50 queued tasks cannot absorb half a 4-worker fleet, and
	// counting such stretches would blame the scheduler for the tenant's
	// thin supply. Polling at 200µs bounds how much ramp-up or drain tail
	// can leak into the window edges.
	minBacklog := make([]int64, len(jcs))
	for i, jc := range jcs {
		w := int64(jc.Weight)
		if w <= 0 {
			w = 1
		}
		minBacklog[i] = int64(cfg.Workers) * 32 * w
	}
	var first, last runtime.Snapshot
	haveWindow := false
	for {
		snap := e.Snapshot()
		if snap.Outstanding == 0 || !allActive(snap.Jobs) {
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

	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	rep.DrainErr = e.Drain(drainCtx)
	cancel()
	rep.Elapsed = time.Since(started)
	rep.Snapshot = e.Snapshot()
	rep.Jobs = rep.Snapshot.Jobs
	_ = e.Stop(context.Background())

	var ck chaos.Checker
	rep.ConservationErr = ck.Quiescent(rep.Snapshot)

	rep.Shares = make([]float64, len(rep.Jobs))
	if haveWindow {
		deltas := make([]int64, len(last.Jobs))
		var total int64
		for i := range last.Jobs {
			deltas[i] = last.Jobs[i].Processed - first.Jobs[i].Processed
			total += deltas[i]
		}
		rep.ShareSamples = total
		if total > 0 {
			for i, d := range deltas {
				rep.Shares[i] = float64(d) / float64(total)
			}
		}
	}

	s := rep.Snapshot
	r := stats.Run{
		Scheduler:      "native-hdcps-jobs",
		Workload:       ws[0].Name(),
		Input:          ws[0].Graph().Name,
		Cores:          cfg.Workers,
		CompletionTime: rep.Elapsed.Nanoseconds(),
		TasksProcessed: s.TasksProcessed,
		BagsCreated:    s.BagsCreated,
		BaggedTasks:    e.Result().BaggedTasks, // the fleet has stopped
		EdgesExamined:  s.EdgesExamined,
	}
	return r, rep, nil
}

func weightShares(jcs []runtime.JobConfig) []float64 {
	shares := make([]float64, len(jcs))
	var total float64
	for i, jc := range jcs {
		w := jc.Weight
		if w <= 0 {
			w = 1
		}
		shares[i] = float64(w)
		total += float64(w)
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
