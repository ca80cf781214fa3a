package exp

// The drift-timeline experiment puts the native control plane on one page.
// Its first rows compare the adaptive controller with constant TDFs on
// native SSSP/road — tasks processed, work efficiency, mean drift, mean TDF,
// the share of dispatched units the frontier-width gate kept local before the
// TDF was consulted, and solve time — which is the table that shows whether
// the controller minimises drift, what a mis-set TDF costs in redundant work
// and how much of the run the gate, not the TDF, decided. The rows
// after that are one adaptive run's time series — per-interval drift,
// reference priority and TDF, recorded with an obs.Recorder attached — so the
// feedback loop can be read off a real trace instead of an end-of-run
// average. With Options.TracePath set it also emits the full JSONL trace
// (recorder meta, per-worker counters, sampled events, the job row, control
// series). Every solve is one exec.RunJobs call, verified.

import (
	"fmt"
	"os"
	stdruntime "runtime"
	"sort"
	"time"

	"hdcps/internal/drift"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/stats"
)

// driftTimeline is registered from experiments.go's init so the registry
// keeps paper order regardless of file initialization order.

// driftTimelineRows bounds the formatted timeline; the JSONL trace always
// carries the full series.
const driftTimelineRows = 40

// driftTimelineFixed are the constant TDFs the adaptive run is compared
// with, and driftTimelineReps the solves behind each comparison row. The
// configurations take turns within a repetition, so a slow stretch of the
// host falls on all of them, and rounds are thrown away until
// driftTimelineWarm has passed: a small VM runs a process's first second or
// so of two-worker solves several times slower than the rest.
var driftTimelineFixed = []int{5, 20, 50, 90}

const (
	driftTimelineReps = 15
	driftTimelineWarm = 1500 * time.Millisecond
)

func driftTimeline(o Options, set *inputSet) (Result, error) {
	pair := Pair{"sssp", "road"}
	w, err := set.workloadFor(pair)
	if err != nil {
		return Result{}, err
	}
	seq, err := set.seqTasks(pair)
	if err != nil {
		return Result{}, err
	}
	// The benchmark's fleet: one worker per CPU up to four, and never fewer
	// than two, because drift is a cross-worker signal (two goroutine
	// workers interleave, and disagree on priorities, even on one CPU).
	workers := min(max(stdruntime.GOMAXPROCS(0), 2), 4)
	cfg := runtime.DefaultConfig(workers)
	cfg.Seed = o.Seed

	labels := []string{"adaptive"}
	cfgs := []runtime.Config{cfg}
	for _, tdf := range driftTimelineFixed {
		fixed := cfg
		fixed.UseTDF, fixed.FixedTDF = false, tdf
		labels = append(labels, fmt.Sprintf("fixed-tdf-%02d", tdf))
		cfgs = append(cfgs, fixed)
	}
	type tally struct {
		tasks       float64
		kept, units int64 // dispatch decisions the gate took, of all made
		ms          []float64
		drift, tdfs []float64
	}
	tallies := make([]tally, len(cfgs))
	for start := time.Now(); len(tallies[0].ms) < driftTimelineReps; {
		warm := time.Since(start) < driftTimelineWarm // so the first round always is
		for i, c := range cfgs {
			nr, rep, err := runOnce(w, c)
			if err != nil {
				return Result{}, fmt.Errorf("exp: drift-timeline %s: %w", labels[i], err)
			}
			if warm {
				continue
			}
			t := &tallies[i]
			t.tasks += float64(nr.TasksProcessed) / driftTimelineReps
			t.kept += rep.Final.KeptLocal
			t.units += rep.Final.Spawned - rep.Final.BaggedTasks
			t.ms = append(t.ms, float64(rep.Elapsed.Microseconds())/1e3)
			t.drift = append(t.drift, nr.DriftTrace...)
			for _, tdf := range nr.TDFTrace {
				t.tdfs = append(t.tdfs, float64(tdf))
			}
		}
	}

	rec := obs.New(obs.Config{Workers: workers, SampleEvery: 32})
	cfg.Obs = rec
	nr, rep, err := runOnce(w, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("exp: drift-timeline traced run: %w", err)
	}
	pts := rep.Control
	if len(pts) == 0 {
		return Result{}, fmt.Errorf("exp: drift-timeline produced no controller intervals (%d tasks)", nr.TasksProcessed)
	}

	res := Result{
		ID:     "drift-timeline",
		Title:  "Native drift/TDF feedback timeline",
		Series: []string{"tasks", "work_eff", "drift_mean", "tdf_mean", "kept_local", "ms", "drift", "ref", "tdf"},
	}
	for i, t := range tallies {
		sort.Float64s(t.ms)
		res.Rows = append(res.Rows, Row{
			Label: labels[i],
			Values: map[string]float64{
				"tasks": t.tasks, "work_eff": float64(seq) / t.tasks,
				"drift_mean": stats.Mean(t.drift), "tdf_mean": stats.Mean(t.tdfs),
				"kept_local": float64(t.kept) / float64(max(t.units, 1)),
				"ms":         t.ms[len(t.ms)/2],
			},
		})
	}
	step := 1
	if len(pts) > driftTimelineRows {
		step = (len(pts) + driftTimelineRows - 1) / driftTimelineRows
		if step%2 == 0 {
			// An odd stride samples both phases of a 2-interval controller
			// oscillation instead of aliasing onto one of them.
			step++
		}
	}
	for i := 0; i < len(pts); i += step {
		p := pts[i]
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("interval-%03d", p.Interval),
			Values: map[string]float64{
				"drift": p.Drift, "ref": float64(p.Ref), "tdf": float64(p.TDF),
			},
		})
	}
	moved := false
	for _, p := range pts {
		if p.TDF != drift.DefaultConfig().InitialTDF {
			moved = true
			break
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("comparison rows: %d workers, sequential oracle %d tasks, %d solves a row after a warm-up, "+
			"configurations taking turns; tasks and the means are over all of them, kept_local is the share of dispatched "+
			"units (children and bag markers) the gate kept on the sender's short queue, ms is the median solve",
			workers, seq, driftTimelineReps),
		fmt.Sprintf("interval rows: one traced adaptive run from TDF %d%% (the paper's 0.5); %d intervals over %d tasks",
			drift.DefaultConfig().InitialTDF, len(pts), nr.TasksProcessed),
		fmt.Sprintf("recorder: %d events retained (%d recorded), spills=%d parks=%d",
			len(rec.Events()), rec.EventCount(), rec.Total(obs.COverflowSpills), rec.Total(obs.CIdleParks)))
	if !moved {
		res.Notes = append(res.Notes, "WARNING: TDF never left its initial value — no drift between the workers, or too few intervals at this scale?")
	}

	if o.TracePath != "" {
		out := os.Stdout
		if o.TracePath != "-" {
			f, err := os.Create(o.TracePath)
			if err != nil {
				return res, fmt.Errorf("exp: drift-timeline trace: %w", err)
			}
			defer f.Close()
			out = f
		}
		if err := rep.WriteTrace(out); err != nil {
			return res, err
		}
		res.Notes = append(res.Notes, "JSONL trace written to "+o.TracePath)
	}
	return res, nil
}
