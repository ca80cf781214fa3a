package exp

// The queue-sweep experiment measures the native runtime's local-queue
// shapes: the classic binary heap, the PR-1 4-ary heap, the twolevel kind
// (a ring of per-priority FIFO buckets over a fallback heap), and the PR-6
// relaxed MultiQueue, across the paper's workload mix. It
// reports two things per (queue, workload) cell — tasks/second, and the
// scheduling-quality side of the trade: the p99 sampled rank error (how far
// pops stray from the observable global minimum). Together the two row
// families are the relaxation-vs-speed frontier: strict kinds must sit at
// rank error 0, while multiqueue buys throughput under contention with a
// bounded, measured amount of priority inversion — without ever changing
// the computed answer (every cell is verified).

import (
	"context"
	"fmt"
	"sort"
	"time"

	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/workload"
)

func queueSweep(o Options, set *inputSet) (Result, error) {
	pairs := []Pair{
		{"sssp", "road"}, {"bfs", "road"}, {"pagerank", "web"}, {"color", "web"},
	}
	const workers = 4
	const reps = 3
	kinds := runtime.QueueKinds()

	res := Result{
		ID:     "queue-sweep",
		Title:  "Native local-queue shapes: tasks/sec and p99 rank error by workload",
		Series: kinds,
	}
	for _, p := range pairs {
		row := Row{Label: p.Workload + "/" + p.Input, Values: map[string]float64{}}
		qrow := Row{Label: p.Workload + "/" + p.Input + " p99 rank err", Values: map[string]float64{}}
		for _, kind := range kinds {
			w, err := set.workloadFor(p)
			if err != nil {
				return Result{}, err
			}
			cfg := runtime.DefaultConfig(workers)
			cfg.Seed = o.Seed
			cfg.QueueKind = kind
			// Warm-up run absorbs first-touch page faults and heap growth.
			runtime.Run(w, cfg)
			// Throughput reps run with observability off, so the speed side
			// of the frontier is the kind's unobserved hot path.
			var tasks int64
			var total time.Duration
			for i := 0; i < reps; i++ {
				nr, snap := runEngineOnce(w, cfg)
				tasks += nr.TasksProcessed
				total += nr.Elapsed
				if kind == runtime.QueueTwoLevel && i == reps-1 {
					res.Notes = append(res.Notes, fmt.Sprintf(
						"%s twolevel: %d fallbacks", row.Label, snap.QueueFallbacks))
				}
			}
			if err := w.Verify(); err != nil {
				return Result{}, fmt.Errorf("exp: queue-sweep %s/%s wrong: %w", kind, p.Workload, err)
			}
			row.Values[kind] = float64(tasks) / total.Seconds()

			// Quality rep: one observed run whose pop path is rank-sampled.
			q, err := measureRankError(w, cfg)
			if err != nil {
				return Result{}, fmt.Errorf("exp: queue-sweep %s/%s: %w", kind, p.Workload, err)
			}
			qrow.Values[kind] = q.p99
			if kind == runtime.QueueMultiQueue || q.inversions > 0 {
				res.Notes = append(res.Notes, fmt.Sprintf(
					"%s %s quality: %d samples, %d inversions, mean rank %.2f, max %d",
					row.Label, kind, q.samples, q.inversions, q.mean, q.max))
			}
		}
		res.Rows = append(res.Rows, row, qrow)
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d workers, %d reps per cell after warm-up; queue kinds: %v; "+
			"rank error sampled every 16th pop on a separate observed rep "+
			"(strict kinds must report 0)", workers, reps, kinds))
	return res, nil
}

// rankQuality summarizes one observed run's sampled rank errors.
type rankQuality struct {
	samples    int64
	inversions int64
	mean       float64
	p99        float64
	max        int64
}

// measureRankError runs one observed rep of cfg's engine and distills the
// retained rank-sample events into the quality summary (p99 over all
// samples, zeros included — a strict kind's p99 is exactly 0).
func measureRankError(w workload.Workload, cfg runtime.Config) (rankQuality, error) {
	rec := obs.New(obs.Config{Workers: cfg.Workers, RingSize: 1 << 14, SampleEvery: 16})
	cfg.Obs = rec
	e := runtime.NewEngine(w, cfg)
	_ = e.Submit(w.InitialTasks()...)
	_ = e.Start()
	_ = e.Drain(context.Background())
	snap := e.Snapshot()
	_ = e.Stop(context.Background())
	if err := w.Verify(); err != nil {
		return rankQuality{}, fmt.Errorf("observed rep wrong: %w", err)
	}
	q := rankQuality{
		samples:    snap.RankSamples,
		inversions: snap.PrioInversions,
		max:        snap.RankErrorMax,
	}
	if snap.RankSamples > 0 {
		q.mean = float64(snap.RankErrorSum) / float64(snap.RankSamples)
	}
	var ranks []int64
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EvRankSample {
			ranks = append(ranks, ev.A)
		}
	}
	q.p99 = rankP99(ranks)
	return q, nil
}

// rankP99 returns the nearest-rank 99th percentile of the samples.
func rankP99(ranks []int64) float64 {
	if len(ranks) == 0 {
		return 0
	}
	sort.Slice(ranks, func(a, b int) bool { return ranks[a] < ranks[b] })
	return float64(ranks[int(0.99*float64(len(ranks)-1))])
}

// runEngineOnce drives one full Submit→Drain→Stop cycle on a fresh engine,
// returning the run metrics and the final snapshot (runtime.Run alone
// discards the engine, and with it the queue-health counters).
func runEngineOnce(w workload.Workload, cfg runtime.Config) (runtime.Result, runtime.Snapshot) {
	e := runtime.NewEngine(w, cfg)
	_ = e.Submit(w.InitialTasks()...)
	_ = e.Start()
	_ = e.Drain(context.Background())
	snap := e.Snapshot()
	_ = e.Stop(context.Background())
	return e.Result(), snap
}
