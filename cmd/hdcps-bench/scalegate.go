package main

import (
	"fmt"
	"os"
	stdruntime "runtime"
	"sort"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/runtime"
	"hdcps/internal/workload"
)

// scaleGateReps is the least number of solves behind each median, and
// scaleGateWarm how long the configurations run unrecorded first: a
// process's first second or two can run a two-worker solve several times
// slower than its steady state (the second CPU of a small VM is slow to
// arrive), which is the host's start-up and not the scheduler's scaling.
// oversubscribedLimit is ROADMAP item 4's exit: a fleet of twice as many
// workers as running CPUs may take at most this multiple of two workers'
// time (5-10x before steal-when-behind: a descheduled worker held the best
// tasks).
const (
	scaleGateReps       = 15
	scaleGateWarm       = 2 * time.Second
	oversubscribedLimit = 2.0
)

// runScaleGate is ROADMAP item 2's exit criterion as a gate: sssp on the
// scale's road graph, solved with one worker and with two, must not take
// more than limit times as long with two. A third, oversubscribed fleet —
// two workers per running CPU — must not take more than oversubscribedLimit
// times the two-worker time. The configurations take turns in one process
// after a discarded warm-up, so that a slow stretch of the host falls on all
// of them, and every solve is verified. With fewer than two CPUs a second
// worker cannot run beside the first and the gate skips.
func runScaleGate(scale string, seed uint64, reps int, limit float64) error {
	n := min(stdruntime.NumCPU(), stdruntime.GOMAXPROCS(0))
	if n < 2 {
		fmt.Fprintf(os.Stderr, "scale-gate: skipped, %d CPU: two workers need two\n", n)
		return nil
	}
	// small is internal/exp's road sizing, large the benchmark's sssp-road input.
	g, err := graph.Builtin("road", scale, seed)
	if err != nil {
		return err
	}
	w, err := workload.New("sssp", g)
	if err != nil {
		return err
	}
	reps = max(reps, scaleGateReps)
	fleets := []int{1, 2, 2 * n}
	ms := make([][]float64, len(fleets))
	for start := time.Now(); len(ms[len(fleets)-1]) < reps; {
		warm := time.Since(start) < scaleGateWarm
		for i, workers := range fleets {
			cfg := runtime.DefaultConfig(workers)
			cfg.Seed = seed
			res := runtime.Run(w, cfg)
			if err := w.Verify(); err != nil {
				return fmt.Errorf("scale-gate: sssp with %d workers, wrong result: %w", workers, err)
			}
			if !warm {
				ms[i] = append(ms[i], float64(res.Elapsed)/float64(time.Millisecond))
			}
		}
	}
	for _, m := range ms {
		sort.Float64s(m)
	}
	one, two, over := ms[0][reps/2], ms[1][reps/2], ms[2][reps/2]
	fmt.Fprintf(os.Stderr, "scale-gate: sssp %s, median of %d solves: 1 worker %.2f ms, 2 workers %.2f ms, ratio %.2f (limit %.2f); %d workers on %d CPUs %.2f ms, %.2f times 2 workers (limit %.2f)\n",
		g.Name, reps, one, two, two/one, limit, fleets[2], n, over, over/two, oversubscribedLimit)
	if two > limit*one {
		return fmt.Errorf("two workers take %.2f times one worker's time, limit %.2f", two/one, limit)
	}
	if over > oversubscribedLimit*two {
		return fmt.Errorf("%d workers on %d CPUs take %.2f times two workers' time, limit %.2f",
			fleets[2], n, over/two, oversubscribedLimit)
	}
	return nil
}
