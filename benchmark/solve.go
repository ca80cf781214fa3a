package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"hdcps/internal/chaos"
	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/workload"
)

// A run sets up at least minSetUps times, and goes on, up to maxSetUps, until
// it has spent setUpBudget doing so: a 20 ms server boot needs more
// repetitions than a 400 ms oracle for its median to hold still. setup_s is
// the median.
const (
	minSetUps   = 5
	maxSetUps   = 15
	setUpBudget = 1500 * time.Millisecond
)

// prepare is the start of every pass: build the inputs once, run the warm-up
// on them, release them, and only then time the set-ups proper. Set-ups are
// timed in a warm process because a cold one is bimodal: one run in five the
// first second of the process makes a 20 ms server boot take 55 ms, which
// says nothing about the code. The warm-up's verdicts are discarded with its
// timings.
func prepare[T any](e *env, build func() (T, error), drop func(T), warm func(T)) (T, error) {
	p, err := build()
	if err != nil {
		return p, err
	}
	warm(p)
	release(&p, drop)
	e.attempted, e.failed = 0, 0
	return setUp(e, build, drop)
}

// release drops a discarded product and returns its memory before the next
// is built, so that peak_rss_mb is the peak of one live set of inputs, not of
// however many the collector had not got to yet.
func release[T any](p *T, drop func(T)) {
	if drop != nil {
		drop(*p)
	}
	var zero T
	*p = zero
	debug.FreeOSMemory() // collects, then returns the freed pages
}

// setUp builds the workload's inputs several times, keeps the last product and
// reports the median build time, on the reference box's clock, as setup_s.
// drop releases a discarded product (nil when there is nothing to release).
func setUp[T any](e *env, build func() (T, error), drop func(T)) (T, error) {
	var kept T
	if e.trace {
		return build() // setup_s is an end-to-end metric; the traced pass sets up once
	}
	clock := e.clock(1) // set-up is single-threaded
	var secs []float64
	for spent := time.Duration(0); ; {
		clock.burst()
		t0 := time.Now()
		p, err := build()
		if err != nil {
			return kept, err
		}
		took := time.Since(t0)
		spent += took
		secs = append(secs, took.Seconds())
		clock.burst()
		if n := len(secs); n == maxSetUps || (n >= minSetUps && spent >= setUpBudget) {
			kept = p
			break
		}
		release(&p, drop)
	}
	e.set("setup_s", median(secs)/clock.factor())
	fmt.Fprintf(e.out, "# set-up: median of %d %.4f s raw, box factor %.3f\n", len(secs), median(secs), clock.factor())
	return kept, nil
}

// job is one algorithm over one generated graph, with its sequential oracle.
type job struct {
	w        workload.Workload
	seqTasks int64   // tasks the strict-priority sequential run needs
	buildMs  float64 // graph generation
	seqMs    float64 // the oracle run
}

// newJob generates the input and runs the sequential oracle. The program
// under test never sees the seed, only the graph.
func newJob(e *env, kind string, gen func() *graph.CSR) (*job, error) {
	t0 := time.Now()
	g := gen()
	t1 := time.Now()
	w, err := workload.New(kind, g)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	seq := workload.RunSequential(w.Clone())
	t3 := time.Now()
	e.spans.add(0, 0, "graph.build", t0, t1)
	e.spans.add(0, 0, "workload.oracle", t2, t3)
	return &job{w: w, seqTasks: seq, buildMs: msBetween(t0, t1), seqMs: msBetween(t2, t3)}, nil
}

// solveSample is one closed-loop solve cycle as seen from outside the
// engine: the clock around each public call, and the counters read back.
type solveSample struct {
	// stamps: 0 before NewEngine, 1 after, 2 after Submit, 3 after Start,
	// 4 after Drain, 5 after Stop, 6 after the correctness checks.
	stamps  [7]time.Time
	cpu     time.Duration // CPU spent between stamps 0 and 5
	initial int           // tasks passed to the pre-start Submit
	snap    runtime.Snapshot
	control []obs.ControlPoint
	events  uint64
	traced  bool
	mallocs uint64 // heap allocations between stamps 0 and 5 (0 unless asked for)
}

func (s *solveSample) solveMs() float64 { return msBetween(s.stamps[2], s.stamps[4]) }
func (s *solveSample) cycleS() float64  { return s.stamps[5].Sub(s.stamps[0]).Seconds() }

var solveSpanNames = []string{
	"runtime.new_engine", "runtime.submit", "runtime.start", "runtime.drain", "runtime.stop", "workload.verify",
}

// solveOnce runs Reset → NewEngine → Submit(InitialTasks) → Start → Drain →
// Stop on the job, then checks the answer and the conservation ledger
// outside the timed spans. The solve time is Start to Drain's return.
func solveOnce(e *env, j *job, cfg runtime.Config, rep int64, traced, countAllocs bool) solveSample {
	s := solveSample{traced: traced}
	if traced {
		cfg.Obs = obs.New(obs.Config{Workers: cfg.Workers, RingSize: 1 << 14, SampleEvery: 16})
	}
	var m0 uint64
	if countAllocs {
		m0 = mallocs()
	}
	cpu0 := cpuNow()
	s.stamps[0] = time.Now()
	eng := runtime.NewEngine(j.w, cfg) // resets the workload
	s.stamps[1] = time.Now()
	initial := j.w.InitialTasks()
	s.initial = len(initial)
	err := eng.Submit(initial...)
	s.stamps[2] = time.Now()
	if err == nil {
		err = eng.Start()
	}
	s.stamps[3] = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	if err == nil {
		err = eng.Drain(ctx)
	}
	s.stamps[4] = time.Now()
	s.snap = eng.Snapshot()
	if stopErr := eng.Stop(ctx); err == nil {
		err = stopErr
	}
	cancel()
	s.stamps[5] = time.Now()
	s.cpu = cpuNow() - cpu0
	if countAllocs {
		s.mallocs = mallocs() - m0
	}
	s.control = eng.ControlTrace()
	if cfg.Obs != nil {
		s.events = cfg.Obs.EventCount()
	}
	if err == nil {
		err = j.w.Verify()
	}
	if err == nil {
		var ck chaos.Checker
		err = ck.Quiescent(s.snap)
	}
	s.stamps[6] = time.Now()
	if err != nil {
		err = fmt.Errorf("solve %d: %w", rep, err)
	}
	e.op(err)
	if traced {
		e.spans.addSeq(rep, "solve", solveSpanNames, s.stamps[:])
	}
	return s
}

// solveFor repeats solveOnce until d has passed, at least atLeast times.
// traced(i) says whether rep i runs with the obs recorder attached.
func solveFor(e *env, j *job, cfg runtime.Config, d time.Duration, atLeast int, firstRep int64,
	traced func(i int) bool, countAllocs bool) []solveSample {
	var out []solveSample
	deadline := time.Now().Add(d)
	for i := 0; i < atLeast || time.Now().Before(deadline); i++ {
		out = append(out, solveOnce(e, j, cfg, firstRep+int64(i), traced(i), countAllocs))
	}
	return out
}

func never(int) bool { return false }

// yesNo is a yes/no metric's value.
func yesNo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// workSpan is one closed-loop interval: the useful tasks it completed and
// its wall and CPU seconds.
type workSpan struct{ useful, secs, cpuS float64 }

// setEndToEnd fills the end-to-end metrics. opsMs are the operation times;
// every time is put on the reference box's clock by the factor of the phase
// it was measured in (ops and work come from different phases on
// serve-ingest).
func (e *env) setEndToEnd(opsMs []float64, opsClock *boxClock, work []workSpan, workClock *boxClock, efficiency float64) error {
	var useful, secs, cpuS float64
	for _, w := range work {
		useful += w.useful
		secs += w.secs
		cpuS += w.cpuS
	}
	asc := sorted(opsMs)
	e.set("op_ms_p50", quantile(asc, 0.50)/opsClock.factor())
	e.set("op_ms_p90", quantile(asc, 0.90)/opsClock.factor())
	e.set("tasks_per_s", useful/secs*workClock.factor())
	e.set("work_efficiency", efficiency)
	e.set("cpu_us_per_task", cpuS*1e6/useful/workClock.factor())
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	e.set("peak_rss_mb", rss)
	fmt.Fprintf(e.out, "# %d operations; the sample supports up to p%g (ten samples beyond)\n",
		len(asc), 100*highestPercentile(len(asc)))
	fmt.Fprintf(e.out, "# box factor %.3f over %d bursts (reference burst %.1f ms), unsteady %v\n",
		opsClock.factor(), len(opsClock.bursts), calibRefMs, opsClock.unsteady() || workClock.unsteady())
	return nil
}

// measureSolves is the end-to-end phase of a solve workload: closed loop, one
// solve at a time, a burst of the box clock before each. Solve times are
// scaled to the workload's nominal input size: the work an input holds
// varies with the seed (a Web graph's pagerank needs 1.0M to 1.5M tasks) and
// a solve's time follows it.
func measureSolves(e *env, seqTasks int64, solve func(rep int64) solveSample) error {
	scale := float64(nominalTasks[e.workload]) / float64(seqTasks)
	clock := e.clock(e.w)
	var opsMs []float64
	var work []workSpan
	var processed int64
	for deadline := time.Now().Add(e.share(1)); len(opsMs) < 3 || time.Now().Before(deadline); {
		clock.burst()
		s := solve(int64(len(opsMs) + 1))
		opsMs = append(opsMs, s.solveMs()*scale)
		work = append(work, workSpan{float64(seqTasks), s.cycleS(), s.cpu.Seconds()})
		processed += s.snap.TasksProcessed
	}
	clock.burst()
	return e.setEndToEnd(opsMs, clock, work, clock, float64(seqTasks)*float64(len(opsMs))/float64(processed))
}

// bracket takes bursts of the box clock before and after the traced pass's
// phase and reports them as the host layer: the per-layer numbers are raw,
// and these say how fast the box was when they were taken.
func bracket(e *env, phase func() error) error {
	const each = 10
	clock := e.clock(e.w)
	for i := 0; i < each; i++ {
		clock.burst()
	}
	if err := phase(); err != nil {
		return err
	}
	for i := 0; i < each; i++ {
		clock.burst()
	}
	e.set("host.calib_ms", level(clock.bursts))
	e.set("host.unsteady", yesNo(clock.unsteady()))
	return nil
}

func singleSolveJob(e *env) (*job, error) {
	switch e.workload {
	case wSSSPRoad:
		side := e.size(240, 24)
		return newJob(e, "sssp", func() *graph.CSR { return graph.Road(side, side, e.seed) })
	default:
		n := e.size(10000, 300)
		return newJob(e, "pagerank", func() *graph.CSR { return graph.Web(n, e.seed) })
	}
}

// runSingleSolve is sssp-road and pagerank-web: one job, one engine per
// solve, closed loop, one solve at a time.
func runSingleSolve(e *env) error {
	cfg := runtime.DefaultConfig(e.w)
	cfg.Seed = e.seed
	j, err := prepare(e, func() (*job, error) { return singleSolveJob(e) }, nil, func(j *job) {
		solveFor(e, j, cfg, e.warm(), 1, -1000, never, false)
	})
	if err != nil {
		return err
	}

	if !e.trace {
		return measureSolves(e, j.seqTasks, func(rep int64) solveSample {
			return solveOnce(e, j, cfg, rep, false, false)
		})
	}
	return bracket(e, func() error {
		// Traced and untraced solves alternate, so both see the same box.
		ss := solveFor(e, j, cfg, e.share(0.55), 4, 1, func(i int) bool { return i%2 == 1 }, true)
		cfg1 := runtime.DefaultConfig(1)
		cfg1.Seed = e.seed
		one := solveFor(e, j, cfg1, e.share(0.10), 2, 100000, never, false)
		var oneMs []float64
		for i := range one {
			oneMs = append(oneMs, one[i].solveMs())
		}
		agg := solveLayers(e, ss, ss, j.seqTasks)
		e.set("runtime.solve_ms_1w", median(oneMs))
		e.set("runtime.speedup_vs_1w", median(oneMs)/agg.solveMsP50)
		e.set("graph.build_ms", j.buildMs)
		e.set("workload.seq_tasks", float64(j.seqTasks))
		e.set("workload.seq_ms", j.seqMs)
		replayLayers(e, []*job{j}, agg)
		return nil
	})
}

// solveAgg is what the traced pass of a solve workload hands to the layer
// replays for the reconciliation in runtime.unattributed_share.
type solveAgg struct {
	solveMsP50 float64
	solveNs    float64 // summed Start→Drain time of the untraced solves
	processed  float64 // tasks they processed
	spawned    float64 // children and bag units they spawned
	intervals  float64 // controller intervals they ran
	tdfMean    float64
}

// solveLayers fills the runtime, drift and obs rows from alternating traced
// and untraced solve cycles. Timings and counts come from the untraced
// cycles of ss; scheduling quality, which the engine only samples with a
// recorder attached, from the traced ones. calls are the cycles driven call
// by call from here, whose per-call stamps and controller series are valid:
// the untraced cycles themselves for a single job, the directly driven reps
// for tenants-mixed (exec.RunJobs hides the calls inside it).
func solveLayers(e *env, ss, calls []solveSample, seqPerSolve int64) solveAgg {
	var (
		solveMs, tracedMs                []float64
		cpu                              time.Duration
		processed, spawned, bags, spills int64
		redirects, hotSpills, fallbacks  int64
		parks, allocs                    int64
		rankSamples, inversions, rankErr int64
		events                           uint64
	)
	for i := range ss {
		s := &ss[i]
		if s.traced {
			tracedMs = append(tracedMs, s.solveMs())
			rankSamples += s.snap.RankSamples
			inversions += s.snap.PrioInversions
			rankErr += s.snap.RankErrorSum
			events += s.events
			continue
		}
		solveMs = append(solveMs, s.solveMs())
		cpu += s.cpu
		allocs += int64(s.mallocs)
		processed += s.snap.TasksProcessed
		spawned += s.snap.Spawned
		bags += s.snap.BagsCreated
		redirects += s.snap.Redirects
		hotSpills += s.snap.HotSpills
		fallbacks += s.snap.QueueFallbacks
		for _, ws := range s.snap.Workers {
			spills += ws.OverflowSpills
			parks += ws.IdleParks
		}
	}
	var newEng, submitNs, start, drain, stop, tdfs, drifts []float64
	var intervals, callProcessed float64
	for i := range calls {
		s := &calls[i]
		if s.traced {
			continue
		}
		newEng = append(newEng, msBetween(s.stamps[0], s.stamps[1]))
		submitNs = append(submitNs, float64(s.stamps[2].Sub(s.stamps[1]).Nanoseconds())/float64(max(s.initial, 1)))
		start = append(start, msBetween(s.stamps[2], s.stamps[3]))
		drain = append(drain, msBetween(s.stamps[3], s.stamps[4]))
		stop = append(stop, msBetween(s.stamps[4], s.stamps[5]))
		callProcessed += float64(s.snap.TasksProcessed)
		intervals += float64(len(s.control))
		for _, c := range s.control {
			tdfs = append(tdfs, float64(c.TDF))
			drifts = append(drifts, c.Drift)
		}
	}
	n := float64(len(solveMs))
	p := float64(max(processed, 1))
	perK := func(c int64) float64 { return 1000 * float64(c) / p }
	solveNs := sum(solveMs) * 1e6
	agg := solveAgg{
		solveMsP50: median(solveMs), solveNs: solveNs, processed: float64(processed),
		spawned: float64(spawned), tdfMean: mean(tdfs),
		intervals: intervals / max(callProcessed, 1) * float64(processed),
	}
	e.set("runtime.new_engine_ms", median(newEng))
	e.set("runtime.submit_ns_per_task", median(submitNs))
	e.set("runtime.start_ms", median(start))
	e.set("runtime.drain_ms", median(drain))
	e.set("runtime.stop_ms", median(stop))
	e.set("runtime.tasks_per_solve", float64(processed)/n)
	e.set("runtime.tasks_per_s", float64(processed)/(solveNs/1e9))
	e.set("runtime.work_efficiency", float64(seqPerSolve)*n/p)
	e.set("runtime.worker_ns_per_task", solveNs*float64(e.w)/p)
	e.set("runtime.cpu_ms_per_solve", float64(cpu.Microseconds())/1000/n)
	e.set("runtime.allocs_per_task", float64(allocs)/p)
	e.set("runtime.bags_per_ktask", perK(bags))
	e.set("runtime.spills_per_ktask", perK(spills))
	e.set("runtime.redirects_per_ktask", perK(redirects))
	e.set("runtime.hot_spills_per_ktask", perK(hotSpills))
	e.set("runtime.queue_fallbacks", float64(fallbacks)/n)
	e.set("runtime.idle_parks_per_solve", float64(parks)/n)
	e.set("runtime.rank_err_mean", float64(rankErr)/float64(max(rankSamples, 1)))
	e.set("runtime.inversions_per_ksample", 1000*float64(inversions)/float64(max(rankSamples, 1)))
	e.set("drift.intervals", intervals/float64(max(len(newEng), 1)))
	e.set("drift.tdf_mean", agg.tdfMean)
	e.set("drift.mean", mean(drifts))
	e.set("obs.overhead_pct", 100*(median(tracedMs)/agg.solveMsP50-1))
	e.set("obs.events_recorded", float64(events))
	return agg
}
