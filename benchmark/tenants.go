package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hdcps/internal/chaos"
	"hdcps/internal/exec"
	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/workload"
)

// tenants is the three-job mix: the fairness-sweep small mix minus its
// fourth tenant, weights 4:2:1.
type tenants struct {
	jobs     []*job
	ws       []workload.Workload
	jcs      []runtime.JobConfig
	seqTasks int64
}

func newTenants(e *env) (*tenants, error) {
	type spec struct {
		name, kind string
		weight     int
		gen        func() *graph.CSR
	}
	specs := []spec{
		{"w4", "sssp", 4, func() *graph.CSR { return graph.Cage(e.size(32000, 400), 34, 80, e.seed) }},
		{"w2", "bfs", 2, func() *graph.CSR { return graph.Cage(e.size(80000, 600), 34, 80, e.seed+1) }},
		{"w1", "sssp", 1, func() *graph.CSR { return graph.Web(e.size(20000, 300), e.seed) }},
	}
	t := &tenants{}
	for _, sp := range specs {
		j, err := newJob(e, sp.kind, sp.gen)
		if err != nil {
			return nil, err
		}
		t.jobs = append(t.jobs, j)
		t.ws = append(t.ws, j.w)
		t.jcs = append(t.jcs, runtime.JobConfig{Name: sp.name, Weight: sp.weight})
		t.seqTasks += j.seqTasks
	}
	return t, nil
}

func (t *tenants) verify() error {
	for i, w := range t.ws {
		if err := w.Verify(); err != nil {
			return fmt.Errorf("tenant %s: %w", t.jcs[i].Name, err)
		}
	}
	return nil
}

// viaRunJobs is one rep through exec.RunJobs: the timed solve is its
// Elapsed, Start to the engine-wide Drain's return — the makespan of all
// three jobs. The returned sample carries only what RunJobs exposes.
func (t *tenants) viaRunJobs(e *env, cfg runtime.Config, rep int64, traced, countAllocs bool) (solveSample, *exec.JobsReport) {
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
	_, rep3, err := exec.RunJobs(t.ws, t.jcs, exec.Spec{Native: &cfg, Seed: e.seed})
	s.stamps[5] = time.Now()
	s.cpu = cpuNow() - cpu0
	if countAllocs {
		s.mallocs = mallocs() - m0
	}
	if err == nil {
		// RunJobs times Start→Drain itself; place that interval so that it
		// ends where the call returned (Stop is the only call after it).
		s.stamps[4] = s.stamps[5]
		s.stamps[2] = s.stamps[4].Add(-rep3.Elapsed)
		s.snap = rep3.Snapshot
		if cfg.Obs != nil {
			s.events = cfg.Obs.EventCount()
		}
		if err = rep3.DrainErr; err == nil {
			err = rep3.ConservationErr
		}
	}
	if err == nil {
		err = t.verify()
	}
	s.stamps[6] = time.Now()
	if err != nil {
		err = fmt.Errorf("rep %d: %w", rep, err)
	}
	e.op(err)
	if traced {
		e.spans.addSeq(rep, "solve", []string{"exec.run_jobs", "workload.verify"},
			[]time.Time{s.stamps[0], s.stamps[5], s.stamps[6]})
	}
	return s, rep3
}

// direct is one rep driven call by call from here, the way RunJobs does it
// inside, so that each public call gets its own span and each job's own
// Drain can be timed: when did the weight-4 tenant finish, when the others.
func (t *tenants) direct(e *env, cfg runtime.Config, rep int64) (solveSample, [3]float64) {
	var s solveSample
	var done [3]float64
	cfg.DefaultJob = t.jcs[0]
	cpu0 := cpuNow()
	s.stamps[0] = time.Now()
	eng := runtime.NewEngine(t.ws[0], cfg)
	handles := []*runtime.Job{eng.DefaultJob()}
	var err error
	for i := 1; i < len(t.ws) && err == nil; i++ {
		var h *runtime.Job
		h, err = eng.NewJob(t.ws[i], t.jcs[i])
		handles = append(handles, h)
	}
	s.stamps[1] = time.Now()
	for i := 0; i < len(handles) && err == nil; i++ {
		initial := t.ws[i].InitialTasks()
		s.initial += len(initial)
		err = handles[i].Submit(initial...)
	}
	s.stamps[2] = time.Now()
	if err == nil {
		err = eng.Start()
	}
	s.stamps[3] = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	if err == nil {
		var wg sync.WaitGroup
		errs := make([]error, len(handles))
		for i, h := range handles {
			wg.Add(1)
			go func(i int, h *runtime.Job) {
				defer wg.Done()
				errs[i] = h.Drain(ctx)
				done[i] = msSince(s.stamps[2])
			}(i, h)
		}
		wg.Wait()
		err = eng.Drain(ctx)
		for _, jerr := range errs {
			if err == nil {
				err = jerr
			}
		}
	}
	s.stamps[4] = time.Now()
	s.snap = eng.Snapshot()
	if stopErr := eng.Stop(ctx); err == nil {
		err = stopErr
	}
	cancel()
	s.stamps[5] = time.Now()
	s.cpu = cpuNow() - cpu0
	s.control = eng.ControlTrace()
	if err == nil {
		err = t.verify()
	}
	if err == nil {
		var ck chaos.Checker
		err = ck.Quiescent(s.snap)
	}
	s.stamps[6] = time.Now()
	if err != nil {
		err = fmt.Errorf("direct rep %d: %w", rep, err)
	}
	e.op(err)
	e.spans.addSeq(rep, "solve", solveSpanNames, s.stamps[:])
	return s, done
}

// runTenants is tenants-mixed: one engine, three weighted jobs.
func runTenants(e *env) error {
	cfg := runtime.DefaultConfig(e.w)
	cfg.Seed = e.seed
	t, err := prepare(e, func() (*tenants, error) { return newTenants(e) }, nil, func(t *tenants) {
		for deadline := time.Now().Add(e.warm()); ; {
			t.viaRunJobs(e, cfg, -1, false, false)
			if !time.Now().Before(deadline) {
				break
			}
		}
	})
	if err != nil {
		return err
	}

	if !e.trace {
		return measureSolves(e, t.seqTasks, func(rep int64) solveSample {
			s, _ := t.viaRunJobs(e, cfg, rep, false, false)
			return s
		})
	}
	return bracket(e, func() error {
		// Three kinds of rep take turns: untraced RunJobs, traced RunJobs,
		// and a directly driven one for the per-call spans and per-job times.
		var viaJobs, direct []solveSample
		var shareErr []float64
		var missed float64
		var done [3][]float64
		deadline := time.Now().Add(e.share(0.65))
		for i := 0; i < 6 || time.Now().Before(deadline); i++ {
			switch i % 3 {
			case 2:
				s, d := t.direct(e, cfg, int64(i+1))
				direct = append(direct, s)
				for k := range d {
					done[k] = append(done[k], d[k])
				}
			default:
				s, rep := t.viaRunJobs(e, cfg, int64(i+1), i%3 == 1, true)
				viaJobs = append(viaJobs, s)
				if rep != nil && !s.traced {
					if rep.ShareSamples == 0 {
						missed++
					} else {
						shareErr = append(shareErr, 100*rep.ShareError())
					}
				}
			}
		}
		agg := solveLayers(e, viaJobs, direct, t.seqTasks)
		e.set("runtime.share_err_pp", median(shareErr))
		e.set("runtime.share_window_missed", missed)
		for k, name := range []string{"w4", "w2", "w1"} {
			e.set("runtime.job_done_ms."+name, median(done[k]))
		}
		var buildMs, seqMs float64
		for _, j := range t.jobs {
			buildMs += j.buildMs
			seqMs += j.seqMs
		}
		e.set("graph.build_ms", buildMs)
		e.set("workload.seq_tasks", float64(t.seqTasks))
		e.set("workload.seq_ms", seqMs)
		replayLayers(e, t.jobs, agg)
		return nil
	})
}
