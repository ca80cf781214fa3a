package main

import (
	"fmt"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/sched"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
)

// simCell is one (scheduler, machine, workload-input pair) of the sweep.
type simCell struct {
	sched sched.Scheduler
	name  string // scheduler name as in the metric
	pair  string
	cfg   sim.Config
	job   *job
}

// simSweep is the simulator twin of the two solve workloads: the same
// algorithms on smaller graphs under the paper's software schedulers on the
// 40-core software machine and the hardware ones on the Table I machine.
type simSweep struct {
	cells    []simCell
	jobs     []*job
	seqTasks int64 // useful tasks one pass simulates: the oracle count of every cell's job
}

func newSimSweep(e *env) (*simSweep, error) {
	side, web := e.size(120, 16), e.size(5000, 150)
	road, err := newJob(e, "sssp", func() *graph.CSR { return graph.Road(side, side, e.seed) })
	if err != nil {
		return nil, err
	}
	pr, err := newJob(e, "pagerank", func() *graph.CSR { return graph.Web(web, e.seed) })
	if err != nil {
		return nil, err
	}
	s := &simSweep{jobs: []*job{road, pr}}
	for i, j := range s.jobs {
		for _, name := range simSchedulers {
			sc, err := sched.ByName(name)
			if err != nil {
				return nil, err
			}
			cfg := sim.DefaultSW(40)
			if name == "hdcps-hw" || name == "swarm" {
				cfg = sim.DefaultHW()
			}
			s.cells = append(s.cells, simCell{sched: sc, name: name, pair: simPairs[i], cfg: cfg, job: j})
			s.seqTasks += j.seqTasks
		}
	}
	return s, nil
}

// simPass is one run of every cell, in order.
type simPass struct {
	runs   []stats.Run
	cellMs []float64
	hostS  float64 // summed cell time: verification is outside it
	cpu    time.Duration
}

// pass runs every cell once. clock (nil allowed) takes a burst before each
// cell, outside the cell's own time.
func (s *simSweep) pass(e *env, spans *spanRecorder, clock *boxClock, rep int64, countAllocs bool) (simPass, uint64) {
	var p simPass
	var allocs uint64
	stamps := []time.Time{time.Now()}
	names := make([]string, 0, 2*len(s.cells))
	for _, c := range s.cells {
		if clock != nil {
			clock.burst()
		}
		var m0 uint64
		if countAllocs {
			m0 = mallocs()
		}
		cpu0 := cpuNow()
		c0 := time.Now()
		run := c.sched.Run(c.job.w, c.cfg, e.seed)
		c1 := time.Now()
		p.cpu += cpuNow() - cpu0
		if countAllocs {
			allocs += mallocs() - m0
		}
		err := c.job.w.Verify()
		if err != nil {
			err = fmt.Errorf("pass %d cell %s.%s: %w", rep, c.name, c.pair, err)
		}
		e.op(err)
		stamps = append(stamps, c0, c1)
		names = append(names, "", "sched.run") // the gap before each run is the previous cell's Verify
		p.runs = append(p.runs, run)
		p.cellMs = append(p.cellMs, msBetween(c0, c1))
		p.hostS += c1.Sub(c0).Seconds()
	}
	spans.addSeq(rep, "pass", names, stamps)
	return p, allocs
}

// sameCycles checks that a pass simulated exactly what the first one did:
// the simulator is deterministic for a fixed (workload, machine, seed).
func sameCycles(first, p simPass) error {
	for i := range p.runs {
		if a, b := first.runs[i], p.runs[i]; a.CompletionTime != b.CompletionTime || a.TasksProcessed != b.TasksProcessed {
			return fmt.Errorf("cell %s/%s/%s is not deterministic: %d cycles %d tasks, then %d cycles %d tasks",
				a.Scheduler, a.Workload, a.Input, a.CompletionTime, a.TasksProcessed, b.CompletionTime, b.TasksProcessed)
		}
	}
	return nil
}

// simNominalTasks is the number of simulated tasks a pass's host time is
// scaled to. The simulator's host time follows the number of events it
// simulates, and that number follows the seed (the web graph's pagerank most
// of all), so host time is compared per simulated task; what the modelled
// schedulers do with the input shows in work_efficiency and the sched.* rows.
const simNominalTasks = 2_000_000

// runSimSweep is sim-sweep. The operation is one pass of the 12 cells.
func runSimSweep(e *env) error {
	var first simPass // the warm-up pass: discarded but for its cycle counts
	s, err := prepare(e, func() (*simSweep, error) { return newSimSweep(e) }, nil, func(s *simSweep) {
		first, _ = s.pass(e, nil, nil, 0, false)
	})
	if err != nil {
		return err
	}

	var hdcpsCycles, hdcpsEff []float64
	var processed int64
	for i, run := range first.runs {
		processed += run.TasksProcessed
		if c := s.cells[i]; c.name == "hdcps-sw" || c.name == "hdcps-hw" {
			hdcpsCycles = append(hdcpsCycles, float64(run.CompletionTime))
			hdcpsEff = append(hdcpsEff, float64(c.job.seqTasks)/float64(run.TasksProcessed))
		}
	}

	if !e.trace {
		clock := e.clock(1) // the simulator is single-threaded
		var opsMs []float64
		var work []workSpan
		for deadline := time.Now().Add(e.share(1)); len(work) < 2 || time.Now().Before(deadline); {
			p, _ := s.pass(e, nil, clock, int64(len(work)+1), false)
			e.op(sameCycles(first, p))
			opsMs = append(opsMs, sum(p.cellMs)*simNominalTasks/float64(processed))
			work = append(work, workSpan{float64(processed), p.hostS, p.cpu.Seconds()})
		}
		clock.burst()
		fmt.Fprintf(e.out, "# sim_cycles_hdcps (geomean, exact for this seed) %.0f\n", stats.Geomean(hdcpsCycles))
		return e.setEndToEnd(opsMs, clock, work, clock, stats.Geomean(hdcpsEff))
	}

	return bracket(e, func() error {
		var hostS float64
		var allocs uint64
		passes := 0
		for deadline := time.Now().Add(e.share(0.4)); passes < 2 || time.Now().Before(deadline); passes++ {
			p, a := s.pass(e, e.spans, nil, int64(passes+1), true)
			e.op(sameCycles(first, p))
			hostS += p.hostS
			allocs += a
		}
		for i, run := range first.runs {
			c := s.cells[i]
			e.set("sched.cycles."+c.name+"."+c.pair, float64(run.CompletionTime))
			if c.name == "hdcps-sw" || c.name == "hdcps-hw" {
				e.set("sched.work_eff."+c.name+"."+c.pair, float64(c.job.seqTasks)/float64(run.TasksProcessed))
			}
			if c.name == "hdcps-sw" && c.pair == simPairs[0] {
				// §IV-C: where the software scheduler's cycles go on sssp-road.
				shares := run.Breakdown.Normalized(run.Breakdown.Total())
				e.set("sim.enqueue_share", shares[0])
				e.set("sim.dequeue_share", shares[1])
				e.set("sim.compute_share", shares[2])
				e.set("sim.comm_share", shares[3])
				e.set("sim.messages_per_task", float64(run.MessagesSent)/float64(run.TasksProcessed))
				e.set("sim.l1_hit_share", float64(run.L1Hits)/float64(max(run.L1Hits+run.L2Hits+run.MemMisses, 1)))
			}
		}
		e.set("sched.cycles_hdcps_geomean", stats.Geomean(hdcpsCycles))
		e.set("sim.host_ns_per_task", hostS*1e9/float64(processed)/float64(passes))
		e.set("sim.allocs_per_task", float64(allocs)/float64(processed)/float64(passes))
		var buildMs, seqMs float64
		for _, j := range s.jobs {
			buildMs += j.buildMs
			seqMs += j.seqMs
		}
		e.set("graph.build_ms", buildMs)
		e.set("workload.seq_tasks", float64(s.seqTasks))
		e.set("workload.seq_ms", seqMs)
		return nil
	})
}
