package exp

// The simulator figures are declarations run by two drivers. A versus table
// has one row per workload-input pair: a baseline cell, columns that read
// each cell's run against it, and a geomean row. A sweep has one row per
// variant (a machine, a queue size, a controller or bag setting), compared
// pair by pair with a baseline run once per pair; its columns are the pairs
// or the geomean over them. Both hand every scheduler run to one cell runner,
// inputSet.run, so every number they print comes from a verified run.

import (
	"fmt"

	"hdcps/internal/sched"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
)

// run is the cell runner, the only code in the package that runs a
// simulated scheduler: a fresh workload for p, s on cfg with seed, the
// answer checked against the workload's sequential reference, and the
// sequential task count attached for work-efficiency columns.
func (set *inputSet) run(s sched.Scheduler, p Pair, cfg sim.Config, seed uint64) (stats.Run, error) {
	w, err := set.workloadFor(p)
	if err != nil {
		return stats.Run{}, fmt.Errorf("exp: %s on %s: %w", s.Name(), p.Label(), err)
	}
	r := s.Run(w, cfg, seed)
	if err := w.Verify(); err != nil {
		return r, fmt.Errorf("exp: %s on %s produced wrong result: %w", s.Name(), p.Label(), err)
	}
	r.SeqTasks, err = set.seqTasks(p)
	return r, err
}

// runner runs one scheduler on a cell's pair and machine at the Options'
// seed; a per-pair scheduler is built from such runs.
type runner func(sched.Scheduler) (stats.Run, error)

// cell is one scheduler on one machine. A cell with build instead of s gets
// its scheduler per pair, from runs of its own (fig12's dynamic oracle).
type cell struct {
	s     sched.Scheduler
	build func(runner) (sched.Scheduler, error)
	cfg   sim.Config
}

// measured is a verified cell: the first seed's run and the completion time
// over all of the cell's seeds (their geomean when there are several).
type measured struct {
	stats.Run
	t float64
}

type job struct {
	c cell
	p Pair
}

// measure runs every job on the Options' worker pool, each over seeds
// consecutive seeds from o.Seed, and returns them in job order.
func (set *inputSet) measure(o Options, seeds int, jobs []job) ([]measured, error) {
	return parallelMap(len(jobs), o.Par, func(i int) (measured, error) {
		c, p := jobs[i].c, jobs[i].p
		s := c.s
		if c.build != nil {
			var err error
			if s, err = c.build(func(s sched.Scheduler) (stats.Run, error) {
				return set.run(s, p, c.cfg, o.Seed)
			}); err != nil {
				return measured{}, err
			}
		}
		var m measured
		times := make([]float64, max(seeds, 1))
		for k := range times {
			r, err := set.run(s, p, c.cfg, o.Seed+uint64(k))
			if err != nil {
				return m, err
			}
			if k == 0 {
				m.Run = r
			}
			times[k] = float64(r.CompletionTime)
		}
		m.t = times[0]
		if len(times) > 1 {
			m.t = stats.Geomean(times)
		}
		return m, nil
	})
}

// metric reads one value from a cell's run against its baseline's.
type metric func(r, base measured) float64

type vals map[string]metric

func quot(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func slower(r, b measured) float64     { return quot(r.t, b.t) }
func faster(r, b measured) float64     { return quot(b.t, r.t) }
func driftRatio(r, b measured) float64 { return quot(r.AvgDrift(), b.AvgDrift()) }
func workEff(r, _ measured) float64    { return r.WorkEfficiency() }

// share is the fraction of r's time breakdown in component i (enqueue,
// dequeue, compute, communication).
func share(i int) metric {
	return func(r, _ measured) float64 { return r.Breakdown.Normalized(r.Breakdown.Total())[i] }
}

// versus is a table with one row per pair, its columns read against the
// pair's baseline cell, and a geomean row.
type versus struct {
	id, title, note string
	series          []string // column order
	pairs           []Pair
	seeds           int // seeds each cell's time is averaged over (0: one)
	base            cell
	cfg             sim.Config // the columns' machine
	cols            []col
}

// col is one column scheduler and the values read from its run. A column
// with neither s nor build reads the baseline's own run.
type col struct {
	s     sched.Scheduler
	build func(runner) (sched.Scheduler, error)
	vals  vals
}

func (c col) ownRun() bool { return c.s != nil || c.build != nil }

func (v versus) run(o Options, set *inputSet) (Result, error) {
	res := Result{ID: v.id, Title: v.title, Series: v.series, Notes: []string{v.note}}
	var jobs []job
	for _, p := range v.pairs {
		jobs = append(jobs, job{v.base, p})
		for _, c := range v.cols {
			if c.ownRun() {
				jobs = append(jobs, job{cell{c.s, c.build, v.cfg}, p})
			}
		}
	}
	runs, err := set.measure(o, v.seeds, jobs)
	if err != nil {
		return res, err
	}
	for _, p := range v.pairs {
		base := runs[0]
		runs = runs[1:]
		row := Row{Label: p.Label(), Values: map[string]float64{}}
		for _, c := range v.cols {
			r := base
			if c.ownRun() {
				r, runs = runs[0], runs[1:]
			}
			for name, f := range c.vals {
				row.Values[name] = f(r, base)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	geomeanRow(&res)
	return res, nil
}

// sweep is a table with one row per variant, each of its cells read with
// value against the pair's baseline. The columns are the pairs (prefixed
// with the scheduler when a variant has several cells), or, when geomean
// names a column, the geomean of a row's values in pair order.
type sweep struct {
	id, title, note string
	geomean         string
	pairs           []Pair
	seeds           int
	base            cell
	value           metric
	rows            []variant
}

type variant struct {
	label string
	cells []cell
}

func (sw sweep) run(o Options, set *inputSet) (Result, error) {
	res := Result{ID: sw.id, Title: sw.title, Notes: []string{sw.note}}
	var jobs []job
	for _, p := range sw.pairs {
		jobs = append(jobs, job{sw.base, p})
	}
	for _, v := range sw.rows {
		for _, p := range sw.pairs {
			for _, c := range v.cells {
				jobs = append(jobs, job{c, p})
			}
		}
	}
	runs, err := set.measure(o, sw.seeds, jobs)
	if err != nil {
		return res, err
	}
	base, runs := runs[:len(sw.pairs)], runs[len(sw.pairs):]
	for _, v := range sw.rows {
		row := Row{Label: v.label, Values: map[string]float64{}}
		var xs []float64
		for i, p := range sw.pairs {
			for _, c := range v.cells {
				name := p.Label()
				if len(v.cells) > 1 {
					name = c.s.Name() + "/" + name
				}
				x := sw.value(runs[0], base[i])
				runs = runs[1:]
				row.Values[name], xs = x, append(xs, x)
				if len(res.Rows) == 0 && sw.geomean == "" {
					res.Series = append(res.Series, name)
				}
			}
		}
		if sw.geomean != "" {
			row.Values = map[string]float64{sw.geomean: stats.Geomean(xs)}
			res.Series = []string{sw.geomean}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
