package exp

// The fairness-sweep experiment exercises the PR-7 multi-tenant engine: four
// jobs with weights 4:2:1:1 share one native fleet, and the experiment
// reports each tenant's measured share of processed tasks over the window
// where every tenant still had outstanding work, against the share its
// weight entitles it to. The deficit-round-robin batch fill makes the
// entitlement task-count-proportional (credit = weight pops per activation),
// so the measured shares should track the weight shares regardless of how
// expensive each tenant's tasks are. Every tenant's workload is verified
// and the quiescent snapshot must balance the global ledger, all four
// per-job ledgers, and the partition identity between them.

import (
	"fmt"

	"hdcps/internal/exec"
	"hdcps/internal/graph"
	"hdcps/internal/runtime"
	"hdcps/internal/workload"
)

// fairnessTenant is one tenant of the sweep's fixed mix: a workload-input
// pair and its fair-share weight.
type fairnessTenant struct {
	pair   Pair
	weight int
}

func fairnessSweep(o Options, _ *inputSet) (Result, error) {
	// Weighted fairness governs backlogged tenants, so the mix pairs
	// sssp/bfs with inputs whose frontiers explode immediately and stay
	// wide (cage's banded structure, web/lj's power-law hubs) — road-style
	// single-source ramps are supply-limited for most of their run and
	// would measure the workload's frontier width, not the scheduler. The
	// mix still crosses cheap tasks (bfs) with expensive ones (sssp) so
	// weight-proportionality is tested where per-task cost differs. Each
	// tenant's input is sized so its total work is roughly proportional to
	// its weight share: under fair shares all tenants then finish around
	// the same time, which is what makes the all-backlogged contention
	// window span most of the run instead of ending at the smallest
	// tenant's early exit.
	// The input multiplier sets how deep each tenant's frontier runs
	// relative to the fleet's service rate. Weighted fairness is an
	// asymptotic property of backlogged tenants: graph workloads are
	// closed-loop (a tenant's task supply is its own processing output),
	// so at small sizes the measurement is partly supply-limited and the
	// shares drift toward equality. Measured worst-case |share - want|:
	// ~0.12 at mult 4, ~0.05 at 16, ~0.03 at 40.
	mult := 16
	switch o.Scale {
	case "tiny":
		mult = 4
	case "large":
		mult = 40
	}
	type tenantSpec struct {
		fairnessTenant
		g *graph.CSR
	}
	specs := []tenantSpec{
		{fairnessTenant{Pair{"sssp", "cage"}, 4}, graph.Cage(2000*mult, 34, 80, o.Seed)},
		{fairnessTenant{Pair{"bfs", "cage2"}, 2}, graph.Cage(5000*mult, 34, 80, o.Seed+1)},
		{fairnessTenant{Pair{"sssp", "web"}, 1}, graph.Web(1250*mult, o.Seed)},
		{fairnessTenant{Pair{"bfs", "lj"}, 1}, graph.LJ(2000*mult, o.Seed)},
	}
	const workers = 4

	tenants := make([]fairnessTenant, len(specs))
	ws := make([]workload.Workload, len(specs))
	jcs := make([]runtime.JobConfig, len(specs))
	for i, s := range specs {
		w, err := workload.New(s.pair.Workload, s.g)
		if err != nil {
			return Result{}, fmt.Errorf("exp: fairness-sweep tenant %s: %w", s.pair.Label(), err)
		}
		tenants[i] = s.fairnessTenant
		ws[i] = w
		jcs[i] = runtime.JobConfig{Name: s.pair.Label(), Weight: s.weight}
	}
	cfg := runtime.DefaultConfig(workers)
	cfg.Seed = o.Seed
	run, rep, err := exec.RunJobs(ws, jcs, exec.Spec{Seed: o.Seed, Native: &cfg})
	if err != nil {
		return Result{}, fmt.Errorf("exp: fairness-sweep: %w", err)
	}
	if rep.DrainErr != nil {
		return Result{}, fmt.Errorf("exp: fairness-sweep drain: %w", rep.DrainErr)
	}
	if rep.ConservationErr != nil {
		return Result{}, fmt.Errorf("exp: fairness-sweep ledger: %w", rep.ConservationErr)
	}
	for i, w := range ws {
		if err := w.Verify(); err != nil {
			return Result{}, fmt.Errorf("exp: fairness-sweep tenant %s wrong: %w", tenants[i].pair.Label(), err)
		}
	}
	// At small scale and up the inputs are deep enough for the fairness
	// contract to be enforceable: shares must land within 10 percentage
	// points of the weight shares at large scale, 12 at small (closed-loop
	// supply effects shrink with input depth, and a loaded box measured up
	// to ~9pp at small). Tiny inputs are run for speed (CI smoke), where
	// the measurement is supply-limited and informational.
	gate := 0.0
	switch o.Scale {
	case "small":
		gate = 0.12
	case "large":
		gate = 0.10
	}
	if gate > 0 {
		if worst := rep.ShareError(); worst > gate {
			return Result{}, fmt.Errorf(
				"exp: fairness-sweep shares out of tolerance: worst |share-want| %.4f > %.2f (shares %v, want %v, window %d tasks)",
				worst, gate, rep.Shares, rep.WeightShares, rep.ShareSamples)
		}
	}

	res := Result{
		ID:     "fairness-sweep",
		Title:  "Multi-tenant weighted fairness: measured vs entitled task shares (weights 4:2:1:1)",
		Series: []string{"weight", "want-share", "got-share", "abs-dev", "processed", "spawned"},
	}
	for i, t := range tenants {
		j := rep.Snapshot.Jobs[i]
		dev := rep.Shares[i] - rep.WeightShares[i]
		if dev < 0 {
			dev = -dev
		}
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("job%d %s", i, t.pair.Label()),
			Values: map[string]float64{
				"weight":     float64(t.weight),
				"want-share": rep.WeightShares[i],
				"got-share":  rep.Shares[i],
				"abs-dev":    dev,
				"processed":  float64(j.Processed),
				"spawned":    float64(j.Spawned),
			},
		})
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d workers; shares measured at the last snapshot where all tenants had outstanding work "+
			"(%d tasks processed in window); worst |deviation| %.4f; all tenants verified; "+
			"global + per-job ledgers exact at quiescence; fleet total %d tasks in %s",
		workers, rep.ShareSamples, rep.ShareError(), run.TasksProcessed, rep.Elapsed))
	return res, nil
}
