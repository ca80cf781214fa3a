package exec

import (
	"bytes"
	"testing"

	"hdcps/internal/chaos"
	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/stats"
	"hdcps/internal/workload"
)

// tenants builds n workloads over distinct inputs (sssp and bfs alternating)
// and their job configs, weights n, n-1, ..., 1.
func tenants(t *testing.T, n int) ([]workload.Workload, []runtime.JobConfig) {
	t.Helper()
	var ws []workload.Workload
	var jcs []runtime.JobConfig
	for i := 0; i < n; i++ {
		kind := []string{"sssp", "bfs"}[i%2]
		w, err := workload.New(kind, graph.Road(40, 40, uint64(3+i)))
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
		jcs = append(jcs, runtime.JobConfig{Name: kind, Weight: n - i})
	}
	return ws, jcs
}

// checkRun fails t unless the run drained, balanced the global ledger and
// every per-job ledger, quarantined nothing, and computed every answer.
func checkRun(t *testing.T, ws []workload.Workload, r stats.Run, rep *JobsReport) {
	t.Helper()
	if rep.DrainErr != nil {
		t.Fatalf("run stalled: %v", rep.DrainErr)
	}
	if rep.ConservationErr != nil {
		t.Fatalf("conservation violated: %v", rep.ConservationErr)
	}
	if s := rep.Snapshot; s.Outstanding != 0 || s.Submitted+s.Spawned != s.TasksProcessed+s.BagsRetired+s.Quarantined+s.Cancelled {
		t.Fatalf("global ledger off: %+v", s)
	}
	if len(rep.Jobs) != len(ws) {
		t.Fatalf("%d job rows, want %d", len(rep.Jobs), len(ws))
	}
	for i, j := range rep.Jobs {
		if j.Outstanding != 0 || j.Submitted+j.Spawned != j.Processed+j.BagsRetired+j.Quarantined+j.CancelledTasks {
			t.Fatalf("job %d ledger off: %+v", i, j)
		}
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("healthy workloads quarantined %d tasks", len(rep.Quarantined))
	}
	if r.TasksProcessed != rep.Snapshot.TasksProcessed || r.CompletionTime <= 0 || r.EdgesExamined <= 0 {
		t.Fatalf("run metrics wrong: %+v", r)
	}
	// Transport faults must not change the answer.
	for i, w := range ws {
		if err := w.Verify(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

func faultCount(s *chaos.Stats) int64 {
	return s.DelayedBatches.Load() + s.Duplicates.Load() + s.Reordered.Load() +
		s.Rejected.Load() + s.Stalls.Load()
}

func TestRunJobsOneJobUnderChaos(t *testing.T) {
	ws, jcs := tenants(t, 1)
	mix := chaos.Config{Seed: 9, Delay: 0.1, Reorder: 0.3, RingFull: 0.2}
	r, rep, err := RunJobs(ws, jcs, Spec{Native: &runtime.Config{Workers: 2}, Seed: 9, Chaos: &mix})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, ws, r, rep)
	if rep.Faults == nil || faultCount(rep.Faults) == 0 {
		t.Fatalf("mix injected nothing: %v", rep.Faults)
	}
	if r.Scheduler != "native-hdcps" || r.Cores != 2 {
		t.Fatalf("run metrics wrong: %+v", r)
	}
	if rep.Shares != nil || rep.ShareError() != 0 {
		t.Fatalf("one-job run measured a fairness window: shares %v", rep.Shares)
	}
}

func TestRunJobsThreeJobsUnderChaos(t *testing.T) {
	ws, jcs := tenants(t, 3)
	mix := chaos.DefaultMix(5)
	r, rep, err := RunJobs(ws, jcs, Spec{Native: &runtime.Config{Workers: 2}, Seed: 5, Chaos: &mix})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, ws, r, rep)
	if faultCount(rep.Faults) == 0 {
		t.Fatalf("mix injected nothing: %v", rep.Faults)
	}
	if len(rep.Shares) != 3 || len(rep.WeightShares) != 3 {
		t.Fatalf("shares %v, weight shares %v", rep.Shares, rep.WeightShares)
	}
}

func TestRunJobsDefaultWorkers(t *testing.T) {
	for _, spec := range []Spec{{}, {Native: &runtime.Config{}}} {
		ws, jcs := tenants(t, 1)
		r, rep, err := RunJobs(ws, jcs, spec)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, ws, r, rep)
		if r.Cores != 4 || len(rep.Snapshot.Workers) != 4 {
			t.Fatalf("unset worker count ran %d workers, reported as %d cores; want the default 4",
				len(rep.Snapshot.Workers), r.Cores)
		}
		if rep.Faults != nil {
			t.Fatal("a run without Spec.Chaos reported fault counters")
		}
	}
}

// TestRunJobsTrace reads back the trace of a one-job run, a three-job run
// and a three-job chaos run: each has a meta line, per-worker counters that
// sum to the run's task count, one job row per tenant and one control line
// per controller interval.
func TestRunJobsTrace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		jobs  int
		chaos bool
	}{{"one-job", 1, false}, {"three-job", 3, false}, {"three-job-chaos", 3, true}} {
		t.Run(tc.name, func(t *testing.T) {
			ws, jcs := tenants(t, tc.jobs)
			cfg := runtime.DefaultConfig(2)
			cfg.Obs = obs.New(obs.Config{Workers: cfg.Workers})
			spec := Spec{Seed: 11, Native: &cfg}
			if tc.chaos {
				mix := chaos.DefaultMix(11)
				spec.Chaos = &mix
			}
			r, rep, err := RunJobs(ws, jcs, spec)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, ws, r, rep)
			var buf bytes.Buffer
			if err := rep.WriteTrace(&buf); err != nil {
				t.Fatal(err)
			}
			tr, err := obs.ReadTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Meta.Schema != obs.TraceSchema || tr.Meta.Workers != cfg.Workers {
				t.Fatalf("meta line %+v", tr.Meta)
			}
			var processed int64
			for _, row := range tr.Counters {
				processed += row["tasks_processed"]
			}
			if processed != r.TasksProcessed {
				t.Fatalf("counters sum to %d tasks, the run processed %d", processed, r.TasksProcessed)
			}
			if len(tr.Jobs) != tc.jobs {
				t.Fatalf("%d job rows, want %d", len(tr.Jobs), tc.jobs)
			}
			for i, j := range tr.Jobs {
				if j.Name != jcs[i].Name || j.Processed != rep.Jobs[i].Processed {
					t.Fatalf("job row %d = %+v, want %s with %d processed", i, j, jcs[i].Name, rep.Jobs[i].Processed)
				}
			}
			if len(r.TDFTrace) == 0 || len(tr.Control) != len(r.TDFTrace) {
				t.Fatalf("%d control lines for %d controller intervals", len(tr.Control), len(r.TDFTrace))
			}
		})
	}
}

// The stats.Run a native run returns is the post-Stop snapshot and the
// controller's series, read through no other record.
func TestRunJobsStatsFromFinalSnapshot(t *testing.T) {
	w, err := workload.New("pagerank", graph.Web(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	ws := []workload.Workload{w}
	cfg := runtime.DefaultConfig(2)
	cfg.Drift.SampleInterval = 50
	r, rep, err := RunJobs(ws, []runtime.JobConfig{{}}, Spec{Native: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, ws, r, rep)
	final := rep.eng.Snapshot() // the engine has stopped: nothing moves
	if rep.Final.TasksProcessed != final.TasksProcessed || rep.Final.KeptLocal != final.KeptLocal {
		t.Fatalf("JobsReport.Final %+v is not the post-Stop snapshot %+v", rep.Final, final)
	}
	got := []int64{r.TasksProcessed, r.BagsCreated, r.BaggedTasks, r.EdgesExamined, r.DriftClamped}
	want := []int64{final.TasksProcessed, final.BagsCreated, final.BaggedTasks, final.EdgesExamined, final.DriftClamped}
	for i, name := range []string{"TasksProcessed", "BagsCreated", "BaggedTasks", "EdgesExamined", "DriftClamped"} {
		if got[i] != want[i] {
			t.Errorf("stats.Run.%s = %d, post-Stop snapshot %d", name, got[i], want[i])
		}
	}
	if final.BaggedTasks < final.BagsCreated || final.BagsCreated == 0 {
		t.Errorf("pagerank: %d bags holding %d tasks", final.BagsCreated, final.BaggedTasks)
	}
	if len(rep.Control) == 0 || len(r.TDFTrace) != len(rep.Control) ||
		len(r.DriftTrace) != len(rep.Control) || len(r.RefTrace) != len(rep.Control) {
		t.Fatalf("traces %d/%d/%d long for %d control points",
			len(r.TDFTrace), len(r.DriftTrace), len(r.RefTrace), len(rep.Control))
	}
	for i, p := range rep.Control {
		if p.Interval != i || r.TDFTrace[i] != p.TDF || r.DriftTrace[i] != p.Drift || r.RefTrace[i] != p.Ref {
			t.Fatalf("interval %d: run has tdf %d drift %v ref %d, control point %+v",
				i, r.TDFTrace[i], r.DriftTrace[i], r.RefTrace[i], p)
		}
	}
}
