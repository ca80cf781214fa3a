package runtime

// Tests for the job layer (PR 7): weighted fair scheduling, admission
// quotas, job-scoped cancel/drain, per-job conservation ledgers, and the
// job-aware stall diagnostics. The fairness test is the load-bearing one —
// it pins the deficit-round-robin contract (task shares track weight shares
// for backlogged tenants) with synthetic tenants whose backlog is constant
// by construction, so any disproportion is the scheduler's fault, not the
// workload's supply.

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// steadyWorkload keeps a constant backlog: every processed task emits one
// child at the same priority until the job is told to stop. The live task
// population therefore never moves from its seeded size, which makes every
// tenant permanently backlogged — the regime where deficit round robin owes
// exact weight proportionality.
type steadyWorkload struct {
	stop atomic.Bool
}

func (w *steadyWorkload) Name() string              { return "steady" }
func (w *steadyWorkload) Graph() *graph.CSR         { return nil }
func (w *steadyWorkload) Reset()                    {}
func (w *steadyWorkload) InitialTasks() []task.Task { return nil }
func (w *steadyWorkload) Clone() workload.Workload  { return w }
func (w *steadyWorkload) Verify() error             { return nil }

func (w *steadyWorkload) Process(t task.Task, emit func(task.Task)) int {
	if !w.stop.Load() {
		emit(task.Task{Node: t.Node, Prio: t.Prio})
	}
	return 1
}

func seedTasks(n int) []task.Task {
	ts := make([]task.Task, n)
	for i := range ts {
		ts[i] = task.Task{Node: graph.NodeID(i), Prio: int64(i % 64)}
	}
	return ts
}

// TestJobWeightedFairness pins the deficit-round-robin contract: three
// tenants pre-seeded with deep open-loop backlogs and weights 4:2:1 must
// observe processed task shares within 10% of 4/7, 2/7, 1/7 over the
// measurement window. The backlog must be open-loop (independent tasks
// seeded up front): a closed loop whose tasks respawn themselves has a
// constant population, so throughput is arrival-limited and the
// work-conserving scheduler legitimately equalizes it regardless of
// weight — weights govern backlogged tenants only.
//
// The window is cut by the tasks themselves at exact global task counts, not
// by a polling goroutine, so it cannot land late on a slow or single-CPU
// host. Leaf tasks never move between workers and each worker holds 75k of
// job 0's, which it drains, at 4:2:1, after 75k*7/4 = 131k tasks of its own;
// while fewer than that have run fleet-wide, every tenant is backlogged on
// every worker however unevenly the workers progress, and each worker's own
// share is the weights'.
func TestJobWeightedFairness(t *testing.T) {
	weights := []int{4, 2, 1}
	const (
		backlog     = 300_000
		windowOpens = 20_000 // fleet-wide tasks processed: past the ramp
		windowShuts = 120_000
	)
	var (
		total       atomic.Int64
		perJob      [3]atomic.Int64
		first, last [3]atomic.Int64
	)
	cut := func(dst *[3]atomic.Int64) {
		for i := range perJob {
			dst[i].Store(perJob[i].Load())
		}
	}
	leaf := func(tk task.Task, emit func(task.Task)) int {
		perJob[tk.Job].Add(1)
		switch total.Add(1) {
		case windowOpens:
			cut(&first)
		case windowShuts:
			cut(&last)
		}
		return 1
	}
	cfg := Config{Workers: 4, Seed: 7, DefaultJob: JobConfig{Weight: weights[0]}}
	e := NewEngine(&fnWorkload{fn: leaf}, cfg)
	jobs := []*Job{e.DefaultJob()}
	for i := 1; i < len(weights); i++ {
		j, err := e.NewJob(&fnWorkload{fn: leaf}, JobConfig{Weight: weights[i]})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if err := j.Submit(seedTasks(backlog)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	var sum int64
	deltas := make([]int64, len(jobs))
	for i := range jobs {
		deltas[i] = last[i].Load() - first[i].Load()
		sum += deltas[i]
	}
	var wsum int
	for _, w := range weights {
		wsum += w
	}
	for i, w := range weights {
		got := float64(deltas[i]) / float64(sum)
		want := float64(w) / float64(wsum)
		if diff := got - want; diff > 0.1*want || diff < -0.1*want {
			t.Errorf("job %d share %.4f, want %.4f ±10%% (deltas %v)", i, got, want, deltas)
		}
	}

	s := e.Snapshot()
	checkLedger(t, s)
	checkJobLedgers(t, s)
	if err := e.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// checkJobLedgers asserts every per-job conservation row and that the rows
// partition the global ledger.
func checkJobLedgers(t *testing.T, s Snapshot) {
	t.Helper()
	var sub, sp, pr, br, qu, ca int64
	for _, j := range s.Jobs {
		if j.Outstanding != 0 {
			t.Fatalf("job %d outstanding %d at quiescence", j.Job, j.Outstanding)
		}
		in := j.Submitted + j.Spawned
		out := j.Processed + j.BagsRetired + j.Quarantined + j.CancelledTasks
		if in != out {
			t.Fatalf("job %d ledger violated: in %d != out %d (%+v)", j.Job, in, out, j)
		}
		sub += j.Submitted
		sp += j.Spawned
		pr += j.Processed
		br += j.BagsRetired
		qu += j.Quarantined
		ca += j.CancelledTasks
	}
	if sub != s.Submitted || sp != s.Spawned || pr != s.TasksProcessed ||
		br != s.BagsRetired || qu != s.Quarantined || ca != s.Cancelled {
		t.Fatalf("job rows don't partition the global ledger: sums [%d %d %d %d %d %d] vs global [%d %d %d %d %d %d]",
			sub, sp, pr, br, qu, ca,
			s.Submitted, s.Spawned, s.TasksProcessed, s.BagsRetired, s.Quarantined, s.Cancelled)
	}
}

// TestJobQuota pins admission control: a job with MaxOutstanding rejects the
// batch that would exceed it, whole, with a *QuotaError, and the rejection
// is visible in the job's stats without touching its ledger.
func TestJobQuota(t *testing.T) {
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int { return 1 }}
	e := NewEngine(w, Config{Workers: 2})
	j, err := e.NewJob(w, JobConfig{Name: "quoted", MaxOutstanding: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit(seedTasks(10)...); err != nil {
		t.Fatalf("submit within quota: %v", err)
	}
	err = j.Submit(seedTasks(1)...)
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("submit past quota: got %v, want *QuotaError", err)
	}
	if qe.Job != j.ID() || qe.Limit != 10 {
		t.Errorf("QuotaError = %+v, want job %d limit 10", qe, j.ID())
	}
	stats := j.Snapshot()
	if stats.QuotaRejected != 1 {
		t.Errorf("QuotaRejected = %d, want 1", stats.QuotaRejected)
	}
	if stats.Submitted != 10 {
		t.Errorf("Submitted = %d, want 10 (rejected batch must not touch the ledger)", stats.Submitted)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Quota is on outstanding, not cumulative: once drained, room returns.
	if err := j.Submit(seedTasks(10)...); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkJobLedgers(t, e.Snapshot())
	_ = e.Stop(context.Background())
}

// TestEngineSubmitMixedJobs covers Engine.Submit's mixed-job path, which
// groups a batch by job and admission-checks every group before it submits
// any: one job over its quota refuses the whole batch, leaving both jobs'
// ledgers untouched, and a batch within quota bills each task to its own job.
func TestEngineSubmitMixedJobs(t *testing.T) {
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int { return 1 }}
	e := NewEngine(w, Config{Workers: 2})
	j, err := e.NewJob(w, JobConfig{Name: "quoted", MaxOutstanding: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Engine.Job finds a registered job in the engine's table and refuses an
	// ID past it, where a task's Job field would fold into job 0.
	if got, ok := e.Job(j.ID()); !ok || got.ID() != j.ID() || got.Name() != "quoted" {
		t.Fatalf("Job(%d) = %v, %v; want the quoted job's handle", j.ID(), got, ok)
	}
	if got, ok := e.Job(j.ID() + 1); ok || got != nil {
		t.Fatalf("Job(%d) of a two-job engine = %v, %v; want nil, false", j.ID()+1, got, ok)
	}
	// mixed is n0 tasks of job 0 followed by n1 of the quoted job.
	mixed := func(n0, n1 int) []task.Task {
		ts := seedTasks(n0 + n1)
		for i := n0; i < len(ts); i++ {
			ts[i].Job = j.ID()
		}
		return ts
	}

	err = e.Submit(mixed(3, 5)...)
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Job != j.ID() || qe.Tasks != 5 {
		t.Fatalf("mixed batch over the quoted job's quota: %v, want its *QuotaError for 5 tasks", err)
	}
	for _, js := range e.Snapshot().Jobs {
		if js.Submitted != 0 || js.Outstanding != 0 {
			t.Fatalf("job %d admitted work from a refused batch: %+v", js.Job, js)
		}
	}

	if err := e.Submit(mixed(3, 4)...); err != nil {
		t.Fatalf("mixed batch within quota: %v", err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	checkJobLedgers(t, snap)
	for id, want := range []int64{3, 4} {
		if js := snap.Jobs[id]; js.Submitted != want || js.Processed != want {
			t.Errorf("job %d: submitted %d processed %d, want %d each", id, js.Submitted, js.Processed, want)
		}
	}
	if got := snap.Jobs[j.ID()].QuotaRejected; got != 5 {
		t.Errorf("quoted job QuotaRejected = %d, want 5", got)
	}
	_ = e.Stop(testCtx(t))
}

// TestJobWeightIsBounded: a weight whose DRR deposit would overflow int64
// (1<<62 * drrQuantum wraps to 0) once left the job's balance at zero for
// ever, and its worker spinning in fillBatch's rotation without reaching the
// stop check. The weight is clamped, so such a job drains.
func TestJobWeightIsBounded(t *testing.T) {
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int { return 1 }}
	e := NewEngine(w, Config{Workers: 1})
	j, err := e.NewJob(w, JobConfig{Name: "heavy", Weight: 1 << 62})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Snapshot().Weight; got != MaxJobWeight {
		t.Errorf("weight %d, want it clamped to %d", got, MaxJobWeight)
	}
	if err := j.Submit(seedTasks(100)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("a weight-1<<62 job never drained: %v", err)
	}
	checkJobLedgers(t, e.Snapshot())
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestJobCancel pins job-scoped cancellation: a cancelled tenant's queued
// tasks are swept into its Cancelled sink, its ledger still balances, other
// tenants are untouched, and further submits fail with ErrJobCancelled.
func TestJobCancel(t *testing.T) {
	var slow atomic.Int64
	keeper := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		slow.Add(1)
		time.Sleep(10 * time.Microsecond)
		return 1
	}}
	victim := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		time.Sleep(10 * time.Microsecond)
		return 1
	}}
	e := NewEngine(keeper, Config{Workers: 2})
	vj, err := e.NewJob(victim, JobConfig{Name: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(seedTasks(2000)...); err != nil {
		t.Fatal(err)
	}
	if err := vj.Submit(seedTasks(2000)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	cancelCtx, cancelDone := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelDone()
	if err := vj.Cancel(cancelCtx); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if err := vj.Submit(seedTasks(1)...); !errors.Is(err, ErrJobCancelled) {
		t.Fatalf("submit after cancel: got %v, want ErrJobCancelled", err)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s := e.Snapshot()
	checkLedger(t, s)
	checkJobLedgers(t, s)
	vs := vj.Snapshot()
	if vs.CancelledTasks+vs.Processed != 2000 {
		t.Errorf("victim cancelled %d + processed %d != 2000", vs.CancelledTasks, vs.Processed)
	}
	ks := s.Jobs[0]
	if ks.Processed != 2000 || ks.CancelledTasks != 0 {
		t.Errorf("keeper processed %d cancelled %d, want 2000/0 (other tenants must be untouched)",
			ks.Processed, ks.CancelledTasks)
	}
	_ = e.Stop(context.Background())
}

// TestJobScopedDrain pins that Job.Drain waits for ONE tenant's quiescence
// while another tenant still has work in flight.
func TestJobScopedDrain(t *testing.T) {
	storm := &steadyWorkload{}
	quick := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int { return 1 }}
	e := NewEngine(storm, Config{Workers: 2})
	qj, err := e.NewJob(quick, JobConfig{Name: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(seedTasks(256)...); err != nil {
		t.Fatal(err)
	}
	if err := qj.Submit(seedTasks(512)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := qj.Drain(ctx); err != nil {
		t.Fatalf("job-scoped drain: %v", err)
	}
	qs := qj.Snapshot()
	if qs.Outstanding != 0 || qs.Processed != 512 {
		t.Errorf("quick job after Drain: outstanding %d processed %d, want 0/512", qs.Outstanding, qs.Processed)
	}
	if s := e.Snapshot(); s.Jobs[0].Outstanding == 0 {
		t.Error("storm tenant quiesced during the other job's Drain — job scoping is leaking")
	}
	storm.stop.Store(true)
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkJobLedgers(t, e.Snapshot())
	_ = e.Stop(context.Background())
}

// TestJobStallErrorScoping pins the diagnostic split: a job-scoped drain
// timeout names the blocking job, the engine-wide one speaks for the fleet.
func TestJobStallErrorScoping(t *testing.T) {
	block := make(chan struct{})
	w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
		<-block
		return 1
	}}
	e := NewEngine(w, Config{Workers: 1})
	j, err := e.NewJob(w, JobConfig{Name: "stuck"})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Submit(seedTasks(1)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = j.Drain(ctx)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("job drain on a stuck handler: got %v, want *StallError", err)
	}
	if se.Job == nil || se.Job.Job != j.ID() || se.Job.Outstanding != 1 || se.Job.Submitted != 1 {
		t.Errorf("StallError = %+v, want job %d's ledger row", se, j.ID())
	}
	if len(se.Snapshot.Workers) != 1 || se.Snapshot.Workers[0].Parked {
		t.Errorf("StallError snapshot %+v, want the one busy worker", se.Snapshot.Workers)
	}
	msg := se.Error()
	for _, want := range []string{"drain-job stalled", "job 1 (stuck) blocking", "outstanding 1", "submitted 1",
		"processed 0", "quarantined 0", "cancelled 0", "0/1 workers parked"} {
		if !strings.Contains(msg, want) {
			t.Errorf("job-scoped stall message lacks %q: %s", want, msg)
		}
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	err = e.Drain(ctx2)
	if !errors.As(err, &se) {
		t.Fatalf("engine drain: got %v, want *StallError", err)
	}
	if se.Job != nil {
		t.Errorf("engine-wide StallError names a job: %+v", se)
	}
	close(block)
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = e.Stop(context.Background())
}
