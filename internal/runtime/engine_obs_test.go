package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// leafWorkload processes every task without emitting children, so the exact
// number of processed tasks equals the number submitted — the tightest
// workload for counter-consistency and snapshot-coherence assertions.
type leafWorkload struct {
	g *graph.CSR
}

func newLeafWorkload() *leafWorkload { return &leafWorkload{g: graph.Road(4, 4, 1)} }

func (w *leafWorkload) Name() string              { return "leaf" }
func (w *leafWorkload) Graph() *graph.CSR         { return w.g }
func (w *leafWorkload) Reset()                    {}
func (w *leafWorkload) InitialTasks() []task.Task { return []task.Task{{Node: 0, Prio: 0}} }
func (w *leafWorkload) Clone() workload.Workload  { return &leafWorkload{g: w.g} }
func (w *leafWorkload) Verify() error             { return nil }
func (w *leafWorkload) Process(t task.Task, emit func(task.Task)) int {
	return 1
}

// Concurrent-Submit hammer with a recorder attached: after Drain the
// trace's job lines, the engine snapshot, and the number of tasks submitted
// must all agree exactly. Run under -race this also validates the
// recorder's hot-path memory accesses.
func TestEngineObsConcurrentSubmitCounts(t *testing.T) {
	w := newLeafWorkload()
	cfg := DefaultConfig(4)
	// SampleEvery 1: every task samples, so the edges counter (refreshed on
	// sample boundaries) is exact too, not just tasks-processed.
	rec := obs.New(obs.Config{Workers: cfg.Workers, RingSize: 128, SampleEvery: 1})
	cfg.Obs = rec
	e := NewEngine(w, cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)

	const submitters = 8
	const perSubmitter = 200
	const batch = 5
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ts := make([]task.Task, batch)
			for i := range ts {
				ts[i] = task.Task{Node: 0, Prio: int64(s*batch + i)}
			}
			for i := 0; i < perSubmitter; i++ {
				if err := e.Submit(ts...); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	const submitted = int64(submitters * perSubmitter * batch)

	sums, jobs := traceTotals(t, e), traceJobTotals(t, e)
	if got := jobs["submitted"]; got != submitted {
		t.Errorf("trace submitted = %d, want %d", got, submitted)
	}
	if got := jobs["processed"]; got != submitted {
		t.Errorf("trace processed = %d, want %d (leaf workload: processed == submitted)", got, submitted)
	}
	snap := e.Snapshot()
	if snap.TasksProcessed != submitted {
		t.Errorf("snapshot processed = %d, want %d", snap.TasksProcessed, submitted)
	}
	if snap.Outstanding != 0 {
		t.Errorf("outstanding = %d after Drain", snap.Outstanding)
	}
	if got := sums[obs.CEdgesExamined.String()]; got != submitted {
		t.Errorf("edges = %d, want %d (leaf examines 1 per task)", got, submitted)
	}
	if rec.EventCount() == 0 {
		t.Error("no events recorded across the hammer")
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

// total sums counter c over every row the engine counts in: each worker's and
// the external one.
func (e *Engine) total(c obs.Counter) int64 {
	n := e.ext[c].Load()
	for i := range e.workers {
		n += e.workers[i].row[c].Load()
	}
	return n
}

// readTrace reads e's own trace back through obs.ReadTrace.
func readTrace(t testing.TB, e *Engine) *obs.Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// traceJobTotals sums each numeric field of the trace's job lines, by its
// name there: the ledger terms summed over the jobs.
func traceJobTotals(t testing.TB, e *Engine) map[string]int64 {
	t.Helper()
	sums := make(map[string]int64)
	for _, row := range readTrace(t, e).Jobs {
		for name, v := range row {
			if f, ok := v.(float64); ok && name != "job" && name != "weight" {
				sums[name] += int64(f)
			}
		}
	}
	return sums
}

// traceTotals sums each counter, by name, over the counters lines of e's own
// trace.
func traceTotals(t testing.TB, e *Engine) map[string]int64 {
	t.Helper()
	tr := readTrace(t, e)
	if tr.Meta.Workers != len(e.workers) || len(tr.Counters) != len(e.workers)+1 {
		t.Errorf("trace of a %d-worker engine: meta says %d workers, %d counters lines",
			len(e.workers), tr.Meta.Workers, len(tr.Counters))
	}
	sums := make(map[string]int64)
	for _, row := range tr.Counters {
		for name, v := range row {
			if name != "worker" {
				sums[name] += v
			}
		}
	}
	return sums
}

// Every engine count has one home, whether or not a recorder is attached: a
// slot in an obs.Row, or, for a ledger term, the job. One run drives each of
// them — a poison task, negative priorities reported on every task, a Submit
// of more than a ring's worth a worker before Start, a fan-out the bag policy
// bags (and, run alone, the gate keeps), a batch over the default job's quota
// — and each API value (Snapshot, ControlTrace, or the rows where no API field
// exists) must equal the engine's rows and its trace's counters lines, each
// ledger term the sum of the trace's job lines, and all still count without a
// recorder.
func TestEngineCountersHaveOneHome(t *testing.T) {
	const poison, fan = graph.NodeID(7), graph.NodeID(1)
	const quota = 1 << 12
	run := func(rec *obs.Recorder) (*Engine, map[obs.Counter]int64, map[string]int64) {
		w := &fnWorkload{fn: func(tk task.Task, emit func(task.Task)) int {
			switch tk.Node {
			case poison:
				panic("poisoned task")
			case fan:
				for c := 0; c < 6; c++ {
					emit(task.Task{Node: graph.NodeID(1000 + c), Prio: 5})
				}
			}
			return 1
		}}
		cfg := DefaultConfig(4)
		cfg.Drift.SampleInterval = 1
		cfg.DefaultJob.MaxOutstanding = quota
		cfg.Obs = rec
		e := NewEngine(w, cfg)
		// Submitted before Start, so the rings fill and spill while nobody
		// drains them.
		ts := make([]task.Task, 8*ringSize)
		for i := range ts {
			ts[i] = task.Task{Node: graph.NodeID(i), Prio: -int64(i % 3)}
		}
		if err := e.Submit(ts...); err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		ctx := testCtx(t)
		if err := e.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		// A lone fan-out on the quiet fleet: its worker's queue is empty, so
		// the frontier-width gate keeps its units local.
		if err := e.Submit(task.Task{Node: fan}); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		var qe *QuotaError
		if err := e.Submit(make([]task.Task, quota+1)...); !errors.As(err, &qe) {
			t.Fatalf("submit past the quota: %v, want *QuotaError", err)
		}
		if err := e.Stop(ctx); err != nil {
			t.Fatal(err)
		}
		snap := e.Snapshot()
		checkLedger(t, snap)
		var spills, rejects int64
		for _, ws := range snap.Workers {
			spills += ws.OverflowSpills
		}
		for _, js := range snap.Jobs {
			rejects += js.QuotaRejected
		}
		return e, map[obs.Counter]int64{
				obs.COverflowSpills: spills,
				obs.CDriftClamped:   snap.DriftClamped,
				obs.CTasksBagged:    snap.BaggedTasks,
				obs.CUnitsKeptLocal: snap.KeptLocal,
				obs.CTDFSteps:       int64(len(e.ControlTrace())),
				obs.CDriftReports:   e.total(obs.CDriftReports),
				obs.CBagsOpened:     e.total(obs.CBagsOpened),
				obs.CWorkerRestarts: e.total(obs.CWorkerRestarts),
			}, map[string]int64{
				"submitted":      snap.Submitted,
				"quota_rejected": rejects,
				"quarantined":    snap.Quarantined,
			}
	}

	e, api, ledger := run(obs.New(obs.Config{Workers: 4}))
	sums, jobs := traceTotals(t, e), traceJobTotals(t, e)
	for c, v := range api {
		if got := sums[c.String()]; got != v {
			t.Errorf("%s: API value %d, trace total %d", c, v, got)
		}
		if got := e.total(c); got != v {
			t.Errorf("%s: API value %d, engine rows %d", c, v, got)
		}
	}
	for name, v := range ledger {
		if got := jobs[name]; got != v {
			t.Errorf("%s: API value %d, trace job lines %d", name, v, got)
		}
	}
	_, api, ledger = run(nil)
	for c, v := range api {
		if v == 0 && c != obs.CWorkerRestarts {
			t.Errorf("%s: zero without a recorder", c)
		}
	}
	for name, v := range ledger {
		if v == 0 {
			t.Errorf("%s: zero without a recorder", name)
		}
	}
}

// The engine is the one owner of its counts, whatever recorder it is given.
// A recorder once lent the engine its counter rows: a second engine on a
// recorder Stored into the first one's rows and added both engines'
// tasks_submitted, and a recorder sized for fewer workers left the extra
// workers' counts out of the trace. Here one recorder serves two engines run
// one after the other, and a recorder built for 2 workers serves a 4-worker
// engine: each engine's ledger balances, and the counters and job lines of
// its own trace sum to its own Snapshot.
func TestEngineCountsAreItsOwnOverAnyRecorder(t *testing.T) {
	solve := func(t *testing.T, rec *obs.Recorder, workers int) {
		w, err := workload.New("sssp", graph.Road(32, 32, 3))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(workers)
		cfg.Obs = rec
		e := NewEngine(w, cfg)
		if err := e.Submit(w.InitialTasks()...); err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		ctx := testCtx(t)
		if err := e.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		if err := e.Stop(ctx); err != nil {
			t.Fatal(err)
		}
		if err := w.Verify(); err != nil {
			t.Fatal(err)
		}
		snap := e.Snapshot()
		checkLedger(t, snap)
		var spills, parks int64
		for _, ws := range snap.Workers {
			spills += ws.OverflowSpills
			parks += ws.IdleParks
		}
		sums, jobs := traceTotals(t, e), traceJobTotals(t, e)
		for c, v := range map[obs.Counter]int64{
			obs.CEdgesExamined:  snap.EdgesExamined,
			obs.COverflowSpills: spills,
			obs.CIdleParks:      parks,
		} {
			if got := sums[c.String()]; got != v {
				t.Errorf("%d workers: %s sums to %d over the trace, Snapshot %d", workers, c, got, v)
			}
		}
		for name, v := range map[string]int64{
			"submitted":       snap.Submitted,
			"spawned":         snap.Spawned,
			"processed":       snap.TasksProcessed,
			"bags_retired":    snap.BagsRetired,
			"quarantined":     snap.Quarantined,
			"cancelled_tasks": snap.Cancelled,
		} {
			if got := jobs[name]; got != v {
				t.Errorf("%d workers: %s sums to %d over the trace's job lines, Snapshot %d", workers, name, got, v)
			}
		}
	}
	t.Run("shared", func(t *testing.T) {
		rec := obs.New(obs.Config{Workers: 2})
		solve(t, rec, 2)
		solve(t, rec, 2)
	})
	t.Run("undersized", func(t *testing.T) {
		solve(t, obs.New(obs.Config{Workers: 2}), 4)
	})
}

// Snapshot's coherence contract: at any instant, TasksProcessed +
// Outstanding >= tasks submitted before the read. Before the processed-count
// publish was moved ahead of task retirement, a mid-drain Snapshot could
// observe the retirement (Outstanding down) without the processed count
// (stale until the next flush/park) and under-count — this pins the fix.
func TestEngineSnapshotCoherentMidDrain(t *testing.T) {
	w := newLeafWorkload()
	// One worker never has a pending send, so it never reaches a flush
	// boundary: the widest staleness window the old code exposed, where the
	// published count lagged until the next park.
	cfg := Config{Workers: 1}
	rec := obs.New(obs.Config{Workers: 1, SampleEvery: -1})
	cfg.Obs = rec
	e := NewEngine(w, cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)

	ts := make([]task.Task, 64)
	var submitted int64
	for round := 0; round < 200; round++ {
		if err := e.Submit(ts...); err != nil {
			t.Fatal(err)
		}
		submitted += int64(len(ts))
		// Interleave reads with the worker mid-drain.
		for probe := 0; probe < 4; probe++ {
			snap := e.Snapshot()
			if sum := snap.TasksProcessed + snap.Outstanding; sum < submitted {
				t.Fatalf("round %d: processed(%d) + outstanding(%d) = %d < submitted(%d): snapshot lost tasks",
					round, snap.TasksProcessed, snap.Outstanding, sum, submitted)
			}
		}
	}
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.TasksProcessed != submitted || snap.Outstanding != 0 {
		t.Errorf("after Drain: processed=%d outstanding=%d, want processed=%d outstanding=0",
			snap.TasksProcessed, snap.Outstanding, submitted)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

// The disabled-observability fast path must stay allocation-free per task:
// with a nil recorder, Submit+process+Drain of a pre-built batch amortizes
// to (near) zero allocations per task.
func TestEngineNilRecorderZeroAllocPerTask(t *testing.T) {
	w := newLeafWorkload()
	// Single worker: every task goes through the one worker's park/wake,
	// the hardest case for the per-task claim. Submit's own allocations at
	// two workers are TestEngineSubmitAllocatesNothing's.
	e := NewEngine(w, Config{Workers: 1})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	batch := make([]task.Task, ringSize-1) // within ring capacity: no spill allocs

	// Warm up ring/overflow/queue capacity before measuring.
	for i := 0; i < 4; i++ {
		if err := e.Submit(batch...); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.Submit(batch...); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	// Drain's slow path may arm a ticker (a couple of allocations) on a
	// loaded machine; amortized per task anything near zero passes, and a
	// recorder accidentally wired into the nil path would cost far more.
	if perTask := allocs / float64(len(batch)); perTask > 0.2 {
		t.Errorf("nil-recorder path allocates %.3f objects/task (%.1f per batch), want ~0", perTask, allocs)
	}
}

// WriteTrace emits the full JSONL trace: recorder meta/counters/events, one
// job line per tenant — JobStats' own JSON, its bytes pinned here — and the
// control plane's per-interval series.
func TestEngineWriteTrace(t *testing.T) {
	g := graph.Road(24, 24, 5)
	w, err := workload.New("sssp", g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.Drift.SampleInterval = 16
	rec := obs.New(obs.Config{Workers: cfg.Workers})
	cfg.Obs = rec
	e := NewEngine(w, cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	if err := e.Submit(w.InitialTasks()...); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if e.Obs() != rec {
		t.Fatal("Obs() did not return the attached recorder")
	}
	var buf bytes.Buffer
	if err := e.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"type":"meta"`, `"type":"counters"`, `"type":"control"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	js := e.DefaultJob().Snapshot()
	job := fmt.Sprintf(`{"type":"job","job":0,"name":"job-0","weight":1,"cancelled":false,"outstanding":0,`+
		`"submitted":%d,"spawned":%d,"processed":%d,"bags_retired":%d,"quarantined":0,"cancelled_tasks":0,"quota_rejected":0}`+"\n",
		js.Submitted, js.Spawned, js.Processed, js.BagsRetired)
	if strings.Count(out, `"type":"job"`) != 1 || !strings.Contains(out, job) {
		t.Errorf("trace lacks the one job line %s", job)
	}
	if len(e.ControlTrace()) == 0 {
		t.Error("ControlTrace is empty despite a tight sample interval")
	}
}
