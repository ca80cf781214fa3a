package runtime

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"hdcps/internal/bag"
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
// recorder's processed total, the engine snapshot, and the number of tasks
// submitted must all agree exactly. Run under -race this also validates the
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

	if got := rec.Total(obs.CTasksSubmitted); got != submitted {
		t.Errorf("recorder submitted = %d, want %d", got, submitted)
	}
	if got := rec.Total(obs.CTasksProcessed); got != submitted {
		t.Errorf("recorder processed = %d, want %d (leaf workload: processed == submitted)", got, submitted)
	}
	snap := e.Snapshot()
	if snap.TasksProcessed != submitted {
		t.Errorf("snapshot processed = %d, want %d", snap.TasksProcessed, submitted)
	}
	if snap.Outstanding != 0 {
		t.Errorf("outstanding = %d after Drain", snap.Outstanding)
	}
	if got := rec.Total(obs.CEdgesExamined); got != submitted {
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
		n += e.workers[i].pub[c].Load()
	}
	return n
}

// Every engine counter has one home, a slot in an obs.Row, whether or not a
// recorder is attached. One run drives each of them — a poison task, negative
// priorities reported on every task, Submits through a ring of 8 slots, a
// fan-out the Always bag policy bags (and, run alone, the gate keeps), a
// batch over the default job's quota — and each API value (Snapshot,
// ControlTrace, or the rows where no API field exists) must equal the
// recorder's total, and still count without one.
func TestEngineCountersHaveOneHome(t *testing.T) {
	const poison, fan = graph.NodeID(7), graph.NodeID(1)
	const quota = 1 << 12
	run := func(rec *obs.Recorder) (*Engine, map[obs.Counter]int64) {
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
		cfg.RingSize = 8
		cfg.Bags.Mode = bag.Always
		cfg.Drift.SampleInterval = 1
		cfg.DefaultJob.MaxOutstanding = quota
		cfg.Obs = rec
		e := NewEngine(w, cfg)
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		ctx := testCtx(t)
		ts := make([]task.Task, 1024)
		for i := range ts {
			ts[i] = task.Task{Node: graph.NodeID(i), Prio: -int64(i % 3)}
		}
		if err := e.Submit(ts...); err != nil {
			t.Fatal(err)
		}
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
			obs.CTasksSubmitted:   snap.Submitted,
			obs.CQuotaRejects:     rejects,
			obs.CTasksQuarantined: snap.Quarantined,
			obs.COverflowSpills:   spills,
			obs.CDriftClamped:     snap.DriftClamped,
			obs.CTasksBagged:      snap.BaggedTasks,
			obs.CUnitsKeptLocal:   snap.KeptLocal,
			obs.CTDFSteps:         int64(len(e.ControlTrace())),
			obs.CDriftReports:     e.total(obs.CDriftReports),
			obs.CBagsOpened:       e.total(obs.CBagsOpened),
			obs.CWorkerRestarts:   e.total(obs.CWorkerRestarts),
		}
	}

	rec := obs.New(obs.Config{Workers: 4})
	e, api := run(rec)
	for c, v := range api {
		if got := rec.Total(c); got != v {
			t.Errorf("%s: API value %d, recorder total %d", c, v, got)
		}
		if got := e.total(c); got != v {
			t.Errorf("%s: API value %d, engine rows %d", c, v, got)
		}
	}
	_, api = run(nil)
	for c, v := range api {
		if v == 0 && c != obs.CWorkerRestarts {
			t.Errorf("%s: zero without a recorder", c)
		}
	}
}

// An undersized recorder once corrupted the ledger: Recorder.Row folded every
// index past its Workers into the one external row, so workers 2 and 3 of a
// four-worker engine Stored their processed and spawned totals into the same
// slots and Snapshot read each slot twice. Such a worker keeps a row of its
// own now, and the ledger is exact at quiescence.
func TestEngineUndersizedRecorderKeepsLedgerExact(t *testing.T) {
	w, err := workload.New("sssp", graph.Road(32, 32, 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4)
	cfg.Obs = obs.New(obs.Config{Workers: 2})
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
	checkLedger(t, e.Snapshot())
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
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
	cfg := Config{Workers: 1, RingSize: 256}
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
	// Single worker: Submit's multi-worker scatter path allocates buckets,
	// the 1-worker path injects directly.
	cfg := Config{Workers: 1, RingSize: 512}
	e := NewEngine(w, cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	batch := make([]task.Task, 256) // within ring capacity: no spill allocs

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

// WriteTrace emits the full JSONL trace: recorder meta/counters/events plus
// the control plane's per-interval series.
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
	if len(e.ControlTrace()) == 0 {
		t.Error("ControlTrace is empty despite a tight sample interval")
	}
}
