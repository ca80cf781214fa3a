package chaos

// Soak tests: repeated Submit→Drain rounds under every fault mix, with the
// invariant checker asserting the conservation ledger at each quiescent
// checkpoint and race-safe liveness checks while the fleet runs. These run
// under -race in CI (`make chaos`); setting CHAOS_SOAK=1 (the nightly knob)
// lengthens every soak.

import (
	"os"
	"testing"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/runtime"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// soakRounds is the number of Submit→Drain rounds per mix: short and
// deterministic for CI, longer when CHAOS_SOAK=1 (nightly).
func soakRounds() int {
	if os.Getenv("CHAOS_SOAK") != "" {
		return 16
	}
	return 4
}

// soakGraph is wide enough for per-worker queues to reach BatchK: below that
// the engine's dispatch gate keeps every child local and the transport, the
// thing the mixes perturb, carries next to nothing.
func soakGraph() *graph.CSR {
	if os.Getenv("CHAOS_SOAK") != "" {
		return graph.Road(96, 96, 3)
	}
	return graph.Road(48, 48, 3)
}

// soak drives one workload through rounds of Submit→Drain under the mix,
// checking liveness invariants mid-drain and the conservation ledger at
// every checkpoint. Returns the engine for mix-specific assertions.
func soak(t *testing.T, w workload.Workload, rcfg runtime.Config, ccfg Config) (*runtime.Engine, *Transport) {
	t.Helper()
	if rcfg.StallTimeout == 0 {
		rcfg.StallTimeout = 30 * time.Second
	}
	e, ct := Engine(w, rcfg, ccfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var chk Checker
	for round := 0; round < soakRounds(); round++ {
		if err := e.Submit(w.InitialTasks()...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		done := make(chan error, 1)
		go func() { done <- e.Drain(testCtx(t)) }()
	poll:
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("round %d: Drain = %v", round, err)
				}
				break poll
			default:
				if err := chk.Live(e.Snapshot()); err != nil {
					t.Fatalf("round %d (live): %v", round, err)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
		if err := chk.Quiescent(e.Snapshot()); err != nil {
			t.Fatalf("round %d (quiescent): %v", round, err)
		}
	}
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	return e, ct
}

func soakWorkload(t *testing.T) workload.Workload {
	t.Helper()
	w, err := workload.New("sssp", soakGraph())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSoakDelay(t *testing.T) {
	w := soakWorkload(t)
	_, ct := soak(t, w, runtime.Config{Workers: 4}, Config{Seed: 1, Delay: 0.2, DelayTurns: 4})
	if ct.Stats().DelayedBatches.Load() == 0 {
		t.Fatal("delay mix injected nothing")
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSoakDuplicate(t *testing.T) {
	w := soakWorkload(t)
	_, ct := soak(t, w, runtime.Config{Workers: 4}, Config{Seed: 2, Duplicate: 0.1})
	if ct.Stats().Duplicates.Load() == 0 {
		t.Fatal("duplicate mix injected nothing")
	}
	// Workloads tolerate duplicated tasks by contract; the answer must hold.
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSoakDuplicateSeeds runs a heavy duplicate mix over forty chaos seeds:
// whichever tasks a seed picks to deliver twice, every round must drain, the
// ledger must balance at each checkpoint and the answer must hold.
func TestSoakDuplicateSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		w := soakWorkload(t)
		rcfg := runtime.Config{Workers: 4, StallTimeout: 5 * time.Second}
		e, _ := Engine(w, rcfg, Config{Seed: seed, Duplicate: 0.3})
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		var chk Checker
		for round := 0; round < 3; round++ {
			if err := e.Submit(w.InitialTasks()...); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if err := e.Drain(testCtx(t)); err != nil {
				t.Fatalf("seed %d round %d: Drain = %v", seed, round, err)
			}
			if err := chk.Quiescent(e.Snapshot()); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
		if err := e.Stop(testCtx(t)); err != nil {
			t.Fatal(err)
		}
		if err := w.Verify(); err != nil {
			t.Fatalf("seed %d: verify: %v", seed, err)
		}
	}
}

func TestSoakReorder(t *testing.T) {
	w := soakWorkload(t)
	_, ct := soak(t, w, runtime.Config{Workers: 4}, Config{Seed: 3, Reorder: 0.5})
	if ct.Stats().Reordered.Load() == 0 {
		t.Fatal("reorder mix injected nothing")
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSoakRingFull(t *testing.T) {
	w := soakWorkload(t)
	_, ct := soak(t, w, runtime.Config{Workers: 4, RingSize: 16, OverflowCap: 32},
		Config{Seed: 4, RingFull: 0.2})
	if ct.Stats().Rejected.Load() == 0 {
		t.Fatal("ringfull mix injected nothing")
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSoakStall(t *testing.T) {
	w := soakWorkload(t)
	_, ct := soak(t, w, runtime.Config{Workers: 4}, Config{Seed: 5, Stall: 0.05, StallFor: 16})
	if ct.Stats().Stalls.Load() == 0 {
		t.Fatal("stall mix injected nothing")
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Everything at once: transport faults plus transient handler panics, with
// retries absorbing the panics so the run still converges and verifies.
func TestSoakCombined(t *testing.T) {
	w := NewFaulty(soakWorkload(t), FaultyConfig{PanicEvery: 13, FailAttempts: 1})
	e, ct := soak(t, w,
		runtime.Config{Workers: 4, Retry: runtime.RetryPolicy{MaxAttempts: 3}},
		DefaultMix(6))
	st := ct.Stats()
	if st.DelayedBatches.Load()+st.Duplicates.Load()+st.Reordered.Load()+
		st.Rejected.Load()+st.Stalls.Load() == 0 {
		t.Fatal("combined mix injected nothing")
	}
	if w.Panics() == 0 {
		t.Fatal("no handler panics injected")
	}
	if q := e.Quarantined(); len(q) != 0 {
		t.Fatalf("transient faults quarantined %d tasks", len(q))
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// The PR-5 queue matrix: the full fault mix over each local-queue shape
// with batched dequeue, so delayed/duplicated/reordered deliveries hammer
// every queue kind's push/pop paths while the ledger is checked at every
// quiescent point.
func TestSoakQueueKinds(t *testing.T) {
	for _, kind := range runtime.QueueKinds() {
		t.Run(kind, func(t *testing.T) {
			w := soakWorkload(t)
			_, ct := soak(t, w, runtime.Config{
				Workers:   4,
				QueueKind: kind,
				BatchK:    4,
			}, DefaultMix(7))
			st := ct.Stats()
			if st.DelayedBatches.Load()+st.Duplicates.Load()+st.Reordered.Load()+
				st.Rejected.Load()+st.Stalls.Load() == 0 {
				t.Fatal("mix injected nothing")
			}
			if err := w.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Poison mix: faults outlive the retry budget, so tasks quarantine — the
// run is lossy by design, but the ledger must account for every loss and
// Drain must still terminate.
func TestSoakQuarantine(t *testing.T) {
	w := NewFaulty(soakWorkload(t), FaultyConfig{PanicEvery: 29, FailAttempts: 1 << 30})
	e, _ := soak(t, w,
		runtime.Config{Workers: 4, Retry: runtime.RetryPolicy{MaxAttempts: 2}},
		DefaultMix(7))
	if len(e.Quarantined()) == 0 {
		t.Fatal("poison mix quarantined nothing")
	}
	// No Verify: quarantined relaxations may legitimately change the answer.
	// The soak's Quiescent checks already proved no task left the ledger.
}

// pauseMarker tags the task that blocks its worker mid-drain.
const pauseMarker = ^uint64(0)

// pausing intercepts marker tasks to block the processing worker on a gate;
// everything else delegates to the embedded workload.
type pausing struct {
	workload.Workload
	gate    chan struct{}
	started chan struct{}
}

func (p *pausing) Process(t task.Task, emit func(task.Task)) int {
	if t.Data == pauseMarker {
		p.started <- struct{}{}
		<-p.gate
		return 0
	}
	return p.Workload.Process(t, emit)
}

// Satellite regression soak: pause a random worker mid-drain (a task that
// blocks inside its handler) while new work races the park/wake handshake,
// then release it. Drain must always return — no lost wakeup, no stranded
// outstanding count — and the ledger must balance every round.
func TestSoakWorkerPauseMidDrain(t *testing.T) {
	inner := soakWorkload(t)
	p := &pausing{Workload: inner, started: make(chan struct{}, 1)}
	e, _ := Engine(p, runtime.Config{Workers: 4, StallTimeout: 30 * time.Second},
		Config{Seed: 8, Stall: 0.02, StallFor: 8})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var chk Checker
	for round := 0; round < soakRounds(); round++ {
		p.gate = make(chan struct{})
		// The pause task's node varies per round so the blocked worker does.
		pause := task.Task{Node: graph.NodeID(round), Prio: 0, Data: pauseMarker}
		if err := e.Submit(append(inner.InitialTasks(), pause)...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		<-p.started // a worker is now wedged mid-drain
		done := make(chan error, 1)
		go func() { done <- e.Drain(testCtx(t)) }()
		// Race fresh submissions against parking workers while one worker is
		// paused: the lost-wakeup window, if it existed, is here.
		for i := 0; i < 8; i++ {
			if err := e.Submit(inner.InitialTasks()...); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			time.Sleep(time.Millisecond)
		}
		close(p.gate)
		if err := <-done; err != nil {
			t.Fatalf("round %d: Drain = %v (lost wakeup?)", round, err)
		}
		if err := chk.Quiescent(e.Snapshot()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if err := inner.Verify(); err != nil {
		t.Fatal(err)
	}
}
