package chaos

// Soak tests: repeated Submit→Drain rounds under every fault mix on the
// default engine (bags on, adaptive TDF, stealing), with the invariant
// checker asserting the conservation ledger and the workload's answer at
// each quiescent checkpoint and race-safe liveness checks while the fleet
// runs. These run under -race in CI (`make chaos`); setting CHAOS_SOAK=1 (the
// nightly knob) lengthens every soak.

import (
	"os"
	stdruntime "runtime"
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

// soakConfig is the engine a soak runs: the default one at four workers, with
// Drain's watchdog armed.
func soakConfig() runtime.Config {
	cfg := runtime.DefaultConfig(4)
	cfg.StallTimeout = 30 * time.Second
	return cfg
}

// soak drives one workload through rounds of Submit→Drain under the mix,
// checking liveness invariants mid-drain, and the conservation ledger and —
// unless a task was quarantined, which may change it — the workload's answer
// at every checkpoint. Returns the engine for mix-specific assertions.
func soak(t *testing.T, w workload.Workload, rcfg runtime.Config, ccfg Config) (*runtime.Engine, *Stats) {
	t.Helper()
	e, st := Engine(w, rcfg, ccfg)
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
		if len(e.Quarantined()) == 0 {
			if err := w.Verify(); err != nil {
				t.Fatalf("round %d (verify): %v", round, err)
			}
		}
	}
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	return e, st
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
	_, st := soak(t, soakWorkload(t), soakConfig(), Config{Seed: 1, Delay: 0.2, DelayTurns: 4})
	if st.DelayedBatches.Load() == 0 {
		t.Fatal("delay mix injected nothing")
	}
}

// Workloads tolerate duplicated tasks by contract; the answer must hold.
func TestSoakDuplicate(t *testing.T) {
	_, st := soak(t, soakWorkload(t), soakConfig(), Config{Seed: 2, Duplicate: 0.1})
	if st.Duplicates.Load() == 0 {
		t.Fatal("duplicate mix injected nothing")
	}
}

// TestSoakDuplicateSeeds runs a heavy duplicate mix over forty chaos seeds:
// whichever tasks a seed picks to deliver twice, every round must drain, the
// ledger must balance at each checkpoint and the answer must hold.
func TestSoakDuplicateSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		w := soakWorkload(t)
		rcfg := soakConfig()
		rcfg.StallTimeout = 5 * time.Second
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
			if err := w.Verify(); err != nil {
				t.Fatalf("seed %d round %d: verify: %v", seed, round, err)
			}
		}
		if err := e.Stop(testCtx(t)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSoakReorder(t *testing.T) {
	_, st := soak(t, soakWorkload(t), soakConfig(), Config{Seed: 3, Reorder: 0.5})
	if st.Reordered.Load() == 0 {
		t.Fatal("reorder mix injected nothing")
	}
}

func TestSoakRingFull(t *testing.T) {
	rcfg := soakConfig()
	rcfg.RingSize, rcfg.OverflowCap = 16, 32
	_, st := soak(t, soakWorkload(t), rcfg, Config{Seed: 4, RingFull: 0.2})
	if st.Rejected.Load() == 0 {
		t.Fatal("ringfull mix injected nothing")
	}
}

func TestSoakStall(t *testing.T) {
	_, st := soak(t, soakWorkload(t), soakConfig(), Config{Seed: 5, Stall: 0.05, StallFor: 16})
	if st.Stalls.Load() == 0 {
		t.Fatal("stall mix injected nothing")
	}
}

// Everything at once: transport faults plus transient handler panics, with
// retries absorbing the panics so the run still converges and verifies —
// once as the host runs it, and once with the four workers sharing one P,
// where a worker is descheduled while it holds the best work and the others
// steal it.
func TestSoakCombined(t *testing.T) {
	for _, procs := range []int{0, 1} {
		name := "gomaxprocs-host"
		if procs > 0 {
			name = "gomaxprocs-1"
		}
		t.Run(name, func(t *testing.T) {
			if procs > 0 {
				defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(procs))
			}
			w := NewFaulty(soakWorkload(t), FaultyConfig{PanicEvery: 13, FailAttempts: 1})
			rcfg := soakConfig()
			rcfg.Retry = runtime.RetryPolicy{MaxAttempts: 3}
			e, st := soak(t, w, rcfg, DefaultMix(6))
			if faultCount(st) == 0 {
				t.Fatal("combined mix injected nothing")
			}
			if w.Panics() == 0 {
				t.Fatal("no handler panics injected")
			}
			if q := e.Quarantined(); len(q) != 0 {
				t.Fatalf("transient faults quarantined %d tasks", len(q))
			}
		})
	}
}

// faultCount is every fault a mix injected.
func faultCount(st *Stats) int64 {
	return st.DelayedBatches.Load() + st.Duplicates.Load() + st.Reordered.Load() +
		st.Rejected.Load() + st.Stalls.Load()
}

// The PR-5 queue matrix: the full fault mix over each local-queue shape
// with batched dequeue, so delayed/duplicated/reordered deliveries hammer
// every queue kind's push/pop paths while the ledger is checked at every
// quiescent point.
func TestSoakQueueKinds(t *testing.T) {
	for _, kind := range runtime.QueueKinds() {
		t.Run(kind, func(t *testing.T) {
			rcfg := soakConfig()
			rcfg.QueueKind, rcfg.BatchK = kind, 4
			_, st := soak(t, soakWorkload(t), rcfg, DefaultMix(7))
			if faultCount(st) == 0 {
				t.Fatal("mix injected nothing")
			}
		})
	}
}

// Poison mix: faults outlive the retry budget, so tasks quarantine — the
// run is lossy by design, but the ledger must account for every loss and
// Drain must still terminate.
func TestSoakQuarantine(t *testing.T) {
	w := NewFaulty(soakWorkload(t), FaultyConfig{PanicEvery: 29, FailAttempts: 1 << 30})
	rcfg := soakConfig()
	rcfg.Retry = runtime.RetryPolicy{MaxAttempts: 2}
	e, _ := soak(t, w, rcfg, DefaultMix(7))
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
	e, _ := Engine(p, soakConfig(), Config{Seed: 8, Stall: 0.02, StallFor: 8})
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
		if err := inner.Verify(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
}
