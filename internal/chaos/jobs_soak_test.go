package chaos

// Multi-tenant soaks: several jobs share one engine while the transport
// injects faults, and one tenant is cancelled mid-drain (or starved by its
// admission quota). The invariant checker must keep every surviving
// tenant's ledger exact — cancellation and quota rejection are per-job
// events that must never leak into a neighbour's accounting.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hdcps/internal/runtime"
	"hdcps/internal/workload"
)

// TestSoakMultiJobCancelUnderChaos cancels one tenant mid-drain every round
// while delayed, duplicated, and reordered deliveries are in flight, with
// two keeper tenants running throughout. Cancelled tasks land in the
// victim's Cancelled sink (never a keeper's), the global + per-job ledgers
// balance at every quiescent point, and both keepers' answers verify after
// all rounds — the victim's teardown must not cost a neighbour one task.
func TestSoakMultiJobCancelUnderChaos(t *testing.T) {
	keeperA := soakWorkload(t)
	keeperB := soakWorkload(t)
	rcfg := soakConfig()
	rcfg.DefaultJob = runtime.JobConfig{Name: "keeper-a", Weight: 2}
	e, st := Engine(keeperA, rcfg, Config{Seed: 11, Delay: 0.2, DelayTurns: 4, Duplicate: 0.1, Reorder: 0.5})
	ja := e.DefaultJob()
	jb, err := e.NewJob(keeperB, runtime.JobConfig{Name: "keeper-b", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var chk Checker
	var cancelledTotal int64
	for round := 0; round < soakRounds(); round++ {
		// A fresh victim per round: jobs are terminal once cancelled, and
		// NewJob while the fleet runs is part of the contract under test.
		victimW := soakWorkload(t)
		victim, err := e.NewJob(victimW, runtime.JobConfig{Name: fmt.Sprintf("victim-%d", round), Weight: 4})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := ja.Submit(keeperA.InitialTasks()...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := jb.Submit(keeperB.InitialTasks()...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := victim.Submit(victimW.InitialTasks()...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		done := make(chan error, 1)
		go func() { done <- e.Drain(testCtx(t)) }()
		// Cancel once the victim has visibly started, so its frontier (and
		// the transport's delayed batches) hold in-flight victim tasks.
		for victim.Snapshot().Processed == 0 {
			if err := chk.Live(e.Snapshot()); err != nil {
				t.Fatalf("round %d (live): %v", round, err)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if err := victim.Cancel(testCtx(t)); err != nil {
			t.Fatalf("round %d: Cancel = %v", round, err)
		}
		if err := victim.Submit(victimW.InitialTasks()...); !errors.Is(err, runtime.ErrJobCancelled) {
			t.Fatalf("round %d: post-cancel Submit = %v, want ErrJobCancelled", round, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("round %d: Drain = %v", round, err)
		}
		if err := chk.Quiescent(e.Snapshot()); err != nil {
			t.Fatalf("round %d (quiescent): %v", round, err)
		}
		vs := victim.Snapshot()
		if !vs.Cancelled {
			t.Fatalf("round %d: victim not marked cancelled", round)
		}
		cancelledTotal += vs.CancelledTasks
		for name, js := range map[string]runtime.JobStats{"keeper-a": ja.Snapshot(), "keeper-b": jb.Snapshot()} {
			if js.CancelledTasks != 0 {
				t.Fatalf("round %d: %s lost %d tasks to a neighbour's cancel", round, name, js.CancelledTasks)
			}
			if js.Outstanding != 0 {
				t.Fatalf("round %d: %s still has %d outstanding after Drain", round, name, js.Outstanding)
			}
		}
		verifyAll(t, round, map[string]workload.Workload{"keeper-a": keeperA, "keeper-b": keeperB})
	}
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if st.DelayedBatches.Load()+st.Duplicates.Load()+st.Reordered.Load() == 0 {
		t.Fatal("fault mix injected nothing")
	}
	if cancelledTotal == 0 {
		t.Fatal("no victim task was ever discarded mid-flight; cancel raced nothing")
	}
}

// verifyAll checks every named tenant's answer at a quiescent checkpoint.
func verifyAll(t *testing.T, round int, ws map[string]workload.Workload) {
	t.Helper()
	for name, w := range ws {
		if err := w.Verify(); err != nil {
			t.Fatalf("round %d: %s: %v", round, name, err)
		}
	}
}

// TestSoakMultiJobQuota runs a bulk tenant against a quota-capped tenant
// under the full fault mix with skewed weights. Submissions past the cap
// are refused whole with a *QuotaError and stay out of the ledger (the
// QuotaRejected counter is bookkeeping, not a conservation term), admitted
// work drains exactly, and both tenants verify.
func TestSoakMultiJobQuota(t *testing.T) {
	bulk := soakWorkload(t)
	rcfg := soakConfig()
	rcfg.DefaultJob = runtime.JobConfig{Name: "bulk", Weight: 4}
	e, st := Engine(bulk, rcfg, DefaultMix(12))
	jBulk := e.DefaultJob()
	capped := soakWorkload(t)
	jCap, err := e.NewJob(capped, runtime.JobConfig{Name: "capped", Weight: 1, MaxOutstanding: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var chk Checker
	var rejections int
	for round := 0; round < soakRounds(); round++ {
		if err := jBulk.Submit(bulk.InitialTasks()...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Hammer the capped job's admission gate: the first Submit seeds its
		// frontier, whose spawned children (quota-exempt by design) push
		// Outstanding past the cap, so later Submits in the same burst must
		// bounce with *QuotaError until the frontier drains back under it.
		for i := 0; i < 200; i++ {
			err := jCap.Submit(capped.InitialTasks()...)
			if err == nil {
				continue
			}
			var qe *runtime.QuotaError
			if !errors.As(err, &qe) {
				t.Fatalf("round %d: Submit = %v, want *QuotaError", round, err)
			}
			if qe.Limit != 8 || qe.Name != "capped" {
				t.Fatalf("round %d: QuotaError %+v, want limit 8 on capped", round, qe)
			}
			rejections++
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
		verifyAll(t, round, map[string]workload.Workload{"bulk": bulk, "capped": capped})
	}
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if rejections == 0 {
		t.Fatal("quota never rejected a burst; admission control untested")
	}
	cs := jCap.Snapshot()
	if cs.QuotaRejected == 0 {
		t.Fatal("QuotaRejected counter stayed zero despite rejections")
	}
	if got := jBulk.Snapshot().QuotaRejected; got != 0 {
		t.Fatalf("unlimited bulk job recorded %d quota rejections", got)
	}
	if faultCount(st) == 0 {
		t.Fatal("fault mix injected nothing")
	}
}
