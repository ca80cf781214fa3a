package exec

// The chaos executor: the native runtime behind a fault-injecting transport
// (internal/chaos), registered as "native-chaos". It exists so the CLI and
// the experiment harness can run any workload under a fault mix with one
// name, and get back both the usual metrics vocabulary and a ChaosReport
// with the injected-fault counts, the quarantine list, and the conservation
// verdict.

import (
	"context"
	"time"

	"hdcps/internal/chaos"
	"hdcps/internal/runtime"
	"hdcps/internal/stats"
	"hdcps/internal/workload"
)

// ChaosName is the registry name of the fault-injected native runtime.
const ChaosName = "native-chaos"

// ChaosReport is the fault-side outcome of a chaos run, alongside the
// stats.Run metrics.
type ChaosReport struct {
	// Mix is the fault configuration the run used.
	Mix chaos.Config
	// Faults summarizes the injected-fault counters ("delayed N batches…").
	Faults string
	// Quarantined is the poison-task list (empty unless the workload's
	// handlers panic past the retry budget).
	Quarantined []runtime.QuarantinedTask
	// Snapshot is the engine's final ledger view.
	Snapshot runtime.Snapshot
	// ConservationErr is nil when the no-task-loss invariant held at the
	// final quiescent checkpoint.
	ConservationErr error
	// DrainErr is non-nil when the run did not reach quiescence (a
	// *StallError with per-worker diagnostics).
	DrainErr error
}

// chaosConfig assembles the native runtime config for a chaos run: the same
// resolution as the plain native executor, plus a default stall watchdog so
// a wedged run diagnoses itself instead of hanging the harness.
func chaosConfig(spec Spec) runtime.Config {
	cfg := nativeConfig(spec)
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = 30 * time.Second
	}
	return cfg
}

// RunChaos executes w under spec with the fault mix from spec.Chaos
// (DefaultMix(spec.Seed) when nil) and returns the shared metrics plus the
// chaos report. The run always terminates: quiescence, or a StallError in
// the report's DrainErr.
func RunChaos(w workload.Workload, spec Spec) (stats.Run, *ChaosReport) {
	mix := chaos.DefaultMix(spec.Seed)
	if spec.Chaos != nil {
		mix = *spec.Chaos
	}
	cfg := chaosConfig(spec)

	e, ct := chaos.Engine(w, cfg, mix)
	start := time.Now()
	_ = e.Start()
	_ = e.Submit(w.InitialTasks()...)
	drainErr := e.Drain(context.Background())
	elapsed := time.Since(start)
	_ = e.Stop(context.Background())

	snap := e.Snapshot()
	rep := &ChaosReport{
		Mix:         mix,
		Faults:      ct.Stats().String(),
		Quarantined: e.Quarantined(),
		Snapshot:    snap,
		DrainErr:    drainErr,
	}
	var chk chaos.Checker
	if drainErr == nil {
		rep.ConservationErr = chk.Quiescent(snap)
	} else {
		rep.ConservationErr = chk.Live(snap)
	}

	return nativeStats(ChaosName, w, cfg.Workers, elapsed, e.Result()), rep
}

// chaosExecutor adapts RunChaos to the Executor contract (the report is
// dropped; use RunChaos directly when you need it).
type chaosExecutor struct{}

func (chaosExecutor) Name() string { return ChaosName }

func (chaosExecutor) Run(w workload.Workload, spec Spec) stats.Run {
	r, _ := RunChaos(w, spec)
	return r
}
