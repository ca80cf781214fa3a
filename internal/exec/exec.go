// Package exec is the unified executor registry: every way this repository
// can execute a workload to completion — each simulated scheduler from
// internal/sched and the native goroutine runtime from internal/runtime —
// resolved by one name lookup and run through one interface. Callers
// (cmd/hdcps-run, the experiment harness, the public facade) no longer need
// to know whether a name denotes a cycle-accurate simulation or a real
// goroutine fleet.
package exec

import (
	"fmt"
	"time"

	"hdcps/internal/chaos"
	"hdcps/internal/runtime"
	"hdcps/internal/sched"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
	"hdcps/internal/workload"
)

// NativeName is the registry name of the goroutine-based native runtime.
const NativeName = "native"

// Spec is the executor-independent run specification. Zero values select
// each executor's defaults.
type Spec struct {
	// Cores is the simulated core count or the native worker count
	// (0 → 40 simulated cores, 4 native workers — the historical defaults).
	Cores int
	// Seed drives destination selection (native) and simulator randomness.
	Seed uint64
	// Hardware selects the Table I machine for simulated executors
	// (hRQ/hPQ enabled); ignored by the native executor.
	Hardware bool
	// Machine fully overrides the simulated machine configuration;
	// Cores/Hardware are ignored when set. Simulated executors only.
	Machine *sim.Config
	// Native fully overrides the native runtime configuration; Cores is
	// ignored when set (Seed still applies if Native.Seed is zero).
	// Native and native-chaos executors only.
	Native *runtime.Config
	// Chaos selects the fault mix for the native-chaos executor
	// (nil → chaos.DefaultMix(Seed)). Ignored by every other executor.
	Chaos *chaos.Config
}

// Executor runs a workload to completion and reports the shared metrics
// vocabulary. Implementations reset the workload before running it.
type Executor interface {
	// Name returns the registry name the executor resolves under.
	Name() string
	// Run executes w with spec and returns the run's metrics.
	Run(w workload.Workload, spec Spec) stats.Run
}

// ByName resolves an executor: NativeName for the goroutine runtime,
// ChaosName for the fault-injected runtime, or any scheduler name
// sched.ByName accepts for a simulated run.
func ByName(name string) (Executor, error) {
	switch name {
	case NativeName:
		return nativeExecutor{}, nil
	case ChaosName:
		return chaosExecutor{}, nil
	}
	s, err := sched.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("exec: unknown executor %q (simulated: %v; native: %q, %q)",
			name, sched.Names(), NativeName, ChaosName)
	}
	return simExecutor{s}, nil
}

// Names lists every registered executor: the simulated schedulers in their
// usual order, then the native runtime and its chaos variant.
func Names() []string {
	return append(sched.Names(), NativeName, ChaosName)
}

// simExecutor adapts a sched.Scheduler to the Executor contract.
type simExecutor struct{ s sched.Scheduler }

func (x simExecutor) Name() string { return x.s.Name() }

func (x simExecutor) Run(w workload.Workload, spec Spec) stats.Run {
	cfg := x.machine(spec)
	return x.s.Run(w, cfg, spec.Seed)
}

func (x simExecutor) machine(spec Spec) sim.Config {
	if spec.Machine != nil {
		return *spec.Machine
	}
	if spec.Hardware {
		cfg := sim.DefaultHW()
		if spec.Cores > 0 {
			cfg.Cores = spec.Cores
		}
		return cfg
	}
	cores := spec.Cores
	if cores <= 0 {
		cores = 40
	}
	return sim.DefaultSW(cores)
}

// nativeExecutor adapts the goroutine runtime to the Executor contract.
type nativeExecutor struct{}

func (nativeExecutor) Name() string { return NativeName }

func (nativeExecutor) Run(w workload.Workload, spec Spec) stats.Run {
	cfg := nativeConfig(spec)
	res := runtime.Run(w, cfg)
	return nativeStats("native-hdcps", w, cfg.Workers, res.Elapsed, res)
}

// nativeConfig resolves spec into a native runtime config: Spec.Native when
// set, the paper-tuned defaults otherwise, four workers when neither says.
func nativeConfig(spec Spec) runtime.Config {
	var cfg runtime.Config
	if spec.Native != nil {
		cfg = *spec.Native
	} else {
		cfg = runtime.DefaultConfig(spec.Cores)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = spec.Seed
	}
	return cfg
}

// nativeStats adapts a native run's Result into the stats.Run vocabulary
// shared with the simulator (completion time in nanoseconds).
func nativeStats(scheduler string, w workload.Workload, workers int, elapsed time.Duration, res runtime.Result) stats.Run {
	return stats.Run{
		Scheduler:      scheduler,
		Workload:       w.Name(),
		Input:          w.Graph().Name,
		Cores:          workers,
		CompletionTime: elapsed.Nanoseconds(),
		TasksProcessed: res.TasksProcessed,
		BagsCreated:    res.BagsCreated,
		BaggedTasks:    res.BaggedTasks,
		EdgesExamined:  res.EdgesExamined,
		DriftTrace:     res.DriftTrace,
		RefTrace:       res.RefTrace,
		TDFTrace:       res.TDFTrace,
		DriftClamped:   res.DriftClamped,
	}
}
