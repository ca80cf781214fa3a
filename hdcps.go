// Package hdcps is a Go reproduction of "HD-CPS: Hardware-assisted
// Drift-aware Concurrent Priority Scheduler for Shared Memory Multicores"
// (Shan & Khan, HPCA 2022).
//
// It provides, as one library:
//
//   - a native goroutine-based HD-CPS runtime (per-worker receive rings,
//     adaptive bags, drift-feedback TDF) for running task-parallel graph
//     algorithms on real machines — see RunNative;
//   - a deterministic multicore simulator and every concurrent priority
//     scheduler the paper evaluates (RELD, OBIM, PMOD, Minnow in software
//     and hardware form, Swarm, and all HD-CPS configurations) — see
//     NewScheduler and RunSim;
//   - the paper's six task-parallel graph workloads (SSSP, A*, BFS, MST,
//     graph coloring, PageRank) with sequential references and verifiers —
//     see NewWorkload;
//   - graph generators and loaders — see the Road/Cage/Web/LJ/Grid
//     functions and ReadDIMACS/ReadSNAP;
//   - the full experiment harness regenerating every table and figure of
//     the paper's evaluation — see RunExperiment and Experiments.
//
// The architecture and every modeling substitution are documented in
// DESIGN.md; per-experiment paper-vs-measured results live in
// EXPERIMENTS.md.
package hdcps

import (
	"io"

	"hdcps/internal/chaos"
	"hdcps/internal/drift"
	"hdcps/internal/exec"
	"hdcps/internal/exp"
	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/sched"
	"hdcps/internal/sim"
	"hdcps/internal/stats"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// Core re-exported types. The aliases make the internal packages' types part
// of the public API without duplicating their documentation.
type (
	// Graph is a directed weighted graph in CSR form.
	Graph = graph.CSR
	// Task is the unit of scheduled work: a node, a priority (lower is
	// more urgent), and a workload-defined payload.
	Task = task.Task
	// Workload is a task-parallel graph algorithm instance.
	Workload = workload.Workload
	// Scheduler executes a workload on the simulated multicore.
	Scheduler = sched.Scheduler
	// MachineConfig parameterizes the simulated multicore.
	MachineConfig = sim.Config
	// Run is the metrics record of one execution.
	Run = stats.Run
	// NativeConfig parameterizes the goroutine runtime. Its zero value (with
	// Workers set) is DefaultNativeConfig: selective bags under the adaptive
	// TDF controller; a fixed TDF t is Drift{MinTDF: t, MaxTDF: t}.
	NativeConfig = runtime.Config
	// Engine is the long-lived native runtime: a worker fleet with a
	// Start / Submit / Drain / Stop lifecycle that accepts work while
	// running and exposes Snapshot for mid-run visibility.
	Engine = runtime.Engine
	// EngineSnapshot is a point-in-time view of a running Engine.
	EngineSnapshot = runtime.Snapshot
	// Job is a tenant handle on a multi-job Engine: its own Submit / Drain /
	// Cancel / Snapshot lifecycle scoped to one workload, with weighted fair
	// scheduling against the other tenants (Engine.NewJob, Engine.DefaultJob).
	Job = runtime.Job
	// JobID is the tenant identity carried by Task.Job (0 is the engine's
	// default job).
	JobID = task.JobID
	// JobConfig parameterizes one tenant: name, fair-share weight and
	// admission quota. Every tenant dispatches under the engine's one
	// adaptive TDF.
	JobConfig = runtime.JobConfig
	// JobStats is one job's conservation-ledger row (Job.Snapshot,
	// EngineSnapshot.Jobs).
	JobStats = runtime.JobStats
	// QuotaError is the admission-control rejection returned when a Submit
	// would push a job past JobConfig.MaxOutstanding.
	QuotaError = runtime.QuotaError
	// QuarantinedTask records a task whose handler panicked, retired into
	// quarantine on that first panic: the task, its panic value, and the
	// worker that caught it (Engine.Quarantined).
	QuarantinedTask = runtime.QuarantinedTask
	// StallError is the diagnostic returned when Drain or Stop gives up —
	// deadline, cancellation, or no ledger progress for
	// NativeConfig.StallTimeout — carrying the engine's snapshot (and the
	// blocking job's ledger row for a job-scoped wait) needed to tell a
	// livelock from a slow handler.
	StallError = runtime.StallError
	// ChaosConfig is the fault-injection mix a hook on the engine's ring
	// transport applies: per-turn probabilities for delay, duplication,
	// reorder, ring-full rejection, and worker stalls, under one
	// deterministic seed.
	ChaosConfig = chaos.Config
	// Recorder is the native runtime's observability collector: per-worker
	// lock-free counters plus ring-buffered event traces. Attach one via
	// NativeConfig.Obs (see NewRecorder); a nil recorder costs the hot path
	// a single predictable branch.
	Recorder = obs.Recorder
	// RecorderConfig sizes a Recorder (workers, trace ring, task sampling).
	RecorderConfig = obs.Config
	// ObsEvent is one entry of a Recorder's trace.
	ObsEvent = obs.Event
	// ControlPoint is one interval of the control plane's time series:
	// measured drift, reference priority, and the TDF chosen next.
	ControlPoint = obs.ControlPoint
	// DriftConfig holds the TDF controller tunables (§III-C).
	DriftConfig = drift.Config
	// ExperimentOptions control table/figure regeneration.
	ExperimentOptions = exp.Options
	// ExperimentResult is a regenerated table/figure.
	ExperimentResult = exp.Result
)

// Graph construction.
var (
	// Road generates a road-network-like graph (rUSA stand-in).
	Road = graph.Road
	// Cage generates a banded quasi-regular graph (CAGE14 stand-in).
	Cage = graph.Cage
	// Web generates a power-law web graph (web-Google stand-in).
	Web = graph.Web
	// LJ generates a denser power-law graph (LiveJournal stand-in).
	LJ = graph.LJ
	// Grid generates a weighted lattice with coordinates (A* input).
	Grid = graph.Grid
	// ReadDIMACS parses a DIMACS shortest-path ".gr" file.
	ReadDIMACS = graph.ReadDIMACS
	// ReadSNAP parses a SNAP whitespace edge list.
	ReadSNAP = graph.ReadSNAP
	// ReadMatrixMarket parses MatrixMarket coordinate matrices (the
	// SuiteSparse collection's format, used by the paper's CAGE14 input).
	ReadMatrixMarket = graph.ReadMatrixMarket
	// WriteDIMACS writes a graph in DIMACS ".gr" format.
	WriteDIMACS = graph.WriteDIMACS
)

// NewWorkload constructs one of the paper's workloads by name: "sssp",
// "astar", "bfs", "mst", "color", or "pagerank".
func NewWorkload(name string, g *Graph) (Workload, error) { return workload.New(name, g) }

// WorkloadNames lists the available workloads in the paper's order.
func WorkloadNames() []string { return workload.Names() }

// NewScheduler returns a scheduler by name: "seq", "reld", "obim", "pmod",
// "swminnow", "hwminnow", "swarm", "hdcps-sw", "hdcps-hw", or an HD-CPS
// ablation variant ("srq", "srq+tdf", "srq+tdf+ac", "hrq").
func NewScheduler(name string) (Scheduler, error) { return sched.ByName(name) }

// SchedulerNames lists the registered scheduler names.
func SchedulerNames() []string { return sched.Names() }

// SoftwareMachine returns the software-mode machine configuration (the
// paper's Xeon-side experiments) with the given core count.
func SoftwareMachine(cores int) MachineConfig { return sim.DefaultSW(cores) }

// HardwareMachine returns the Table I machine: 64 cores, hRQ=32, hPQ=48.
func HardwareMachine() MachineConfig { return sim.DefaultHW() }

// RunSim executes a workload under a scheduler on the simulated machine and
// returns its metrics. The same (workload, config, seed) always produces
// identical results.
func RunSim(s Scheduler, w Workload, cfg MachineConfig, seed uint64) Run {
	return s.Run(w, cfg, seed)
}

// SequentialTasks runs the strict-priority sequential baseline on a fresh
// clone of w and returns its task count (the work-efficiency denominator).
func SequentialTasks(w Workload) int64 { return workload.RunSequential(w.Clone()) }

// RunNative executes a workload to completion on the goroutine-based HD-CPS
// runtime (one-shot; for a long-lived service use NewEngine) and returns the
// same metrics record RunSim does, with CompletionTime in nanoseconds. A
// refused seed (cfg.DefaultJob's quota), a drain that stalls, or a
// conservation-ledger violation is its error; the answer is only to be
// trusted without one.
func RunNative(w Workload, cfg NativeConfig) (Run, error) {
	r, rep, err := exec.RunJobs([]Workload{w}, []JobConfig{cfg.DefaultJob}, exec.Spec{Native: &cfg})
	if err != nil {
		return r, err
	}
	return r, rep.Err()
}

// NewEngine builds a long-lived native runtime over w. Call Start, then
// Submit work (streaming is fine), Drain to wait for quiescence, and Stop
// to shut the fleet down; Snapshot reads live counters at any point. For a
// multi-tenant fleet register further workloads with Engine.NewJob — w is
// job 0, the default tenant.
func NewEngine(w Workload, cfg NativeConfig) *Engine { return runtime.NewEngine(w, cfg) }

// ErrJobCancelled is returned by Job.Submit once the job has been cancelled.
var ErrJobCancelled = runtime.ErrJobCancelled

// DefaultNativeConfig returns the paper-tuned native configuration for the
// given worker count.
func DefaultNativeConfig(workers int) NativeConfig { return runtime.DefaultConfig(workers) }

// QueueKinds lists the valid NativeConfig.QueueKind values: the per-worker
// local-queue shapes of the native runtime ("heap", "dheap", "twolevel",
// and the relaxed shared "multiqueue").
func QueueKinds() []string { return runtime.QueueKinds() }

// NewChaosEngine builds an Engine whose transport injects faults from the
// given mix (see ChaosConfig; chaos.DefaultMix gives the stock mix) through
// a hook on its one ring transport: the engine is otherwise the production
// one. The returned Stats count the injected faults. Use it with
// chaos.Checker to assert the no-task-loss and termination invariants
// under fault; DESIGN.md §11 documents the failure model.
func NewChaosEngine(w Workload, cfg NativeConfig, mix ChaosConfig) (*Engine, *chaos.Stats) {
	return chaos.Engine(w, cfg, mix)
}

// NewRecorder builds an observability recorder. Set it as
// NativeConfig.Obs before constructing the engine; read it back during or
// after the run (Engine.Obs, Recorder.Counters/Events/WriteJSONL/Handler).
func NewRecorder(cfg RecorderConfig) *Recorder { return obs.New(cfg) }

// Experiments lists the regenerable tables and figures ("table1", "table2",
// "fig3" ... "fig15") plus the §II ordering-spectrum extension
// ("motivation").
func Experiments() []string { return exp.IDs() }

// RunExperiment regenerates one of the paper's tables or figures and
// writes its formatted output to w (pass nil to skip printing).
func RunExperiment(id string, opts ExperimentOptions, w io.Writer) (ExperimentResult, error) {
	e, ok := exp.Get(id)
	if !ok {
		return ExperimentResult{}, errUnknownExperiment(id)
	}
	res, err := e.Run(opts)
	if err != nil {
		return res, err
	}
	if w != nil {
		res.Format(w)
	}
	return res, nil
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "hdcps: unknown experiment " + string(e) + " (see Experiments())"
}
