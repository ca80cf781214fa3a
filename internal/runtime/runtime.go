// Package runtime is the native (goroutine-based) HD-CPS implementation:
// the same scheduler design the simulator models — per-worker receive rings
// (§III-A), a private priority queue per worker, adaptive bags (§III-B),
// and the drift-feedback TDF controller (§III-C) — running on real threads
// against real memory. It is the library a downstream Go user adopts, and
// it is the "real machine" side of the paper's simulator-correlation
// experiment (Fig. 10).
//
// One file per unit, each testable on its own. The mechanism layers, each a
// small type of its own:
//
//   - transport.go — ringTransport: the inter-worker task-transfer fabric
//     (MPSC ring + lock-free Treiber overflow + per-destination batching),
//     with FaultHook, the seam fault injection plugs into;
//   - localq.go — LocalQueue: the per-worker private priority queue;
//   - payload.go — payloadStore: the pull-transport bag-payload store;
//   - control.go — controlPlane: drift reporting and TDF propagation.
//
// The scheduling units a worker composes, none of which knows the others:
//
//   - jobsched.go — jobSched: which job's queue a worker pops next
//     (deficit round robin over the tenants; no goroutine, no atomics);
//   - place.go — place: where a spawned unit goes (the frontier-width gate
//     and the TDF draw), a pure function;
//   - ledger.go — ledger: what the tasks a worker ran did to the
//     conservation ledger, recorded once per event and settled before any
//     task can reach another worker;
//   - steal.go — steal-when-behind: the cycle-start section a worker runs
//     under its queue lock, the fronts it publishes, and the steal a worker
//     that popped stale work makes from a peer holding better tasks;
//   - worker.go — the worker loop that is left: receive, pop a batch, run
//     each task, place its children.
//
// And the engine around them: engine.go (job.go, fault.go) is the long-lived
// fleet's lifecycle — NewEngine / Start / Submit / Drain / Stop with
// epoch-aware termination, tenants, and the failure model; snapshot.go is
// the read side (Snapshot, ControlTrace, WriteTrace). A one-shot solve is
// that lifecycle too, run to a checked finish by exec.RunJobs.
//
// The hot paths follow the levers that "Engineering MultiQueues" and
// Wimmer et al. identify for this scheduler shape: remote children are
// accumulated per destination and flushed with one CAS per batch
// (rq.TryPushBatch); a full ring spills to a lock-free Treiber stack
// instead of a mutex; bag payloads live in a per-worker store addressed by
// the metadata (no global hash map bouncing between cores); the private
// queue is a ring of per-priority FIFO buckets by default (no comparison on
// push or pop); and idle workers back off spin → Gosched → sleep instead of
// burning the scheduler.
package runtime

import (
	stdruntime "runtime"
	"time"

	"hdcps/internal/bag"
	"hdcps/internal/drift"
	"hdcps/internal/obs"
)

// Config configures a native engine.
type Config struct {
	// Workers is the number of worker goroutines (default 4).
	Workers int
	// RingSize is the per-worker receive ring capacity (default 256).
	RingSize int
	// Bags selects the bag policy (default: the paper's selective policy).
	Bags bag.Policy
	// UseTDF enables the adaptive controller; FixedTDF applies otherwise
	// (drift is measured and recorded either way).
	UseTDF   bool
	FixedTDF int
	// Drift configures the controller: start, step, range and report
	// spacing. The native controller is drift.Controller.Climb.
	Drift drift.Config
	// Seed makes destination selection reproducible per worker.
	Seed uint64

	// QueueKind selects the per-worker local queue shape: QueueTwoLevel
	// (the default — a ring of per-priority FIFO buckets, falling back to a
	// 4-ary heap when the resident priority span outgrows it), QueueDHeap
	// (a 4-ary heap), QueueHeap (a classic binary heap), or QueueMultiQueue
	// (the relaxed shared MultiQueue: 4·P try-locked shards, pick-2
	// delete-min, a shard pair kept for 8 operations, bounded priority
	// inversion). Unknown values select the default.
	QueueKind string
	// Faults, when non-nil, is consulted by the ring transport at every Send
	// and every drain of a receive side: fault injection (internal/chaos),
	// or a test watching what crosses the transport. Nil in production.
	Faults FaultHook

	// Obs, when non-nil, enables the observability layer: the engine keeps
	// its counters in the recorder's rows instead of rows of its own, and
	// every runtime layer records sampled task, spill, park and control
	// events into it. A nil recorder costs the hot path one predictable
	// branch per event site; the counters count either way. Size it for this
	// engine's Workers (obs.New(obs.Config{Workers: n})): a worker past the
	// recorder's rows keeps its counters in a row of its own, which the
	// engine's views read but the recorder's totals do not. A recorder serves
	// one engine: a second engine on it would count into the first one's
	// rows, and neither ledger would balance.
	Obs *obs.Recorder

	// DefaultJob parameterizes job 0, the tenant the engine is constructed
	// over (name, fair-share weight, quota, TDF bias). The zero value keeps
	// the historical single-tenant behavior: weight 1, no quota, neutral
	// bias. Further tenants are registered with Engine.NewJob.
	DefaultJob JobConfig
	// OverflowCap bounds each transport endpoint's overflow stack, in
	// tasks. A saturated destination (full ring AND full overflow) bounces
	// further worker sends back to the sender, which keeps them in its own
	// local queue (Snapshot.Redirects counts these). 0 (or less) defaults to
	// 4096. Inject (Submit) is never bounded.
	OverflowCap int
	// StallTimeout arms Drain's liveness watchdog: if the engine makes no
	// progress (no task retired, no quarantine, no new submission) for this
	// long while work is still outstanding, Drain returns a *StallError
	// with per-worker diagnostics instead of blocking forever. 0 disables
	// the watchdog (Drain then bounds its wait with ctx alone).
	StallTimeout time.Duration
}

// Values nothing sets apart from their defaults, so constants and not knobs.
// heapArity is the branching factor of the dheap kind and of the twolevel
// queue's fallback heap: 4 keeps a node's children within a cache line.
// sendBatch is the transport's per-destination buffer: remote children
// accumulate until that many are ready, then ship with one claim-CAS
// (rq.TryPushBatch). idleSleep is an idle worker's sleep once idleSpin()
// empty polls and as many yields found no work. batchK is the worker loop's
// dequeue batch: up to that many tasks are popped and processed back to back,
// letting the loop prefetch the next task's CSR row and amortize the
// per-iteration stop/recv/flush checks, at the cost of bounded extra
// relaxation (a child of batch[i] cannot preempt the rest of the batch); the
// dispatch gate keeps a unit local while its queue holds fewer. flushInterval
// bounds batching staleness: after that many processed tasks every partial
// send buffer is flushed (a worker that goes idle flushes at once).
const (
	heapArity     = 4
	sendBatch     = 16
	idleSleep     = 50 * time.Microsecond
	batchK        = 8
	flushInterval = 32
)

// idleSpin is how many empty polls an idle worker performs before it starts
// yielding, and how many yields before it sleeps. Spinning only pays when a
// producer can run concurrently; on a single P an idle worker's spin just
// steals the producer's CPU, so it yields almost immediately instead.
func idleSpin() int {
	if stdruntime.GOMAXPROCS(0) == 1 {
		return 4
	}
	return 64
}

// defaultWorkers is the fleet size an unset Config.Workers selects.
const defaultWorkers = 4

// withDefaults fills unset knobs with the paper-tuned values.
func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = defaultWorkers
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	if cfg.Bags.Mode != bag.Never && cfg.Bags.MaxSize == 0 {
		cfg.Bags = bag.DefaultPolicy()
	}
	if cfg.QueueKind == "" {
		cfg.QueueKind = QueueTwoLevel
	}
	if cfg.OverflowCap <= 0 {
		cfg.OverflowCap = 4096
	}
	return cfg
}

// DefaultConfig returns the paper-tuned native configuration; workers <= 0
// selects the default fleet of 4.
func DefaultConfig(workers int) Config {
	if workers <= 0 {
		workers = defaultWorkers
	}
	return Config{
		Workers:  workers,
		RingSize: 256,
		Bags:     bag.DefaultPolicy(),
		UseTDF:   true,
	}
}
