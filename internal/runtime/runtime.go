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
//   - place.go — place: where a spawned unit goes (the frontier-width gate,
//     the TDF draw, and the worker owning the unit's node), a pure function;
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
// outstanding-count termination, tenants, and the failure model; snapshot.go
// is the read side (Snapshot, ControlTrace, WriteTrace). A one-shot solve is
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

	"hdcps/internal/drift"
	"hdcps/internal/obs"
)

// Config configures a native engine. Its zero value is the engine
// production runs: the paper's selective bags (§III-B) under the adaptive
// TDF controller (§III-C), on DefaultConfig's fleet of 4 workers. A fixed TDF
// t is the one-point range Drift{MinTDF: t, MaxTDF: t}.
type Config struct {
	// Workers is the number of worker goroutines (default 4).
	Workers int
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
	// inversion). NewEngine runs the default for a value it does not know;
	// input from outside goes through CheckQueueKind first.
	QueueKind string
	// Faults, when non-nil, is consulted by the ring transport at every Send
	// and every drain of a receive side: fault injection (internal/chaos),
	// or a test watching what crosses the transport. Nil in production.
	Faults FaultHook

	// Obs, when non-nil, enables the event trace: every runtime layer records
	// sampled task, spill, park and control events into it, and the engine
	// samples its pops' rank error. A nil recorder costs the hot path one
	// predictable branch per event site. The counters count either way, in
	// the engine's own rows (Snapshot, WriteTrace).
	Obs *obs.Recorder

	// DefaultJob parameterizes job 0, the tenant the engine is constructed
	// over (name, fair-share weight, quota). The zero value keeps the
	// historical single-tenant behavior: weight 1, no quota. Further tenants
	// are registered with Engine.NewJob.
	DefaultJob JobConfig
	// StallTimeout arms Drain's liveness watchdog: if the engine makes no
	// progress (no task retired, no quarantine, no new submission) for this
	// long while work is still outstanding, Drain returns a *StallError
	// with per-worker diagnostics instead of blocking forever. 0 disables
	// the watchdog (Drain then bounds its wait with ctx alone).
	StallTimeout time.Duration
}

// Values nothing sets apart from their defaults, so constants and not knobs.
// ringSize is each worker's receive-ring capacity, and overflowCap bounds the
// tasks worker sends may park in one destination's overflow stack: a
// destination with both full bounces further worker sends back to the
// sender, which keeps them in its own local queue (Snapshot.Redirects counts
// these; Submit is never bounded). heapArity is the branching factor of the
// dheap kind and of the twolevel queue's fallback heap: 4 keeps a node's
// children within a cache line.
// sendBatch is the transport's per-destination buffer: remote children
// accumulate until that many are ready, then ship with one claim-CAS
// (rq.TryPushBatch). idleSleep is an idle worker's sleep once idleSpin()
// empty polls and as many yields found no work. It asks for 50µs and gets
// about a millisecond: on Linux Go's netpoller rounds any timer wait under
// 1 ms up to 1 ms (runtime/netpoll_epoll.go): 2,000 sleeps on a 2-vCPU VM
// (go1.24) took 1.06 ms at the median, and 1.4-8.2 ms at the p99 as the
// other CPU got busier. So a worker that got that far checks for work about
// once a millisecond; yielding instead of sleeping measured no faster on the
// sssp-road or pagerank-web benchmarks. batchK is the worker loop's
// dequeue batch: up to that many tasks are popped and processed back to back,
// letting the loop prefetch the next task's CSR row and amortize the
// per-iteration stop/recv/flush checks, at the cost of bounded extra
// relaxation (a child of batch[i] cannot preempt the rest of the batch); the
// dispatch gate keeps a unit local while its queue holds fewer. flushInterval
// bounds batching staleness: after that many processed tasks every partial
// send buffer is flushed (a worker that goes idle flushes at once).
const (
	ringSize      = 256
	overflowCap   = 4096
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
	if cfg.QueueKind == "" {
		cfg.QueueKind = QueueTwoLevel
	}
	return cfg
}

// DefaultConfig returns the paper-tuned native configuration, which is the
// zero Config with the fleet size filled in; workers <= 0 selects the default
// fleet of 4.
func DefaultConfig(workers int) Config {
	if workers <= 0 {
		workers = defaultWorkers
	}
	return Config{Workers: workers}
}
