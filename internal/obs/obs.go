// Package obs is the native runtime's observability layer: the counter
// vocabulary its engine counts in and ring-buffered event traces that let the
// drift/TDF feedback loop — the paper's whole contribution — be watched
// converging over time instead of inferred from a one-shot snapshot.
//
// The design follows the constraints of the engine's hot path:
//
//   - Counters are named by Counter. The engine owns every count: a worker
//     keeps its own as plain Counts and publishes them into a Row of padded
//     atomics it alone writes, except overflow spills, which a sender adds to
//     the destination worker's row; the engine's external row takes what any
//     submitting goroutine counts. Readers (runtime.Engine.Snapshot and
//     WriteTrace) load the rows at any time. The recorder keeps no counter,
//     and the rows keep no ledger term (those are per job, in the engine).
//   - Events land in a per-worker ring buffer guarded by a per-worker
//     mutex. Events are orders of magnitude rarer than tasks (task events
//     are sampled, the rest mark bag/spill/park/control transitions), so an
//     uncontended lock per event is noise; the ring overwrites the oldest
//     entries, bounding memory for arbitrarily long runs.
//   - The event layer hangs off a nil-able *Recorder. A disabled engine
//     pays exactly one predictable branch per recording site and allocates
//     nothing.
//
// Export path: WriteJSONL streams the meta line, the counters lines of the
// rows it is handed and the recorder's events as one JSON object per line
// (schema documented in the README and export.go); runtime.Engine.WriteTrace
// hands it the engine's rows, appends the job rows and the control series,
// and is what every trace file and the serving front-end's /debug/obs write.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one per-worker metric.
type Counter uint8

// The counter set. A worker's slots are its plain Counts, stored into its Row
// when it publishes (so exact once it has), except COverflowSpills, which
// senders add to; the external row's slots are added to. All are monotone
// event counts but the gauges CQueueFallbacks and CRankErrMax. None is a term
// of the conservation ledger: each job keeps those in rows of its own
// (runtime's jobState), and the trace's job lines carry them.
const (
	CEdgesExamined  Counter = iota // edges touched while processing
	CBagsCreated                   // bags partitioned out of child batches
	CBagsOpened                    // bag payloads unpacked for execution
	COverflowSpills                // full-ring spills landing at this worker
	CIdleParks                     // parks on a quiescent fleet
	CDriftReports                  // Algorithm 3 priority reports sent
	CTDFSteps                      // Algorithm 2 controller updates applied

	// Failure and degradation counters (the paths a chaos run exercises).
	COverflowRedirects // remote sends bounced back local by flow control
	CDriftClamped      // out-of-range priority reports clamped by control
	CWorkerRestarts    // worker loops restarted after an engine-level panic

	// Local-queue counters: the twolevel kind's heap fallbacks, and the tasks
	// a worker behind its peers took from their queues and rings. Beside the
	// steals, the other way a unit runs away from the worker owning its node:
	// the TDF draw kept it on its maker.
	CQueueFallbacks    // bucket-ring → heap migrations on span overflow (0 or 1 per job queue)
	CTasksStolen       // tasks this worker stole from peers (steal-when-behind)
	CUnitsKeptOffBlock // dispatched units the TDF draw kept on a worker not owning their node

	// Dispatch counters: the tasks a worker put in bags, and the units
	// (single children and bag markers) the frontier-width gate kept on the
	// sender's queue before the TDF draw was consulted.
	CTasksBagged    // tasks shipped inside bags
	CUnitsKeptLocal // dispatched units the gate kept local

	// Scheduling-quality counters (PR 6): how far the popped task strayed
	// from the global minimum. Strict queue kinds (heap/dheap/twolevel) must
	// report zero inversions — the bench gate's structural canary — while
	// the relaxed multiqueue reports its bounded rank error. Sampled on the
	// engine's pop path at the same stride as task events; zero cost when
	// obs is disabled.
	CRankSamples    // pops whose rank error was sampled
	CPrioInversions // sampled pops that were not the observable global min
	CRankErrSum     // sum of sampled rank errors (mean = sum / samples)
	CRankErrMax     // max sampled rank error (gauge, not a sum)

	// Network-boundary resilience counters (PR 9): the serving front-end's
	// shed / deadline / abort / resume decisions, recorded on the external
	// row (they originate in HTTP handlers, not in any worker).
	CServeShed         // submits/creates refused while draining or over the global limit
	CServeDeadlineHits // requests cut by their propagated X-Request-Deadline-Ms
	CServeConnAborts   // submit streams aborted mid-body (stall detector, client reset)
	CServeResumes      // submit requests resuming an interrupted stream (offset > 0)

	numCounters
)

var counterNames = [numCounters]string{
	"edges_examined", "bags_created", "bags_opened", "overflow_spills",
	"idle_parks", "drift_reports", "tdf_steps",
	"overflow_redirects", "drift_clamped", "worker_restarts",
	"queue_fallbacks", "tasks_stolen", "units_kept_off_block", "tasks_bagged",
	"units_kept_local",
	"rank_samples", "prio_inversions", "rank_err_sum", "rank_err_max",
	"serve_shed", "serve_deadline_hits", "serve_conn_aborts", "serve_resumes",
}

// String returns the counter's snake_case export name.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// EventKind tags one trace event.
type EventKind uint8

// The event vocabulary of the runtime's layers.
const (
	EvTask          EventKind = iota // sampled task retirement: A=prio, B=worker total
	EvSubmit                         // external injection: A=task count, B=job
	EvBagCreated                     // A=bag prio, B=payload size
	EvBagOpened                      // A=payload size
	EvSpill                          // ring-full overflow spill: A=tasks spilled
	EvPark                           // worker parked on a quiescent fleet
	EvWake                           // worker woke from a park
	EvDriftReport                    // Algorithm 3 report: A=reported prio, B=job
	EvTDFStep                        // Algorithm 2 update: A=new TDF, B=drift bits, C=ref prio
	EvQuarantine                     // handler panic, task quarantined: A=prio, B=job
	EvRedirect                       // flow-control bounce kept local: A=task count
	EvWorkerRestart                  // worker loop restarted after an internal panic
	EvRankSample                     // sampled pop rank error: A=rank, B=popped prio, C=job
	EvCancel                         // cancelled-job sweep: A=tasks discarded, B=job
	EvQuotaReject                    // admission rejection: A=tasks refused, B=job

	numEventKinds
)

var eventNames = [numEventKinds]string{
	"task", "submit", "bag-created", "bag-opened", "spill", "park", "wake",
	"drift-report", "tdf-step", "quarantine", "redirect",
	"worker-restart", "rank-sample", "cancel", "quota-reject",
}

// String returns the kind's export name.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "unknown"
}

// Event is one trace entry. A, B, C are kind-specific payloads (see the
// EventKind constants); TS is nanoseconds since the recorder was created.
type Event struct {
	TS      int64
	Worker  int32 // worker index, or External
	Kind    EventKind
	A, B, C int64
}

// External is the worker index recorded for events and counters that
// originate outside the fleet (Engine.Submit's events, the serving
// front-end's decisions).
const External = -1

// Config sizes a Recorder.
type Config struct {
	// Workers sizes the event rings: one per worker plus the external one.
	// Events from out-of-range worker indices fold into the external ring.
	// It does not bound what the trace counts: the counters lines are the
	// engine's own rows, one per worker of its fleet.
	Workers int
	// RingSize is the per-worker event-trace capacity; the ring overwrites
	// its oldest entries and is allocated lazily on a row's first event.
	// 0 defaults to 1024.
	RingSize int
	// SampleEvery records every Nth task-retirement event per worker; the
	// engine refreshes its CEdgesExamined slot and samples the pop's rank
	// error on the same stride. 0 defaults to 64;
	// values are rounded up to a power of two. Negative disables task
	// events entirely.
	SampleEvery int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.RingSize <= 0 {
		c.RingSize = 1024
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 64
	}
	if c.SampleEvery > 0 {
		p := 1
		for p < c.SampleEvery {
			p <<= 1
		}
		c.SampleEvery = p
	}
	return c
}

// Counts is one owner's counter values indexed by Counter: the plain totals
// a worker keeps on its hot path, each event site adding to its slot by name.
type Counts [numCounters]int64

// Row is one owner's published counters — a worker's, or the engine's
// external row — indexed by Counter.
type Row [numCounters]atomic.Int64

// ring is one worker's event trace. The pad keeps adjacent workers' locks off
// one cache line.
type ring struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events appended (ring head = next % len(buf))
	_    [64]byte
}

// Recorder collects the event trace of one engine. All methods are safe for
// concurrent use; a nil *Recorder must be guarded by the caller (the
// engine's one-branch contract).
type Recorder struct {
	cfg        Config
	sampleMask int64 // SampleEvery-1 when sampling, -1 when disabled
	start      time.Time
	rings      []ring // cfg.Workers rings + one shared external ring
}

// New builds a recorder for cfg.Workers workers.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:   cfg,
		start: time.Now(),
		rings: make([]ring, cfg.Workers+1),
	}
	if cfg.SampleEvery > 0 {
		r.sampleMask = int64(cfg.SampleEvery) - 1
	} else {
		r.sampleMask = -1
	}
	// Event rings are allocated lazily on each ring's first event, so a
	// recorder costs a few cache lines until something actually traces.
	return r
}

// ring maps a worker index to its ring, folding External and out-of-range
// indices into the shared last one.
func (r *Recorder) ring(worker int) *ring {
	if worker >= 0 && worker < r.cfg.Workers {
		return &r.rings[worker]
	}
	return &r.rings[r.cfg.Workers]
}

// Event appends one trace entry to worker's ring.
func (r *Recorder) Event(worker int, k EventKind, a, b, c int64) {
	ev := Event{
		TS:     time.Since(r.start).Nanoseconds(),
		Worker: int32(worker),
		Kind:   k,
		A:      a,
		B:      b,
		C:      c,
	}
	rw := r.ring(worker)
	rw.mu.Lock()
	if rw.buf == nil {
		rw.buf = make([]Event, r.cfg.RingSize)
	}
	rw.buf[rw.next%uint64(len(rw.buf))] = ev
	rw.next++
	rw.mu.Unlock()
}

// SampleMask returns the task-sampling bitmask: sample when
// processed&mask == 0 (an EvTask event, and a refresh of the worker's
// CEdgesExamined slot). A negative mask means task events are disabled.
func (r *Recorder) SampleMask() int64 { return r.sampleMask }

// EventCount returns how many events have ever been appended (including
// entries the rings have since overwritten).
func (r *Recorder) EventCount() uint64 {
	var n uint64
	for i := range r.rings {
		rw := &r.rings[i]
		rw.mu.Lock()
		n += rw.next
		rw.mu.Unlock()
	}
	return n
}

// Events returns every retained trace entry, merged across workers and
// sorted by timestamp.
func (r *Recorder) Events() []Event {
	var out []Event
	for i := range r.rings {
		rw := &r.rings[i]
		rw.mu.Lock()
		n := rw.next
		cap64 := uint64(len(rw.buf))
		first := uint64(0)
		if n > cap64 {
			first = n - cap64
		}
		for s := first; s < n; s++ {
			out = append(out, rw.buf[s%cap64])
		}
		rw.mu.Unlock()
	}
	// Rings are individually time-ordered; SliceStable keeps a worker's
	// append order on timestamp ties.
	sort.SliceStable(out, func(a, b int) bool { return out[a].TS < out[b].TS })
	return out
}

// ControlPoint is one interval of the control plane's time series: the
// measured drift (Eq. 1), the reference priority it was computed against,
// and the TDF the controller chose for the next interval.
type ControlPoint struct {
	Interval int     `json:"interval"`
	Drift    float64 `json:"drift"`
	Ref      int64   `json:"ref"`
	TDF      int     `json:"tdf"`
}
