// Package obs is the native runtime's observability layer: low-overhead
// per-worker metrics counters and ring-buffered event traces that let the
// drift/TDF feedback loop — the paper's whole contribution — be watched
// converging over time instead of inferred from a one-shot snapshot.
//
// The design follows the constraints of the engine's hot path:
//
//   - Counters are rows of padded atomics, one per worker plus one external
//     row. The recorder owns no counter: every count has one home, a slot in
//     its owner's Row, which the owner (the engine, the serving front-end)
//     keeps locally when no recorder is attached and borrows from the
//     recorder (Row) when one is. Most slots are written by the worker that
//     owns the row alone, so an update is an uncontended atomic on a cache
//     line nothing else writes; the exceptions are overflow spills, which a
//     sender adds to the destination worker's row, and the external row,
//     which any submitting goroutine adds to. Readers aggregate rows with
//     plain atomic loads at any time.
//   - Events land in a per-worker ring buffer guarded by a per-worker
//     mutex. Events are orders of magnitude rarer than tasks (task events
//     are sampled, the rest mark bag/spill/park/control transitions), so an
//     uncontended lock per event is noise; the ring overwrites the oldest
//     entries, bounding memory for arbitrarily long runs.
//   - The whole layer hangs off a nil-able *Recorder. A disabled engine
//     pays exactly one predictable branch per recording site and allocates
//     nothing.
//
// Export paths: WriteJSONL streams the trace as one JSON object per line
// (schema documented in the README) and Handler serves a JSON snapshot over
// HTTP.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one per-worker metric.
type Counter uint8

// The counter set. CTasksProcessed and CEdgesExamined are gauges mirrored
// from the worker's run-local totals (stored, not added, so they are exact
// at quiescence); the rest are monotone event counts.
const (
	CTasksProcessed Counter = iota // tasks retired (bag payloads included)
	CTasksSubmitted                // tasks injected via Submit (external row)
	CEdgesExamined                 // edges touched while processing
	CBagsCreated                   // bags partitioned out of child batches
	CBagsOpened                    // bag payloads unpacked for execution
	COverflowSpills                // full-ring spills landing at this worker
	CIdleParks                     // parks on a quiescent fleet
	CDriftReports                  // Algorithm 3 priority reports sent
	CTDFSteps                      // Algorithm 2 controller updates applied

	// Fault-tolerance counters (the engine's conservation ledger and the
	// failure paths a chaos run exercises).
	CTasksSpawned      // children + bag units added by task processing
	CBagsRetired       // bag units fully unpacked and retired
	CTasksQuarantined  // tasks whose handler panicked, retired into quarantine
	COverflowRedirects // remote sends bounced back local by flow control
	CDriftClamped      // out-of-range priority reports clamped by control
	CWorkerRestarts    // worker loops restarted after an engine-level panic

	// Local-queue counters: the twolevel kind's heap fallbacks, and the tasks
	// a worker behind its peers took from their queues and rings.
	CQueueFallbacks // bucket-ring → heap migrations on span overflow (0 or 1 per job queue)
	CTasksStolen    // tasks this worker stole from peers (steal-when-behind)

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

	// Multi-tenant counters (PR 7): the job layer's cancellation sink and
	// admission control. CTasksCancelled is a gauge mirrored from each
	// worker's cancellation total; CQuotaRejects counts tasks refused by a
	// job's MaxOutstanding quota (external row — rejection happens at Submit).
	CTasksCancelled // tasks discarded by job-scoped Cancel
	CQuotaRejects   // tasks refused by per-job admission quotas

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
	"tasks_processed", "tasks_submitted", "edges_examined", "bags_created",
	"bags_opened", "overflow_spills", "idle_parks", "drift_reports",
	"tdf_steps", "tasks_spawned", "bags_retired", "tasks_quarantined",
	"overflow_redirects", "drift_clamped", "worker_restarts",
	"queue_fallbacks", "tasks_stolen", "tasks_bagged", "units_kept_local",
	"rank_samples", "prio_inversions", "rank_err_sum", "rank_err_max",
	"tasks_cancelled", "quota_rejects",
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
// originate outside the fleet (Engine.Submit, injected work).
const External = -1

// Config sizes a Recorder.
type Config struct {
	// Workers is the fleet size the recorder serves: it holds one row per
	// worker plus the external row. Events from out-of-range worker indices
	// fold into the external row's ring; Row hands out no counter row for
	// them, so an undersized recorder never makes two workers share one.
	Workers int
	// RingSize is the per-worker event-trace capacity; the ring overwrites
	// its oldest entries and is allocated lazily on a row's first event.
	// 0 defaults to 1024.
	RingSize int
	// SampleEvery records every Nth task-retirement event per worker and
	// refreshes the CEdgesExamined counter on the same boundaries (the
	// CTasksProcessed counter is exact at every task; edges lag by at most
	// one sample stride until the worker next parks). 0 defaults to 64;
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

// Row is one owner's counters — a worker's, or the external row's — indexed
// by Counter.
type Row [numCounters]atomic.Int64

// row is one worker's slice of the recorder: a padded block of counter
// atomics plus the event ring. The pad keeps adjacent rows off one cache
// line, so a worker's own slots stay uncontended even while senders add
// spills to them.
type row struct {
	c Row
	_ [8]int64

	mu   sync.Mutex
	buf  []Event
	next uint64 // total events appended (ring head = next % len(buf))
}

// Recorder collects metrics and traces for one engine. All methods are safe
// for concurrent use; a nil *Recorder must be guarded by the caller (the
// engine's one-branch contract).
type Recorder struct {
	cfg        Config
	sampleMask int64 // SampleEvery-1 when sampling, -1 when disabled
	start      time.Time
	rows       []row // cfg.Workers rows + one shared external row
}

// New builds a recorder for cfg.Workers workers.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:   cfg,
		start: time.Now(),
		rows:  make([]row, cfg.Workers+1),
	}
	if cfg.SampleEvery > 0 {
		r.sampleMask = int64(cfg.SampleEvery) - 1
	} else {
		r.sampleMask = -1
	}
	// Event rings are allocated lazily on each row's first event, so a
	// recorder costs a few cache lines until something actually traces.
	return r
}

// row maps a worker index to its row, folding External and out-of-range
// indices into the shared last row (for events and reads; Row does not fold).
func (r *Recorder) row(worker int) *row {
	if worker >= 0 && worker < r.cfg.Workers {
		return &r.rows[worker]
	}
	return &r.rows[r.cfg.Workers]
}

// Value reads one worker's counter.
func (r *Recorder) Value(worker int, c Counter) int64 {
	return r.row(worker).c[c].Load()
}

// Total sums a counter across all rows (workers + external).
func (r *Recorder) Total(c Counter) int64 {
	var sum int64
	for i := range r.rows {
		sum += r.rows[i].c[c].Load()
	}
	return sum
}

// CounterRow is one row of a counter snapshot.
type CounterRow struct {
	Worker int // worker index, or External for the shared row
	Values [int(numCounters)]int64
}

// Counters snapshots every row's counters. The rows are internally
// consistent per counter (atomic loads) but not across counters.
func (r *Recorder) Counters() []CounterRow {
	out := make([]CounterRow, len(r.rows))
	for i := range r.rows {
		w := i
		if i == r.cfg.Workers {
			w = External
		}
		out[i].Worker = w
		for c := Counter(0); c < numCounters; c++ {
			out[i].Values[c] = r.rows[i].c[c].Load()
		}
	}
	return out
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
	rw := r.row(worker)
	rw.mu.Lock()
	if rw.buf == nil {
		rw.buf = make([]Event, r.cfg.RingSize)
	}
	rw.buf[rw.next%uint64(len(rw.buf))] = ev
	rw.next++
	rw.mu.Unlock()
}

// SampleMask returns the task-sampling bitmask: sample when
// processed&mask == 0 (an EvTask event, and a refresh of the owner's
// CEdgesExamined slot). A negative mask means task events are disabled.
func (r *Recorder) SampleMask() int64 { return r.sampleMask }

// Row lends worker's counter row to the row's owner, which writes its counts
// there in place of a row of its own, so the recorder's view of them is
// exactly the owner's and an attached recorder costs no extra atomics.
// External is the one shared row; any other index outside [0, Workers) gets
// nil, and the owner keeps its own row.
func (r *Recorder) Row(worker int) *Row {
	if worker == External || (worker >= 0 && worker < r.cfg.Workers) {
		return &r.row(worker).c
	}
	return nil
}

// EventCount returns how many events have ever been appended (including
// entries the rings have since overwritten).
func (r *Recorder) EventCount() uint64 {
	var n uint64
	for i := range r.rows {
		rw := &r.rows[i]
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
	for i := range r.rows {
		rw := &r.rows[i]
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
