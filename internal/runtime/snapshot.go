package runtime

// The read side of the engine: point-in-time views of its counters
// (Snapshot, ControlTrace) and the trace export. Nothing here disturbs the
// workers; the read orders follow the ledger's publication contract
// (ledger.go).

import (
	"io"

	"hdcps/internal/obs"
)

// WorkerStats is one worker's Snapshot row. Its JSON names, like
// Snapshot's, are the obs counter names the trace's counter lines use.
type WorkerStats struct {
	Processed      int64 `json:"tasks_processed"`    // tasks executed (bag payloads included): the worker's rows of the jobs, summed
	Bags           int64 `json:"bags_created"`       // bags created by this worker
	OverflowSpills int64 `json:"overflow_spills"`    // full-ring spills that landed at this worker
	IdleParks      int64 `json:"idle_parks"`         // times the worker parked on a quiescent fleet
	Redirects      int64 `json:"overflow_redirects"` // flow-control bounces this worker kept local
	Stolen         int64 `json:"tasks_stolen"`       // tasks this worker took from peers (steal.go)
	Parked         bool  `json:"parked"`             // blocked in the park/wake handshake right now
}

// Snapshot is a cheap point-in-time view of a running engine: per-worker
// counters, the jobs' ledgers, plus the live control-plane state.
//
// Coherence contract: the ledger's engine-wide terms are the sums of the
// jobs' rows (Jobs), read in the same pass, so they agree with Jobs exactly.
// A task's retirement term is published before its retirement can be
// observed in Outstanding, and Snapshot reads Outstanding before the terms,
// so for any snapshot
//
//	TasksProcessed + Outstanding >= tasks submitted before the call
//
// and once Drain has returned (Outstanding == 0 with no concurrent Submit),
// TasksProcessed is exact — a mid-drain snapshot can no longer under-count
// retired work. Outstanding itself may read low by the children a worker has
// spawned in its current dequeue batch and not yet settled (at most one
// batch's spawn per worker; never zero while work exists, never negative),
// and Spawned publishes at the same settle points, so in any snapshot
//
//	Submitted + Spawned >= TasksProcessed + BagsRetired + Quarantined + Cancelled
//
// (the add side may lag work in progress, the retire side never leads it).
// The remaining counters (Bags, EdgesExamined, spills, parks, Stolen,
// DriftClamped, and the dispatch counts BaggedTasks, KeptLocal and
// KeptOffBlock) are published at flush/park/idle boundaries and may lag by at
// most one flush interval; once
// Stop has returned nil every worker has published, and they are exact.
type Snapshot struct {
	Epoch       uint64 `json:"epoch"`       // Submit calls so far
	Outstanding int64  `json:"outstanding"` // tasks submitted or spawned but not yet retired
	TDF         int    `json:"tdf"`         // current task-distribution factor (percent)

	TasksProcessed int64 `json:"tasks_processed"`
	BagsCreated    int64 `json:"bags_created"`
	EdgesExamined  int64 `json:"edges_examined"`

	// The conservation ledger (fault.go). At quiescence (Drain returned,
	// no concurrent Submit):
	//
	//	Submitted + Spawned == TasksProcessed + BagsRetired + Quarantined + Cancelled
	//
	// and Outstanding == 0 — the no-task-loss invariant the chaos harness
	// asserts at every checkpoint, globally and per job (Jobs).
	Submitted   int64 `json:"tasks_submitted"`    // tasks injected via Submit
	Spawned     int64 `json:"tasks_spawned"`      // children + bag units created by task processing
	BagsRetired int64 `json:"bags_retired"`       // bag units fully unpacked and retired
	Quarantined int64 `json:"tasks_quarantined"`  // poison tasks retired into Engine.Quarantined
	Cancelled   int64 `json:"tasks_cancelled"`    // tasks discarded by job-scoped Cancel (ledger sink)
	Redirects   int64 `json:"overflow_redirects"` // flow-control bounces kept local (degradation signal)
	Stolen      int64 `json:"tasks_stolen"`       // tasks workers took from peers' queues and rings

	// KeptOffBlock counts the dispatched units (single children and bag
	// markers) that passed the gate and that the TDF draw left on their
	// maker, a worker not owning their node — with Stolen, the largest way a
	// task runs away from its owner's block (place.go). 0 on one worker and
	// for jobs without a graph, which have no owner.
	KeptOffBlock int64 `json:"units_kept_off_block"`

	// Dispatch: BaggedTasks counts tasks shipped inside bags. Of the
	// Spawned - BaggedTasks dispatched units (single children and bag
	// markers), KeptLocal never saw the TDF draw: the dispatch gate kept them
	// on the sender's short queue. DriftClamped counts priority reports the
	// control plane clamped into range (negative, or at the never-reported
	// sentinel); when it is about the number of reports, the controller is
	// blind: it sees drift 0.
	BaggedTasks  int64 `json:"tasks_bagged"`
	KeptLocal    int64 `json:"units_kept_local"`
	DriftClamped int64 `json:"drift_clamped"`

	// Local-queue health (zero when QueueKind is not twolevel):
	// QueueFallbacks counts the per-job queues whose bucket ring migrated to
	// the heap because the resident priority span outgrew it. HotSpills is
	// always 0 — the ring has no hot buffer; benchmark/solve.go reads it, and
	// it is not served (the trace dropped the counter in v4).
	HotSpills      int64 `json:"-"`
	QueueFallbacks int64 `json:"queue_fallbacks"`

	// Scheduling quality (obs-gated: all zero when Config.Obs is nil). The
	// engine samples the pop path at the recorder's task-sample stride and
	// asks how far the popped task strayed from the best observable work:
	// RankSamples counts sampled pops, PrioInversions the samples that were
	// not the observable minimum, RankErrorSum the summed rank estimates
	// (mean = sum / samples), RankErrorMax the worst single sample. Strict
	// kinds must report 0 inversions (structural canary); multiqueue
	// reports its bounded relaxation.
	RankSamples    int64 `json:"rank_samples"`
	PrioInversions int64 `json:"prio_inversions"`
	RankErrorSum   int64 `json:"rank_err_sum"`
	RankErrorMax   int64 `json:"rank_err_max"`

	Workers []WorkerStats `json:"workers"`
	// Jobs holds one ledger row per registered tenant, indexed by JobID
	// (job 0 is the engine's default workload). Each row carries the per-job
	// conservation equation documented on JobStats.
	Jobs []JobStats `json:"jobs"`
}

// Snapshot reads the engine's counters without disturbing the workers.
// Safe from any goroutine at any lifecycle stage.
func (e *Engine) Snapshot() Snapshot {
	// Read order matters for the coherence contract: Outstanding first,
	// then the jobs' ledgers, each of which reads its own outstanding, then
	// its retire side, then its add side (jobState.stats). A task retiring
	// between the reads inflates TasksProcessed, never loses the task — each
	// worker stores its processed term before decrementing outstanding, and
	// sync/atomic's total order makes that store visible to any reader that
	// observed the decrement.
	s := Snapshot{
		Epoch:       e.epoch.Load(),
		Outstanding: e.outstanding.Load(),
		TDF:         int(e.control.TDF()),
		Workers:     make([]WorkerStats, len(e.workers)),
	}
	s.Jobs = jobStats(*e.jobs.Load(), s.Workers)
	for _, j := range s.Jobs {
		s.Submitted += j.Submitted
		s.Spawned += j.Spawned
		s.TasksProcessed += j.Processed
		s.BagsRetired += j.BagsRetired
		s.Quarantined += j.Quarantined
		s.Cancelled += j.CancelledTasks
	}
	for i := range e.workers {
		me, row, ws := &e.workers[i], &e.workers[i].row, &s.Workers[i]
		ws.Bags = row[obs.CBagsCreated].Load()
		ws.OverflowSpills = row[obs.COverflowSpills].Load()
		ws.IdleParks = row[obs.CIdleParks].Load()
		ws.Redirects = row[obs.COverflowRedirects].Load()
		ws.Stolen = row[obs.CTasksStolen].Load()
		ws.Parked = me.parked.Load()
		s.BagsCreated += ws.Bags
		s.EdgesExamined += row[obs.CEdgesExamined].Load()
		s.Redirects += ws.Redirects
		s.Stolen += ws.Stolen
		s.KeptOffBlock += row[obs.CUnitsKeptOffBlock].Load()
		s.BaggedTasks += row[obs.CTasksBagged].Load()
		s.KeptLocal += row[obs.CUnitsKeptLocal].Load()
		s.DriftClamped += row[obs.CDriftClamped].Load()
		s.QueueFallbacks += row[obs.CQueueFallbacks].Load()
		s.RankSamples += row[obs.CRankSamples].Load()
		s.PrioInversions += row[obs.CPrioInversions].Load()
		s.RankErrorSum += row[obs.CRankErrSum].Load()
		if m := row[obs.CRankErrMax].Load(); m > s.RankErrorMax {
			s.RankErrorMax = m
		}
	}
	return s
}

// Obs returns the engine's observability recorder (nil when Config.Obs was
// unset).
func (e *Engine) Obs() *obs.Recorder { return e.obs }

// ExternalRow returns the engine's external counter row, where counts that
// arise outside the worker fleet go: the serving front-end's serve_*
// decisions, which it adds here so the engine's Snapshot and trace are their
// one home. (Submit's counts are ledger terms, kept per job.)
func (e *Engine) ExternalRow() *obs.Row { return &e.ext }

// Outstanding returns the engine-wide count of tasks submitted or spawned
// but not yet retired — one atomic load, cheap enough for admission checks
// on every request (the serving front-end's global load shed keys off it).
func (e *Engine) Outstanding() int64 { return e.outstanding.Load() }

// ControlTrace returns the control plane's time series so far: one point
// per controller interval with the measured drift, the reference priority,
// and the TDF chosen for the next interval. Safe to call while the fleet
// runs; this is the time-series replacement for reading Snapshot.TDF in a
// loop.
func (e *Engine) ControlTrace() []obs.ControlPoint { return e.control.Series() }

// WriteTrace streams the engine's full observability state as JSONL
// (schema obs.TraceSchema): recorder meta, one counters line per worker row
// and one for the external row, the retained event trace, one JobStats row
// per tenant, and the control plane's drift/ref/TDF time series. Safe while
// the fleet runs. Without a recorder (Config.Obs unset) only the control
// series is written.
func (e *Engine) WriteTrace(w io.Writer) error {
	if e.obs != nil {
		rows := make([]*obs.Row, 0, len(e.workers)+1)
		for i := range e.workers {
			rows = append(rows, &e.workers[i].row)
		}
		if err := e.obs.WriteJSONL(w, append(rows, &e.ext)); err != nil {
			return err
		}
		if err := obs.WriteLines(w, "job", jobStats(*e.jobs.Load(), nil)); err != nil {
			return err
		}
	}
	return obs.WriteLines(w, "control", e.control.Series())
}

// jobStats reads every tenant's ledger row, in JobID order, adding each
// worker's processed terms to byWorker when it is not nil.
func jobStats(jobs []*jobState, byWorker []WorkerStats) []JobStats {
	rows := make([]JobStats, len(jobs))
	for i, js := range jobs {
		rows[i] = js.stats(byWorker)
	}
	return rows
}
