package runtime

// The read side of the engine: point-in-time views of its counters
// (Snapshot, ControlTrace) and the trace export. Nothing here disturbs the
// workers; the read orders follow the ledger's publication contract
// (ledger.go).

import (
	"io"

	"hdcps/internal/obs"
)

// WorkerStats is one worker's Snapshot row.
type WorkerStats struct {
	Processed      int64 // tasks executed (bag payloads included)
	Bags           int64 // bags created by this worker
	OverflowSpills int64 // full-ring spills that landed at this worker
	IdleParks      int64 // times the worker parked on a quiescent fleet
	Redirects      int64 // flow-control bounces this worker kept local
	Stolen         int64 // tasks this worker took from peers (steal.go)
	Parked         bool  // blocked in the park/wake handshake right now
}

// Snapshot is a cheap point-in-time view of a running engine: per-worker
// counters plus the live control-plane state.
//
// Coherence contract: TasksProcessed is published before a task's
// retirement can be observed in Outstanding, and Snapshot reads Outstanding
// before the counters, so for any snapshot
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
// The remaining counters (Bags, EdgesExamined, spills, parks, Stolen, and the
// dispatch counts BaggedTasks and KeptLocal) are published at
// flush/park/idle boundaries and may lag by at most one flush interval; once
// Stop has returned nil every worker has published, and they are exact.
type Snapshot struct {
	Epoch       uint64 // Submit calls so far
	Outstanding int64  // tasks submitted or spawned but not yet retired
	TDF         int    // current task-distribution factor (percent)

	TasksProcessed int64
	BagsCreated    int64
	EdgesExamined  int64

	// The conservation ledger (fault.go). At quiescence (Drain returned,
	// no concurrent Submit):
	//
	//	Submitted + Spawned == TasksProcessed + BagsRetired + Quarantined + Cancelled
	//
	// and Outstanding == 0 — the no-task-loss invariant the chaos harness
	// asserts at every checkpoint, globally and per job (Jobs).
	Submitted   int64 // tasks injected via Submit
	Spawned     int64 // children + bag units created by task processing
	BagsRetired int64 // bag units fully unpacked and retired
	Quarantined int64 // poison tasks retired into Engine.Quarantined
	Cancelled   int64 // tasks discarded by job-scoped Cancel (ledger sink)
	Redirects   int64 // flow-control bounces kept local (degradation signal)
	Stolen      int64 // tasks workers took from peers' queues and rings

	// Dispatch: BaggedTasks counts tasks shipped inside bags. Of the
	// Spawned - BaggedTasks dispatched units (single children and bag
	// markers), KeptLocal never saw the TDF draw: the dispatch gate kept them
	// on the sender's short queue. DriftClamped counts priority reports the
	// control plane clamped into range (negative, or at the never-reported
	// sentinel); when it is about the number of reports, the controller is
	// blind: it sees drift 0.
	BaggedTasks  int64
	KeptLocal    int64
	DriftClamped int64

	// Local-queue health (zero when QueueKind is not twolevel):
	// QueueFallbacks counts the per-job queues whose bucket ring migrated to
	// the heap because the resident priority span outgrew it. HotSpills is
	// always 0 — the ring has no hot buffer; benchmark/solve.go reads it.
	HotSpills      int64
	QueueFallbacks int64

	// Scheduling quality (obs-gated: all zero when Config.Obs is nil). The
	// engine samples the pop path at the recorder's task-sample stride and
	// asks how far the popped task strayed from the best observable work:
	// RankSamples counts sampled pops, PrioInversions the samples that were
	// not the observable minimum, RankErrorSum the summed rank estimates
	// (mean = sum / samples), RankErrorMax the worst single sample. Strict
	// kinds must report 0 inversions (structural canary); multiqueue
	// reports its bounded relaxation.
	RankSamples    int64
	PrioInversions int64
	RankErrorSum   int64
	RankErrorMax   int64

	Workers []WorkerStats
	// Jobs holds one ledger row per registered tenant, indexed by JobID
	// (job 0 is the engine's default workload). Each row carries the per-job
	// conservation equation documented on JobStats.
	Jobs []JobStats
}

// Snapshot reads the engine's counters without disturbing the workers.
// Safe from any goroutine at any lifecycle stage.
func (e *Engine) Snapshot() Snapshot {
	// Read order matters for the coherence contract: Outstanding first,
	// then the per-worker processed counters. A task retiring between the
	// two reads inflates TasksProcessed, never loses the task — each
	// worker stores its processed total before decrementing outstanding,
	// and sync/atomic's total order makes that store visible to any reader
	// that observed the decrement. The ledger's add side (Spawned,
	// Submitted) is read last for the same reason: a retirement is only
	// published after the spawn or submission behind it, so reading the
	// retire side first keeps it from leading the add side.
	jobs := *e.jobs.Load()
	s := Snapshot{
		Epoch:       e.epoch.Load(),
		Outstanding: e.outstanding.Load(),
		TDF:         int(e.control.TDF()),
		Workers:     make([]WorkerStats, len(e.workers)),
		Jobs:        make([]JobStats, len(jobs)),
	}
	for i, js := range jobs {
		s.Jobs[i] = js.stats()
	}
	for i := range e.workers {
		me := &e.workers[i]
		ws := WorkerStats{
			Processed:      me.pub[obs.CTasksProcessed].Load(),
			Bags:           me.pub[obs.CBagsCreated].Load(),
			OverflowSpills: me.pub[obs.COverflowSpills].Load(),
			IdleParks:      me.pub[obs.CIdleParks].Load(),
			Redirects:      me.pub[obs.COverflowRedirects].Load(),
			Stolen:         me.pub[obs.CTasksStolen].Load(),
			Parked:         me.parked.Load(),
		}
		s.Workers[i] = ws
		s.TasksProcessed += ws.Processed
		s.BagsCreated += ws.Bags
		s.EdgesExamined += me.pub[obs.CEdgesExamined].Load()
		s.BagsRetired += me.pub[obs.CBagsRetired].Load()
		s.Quarantined += me.pub[obs.CTasksQuarantined].Load()
		s.Cancelled += me.pub[obs.CTasksCancelled].Load()
		s.Redirects += ws.Redirects
		s.Stolen += ws.Stolen
		s.BaggedTasks += me.pub[obs.CTasksBagged].Load()
		s.KeptLocal += me.pub[obs.CUnitsKeptLocal].Load()
		s.DriftClamped += me.pub[obs.CDriftClamped].Load()
		s.QueueFallbacks += me.pub[obs.CQueueFallbacks].Load()
		s.RankSamples += me.pub[obs.CRankSamples].Load()
		s.PrioInversions += me.pub[obs.CPrioInversions].Load()
		s.RankErrorSum += me.pub[obs.CRankErrSum].Load()
		if m := me.pub[obs.CRankErrMax].Load(); m > s.RankErrorMax {
			s.RankErrorMax = m
		}
	}
	for i := range e.workers {
		s.Spawned += e.workers[i].pub[obs.CTasksSpawned].Load()
	}
	s.Submitted = e.ext[obs.CTasksSubmitted].Load()
	return s
}

// Obs returns the engine's observability recorder (nil when Config.Obs was
// unset).
func (e *Engine) Obs() *obs.Recorder { return e.obs }

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
// (schema obs.TraceSchema): recorder meta, per-worker counters, per-job
// ledger rows, the retained event trace, and the control plane's
// drift/ref/TDF time series. Requires Config.Obs; without a recorder only
// the control series is written.
func (e *Engine) WriteTrace(w io.Writer) error {
	if e.obs != nil {
		if err := e.obs.WriteJSONL(w); err != nil {
			return err
		}
		if err := obs.WriteLines(w, "job", jobRows(*e.jobs.Load())); err != nil {
			return err
		}
	}
	return obs.WriteLines(w, "control", e.control.Series())
}

// jobRows adapts the tenants' ledger stats into the obs trace's job-row
// schema (one {"type":"job"} JSONL line per tenant).
func jobRows(jobs []*jobState) []obs.JobRow {
	rows := make([]obs.JobRow, 0, len(jobs))
	for _, js := range jobs {
		st := js.stats()
		rows = append(rows, obs.JobRow{
			Job:            uint32(st.Job),
			Name:           st.Name,
			Weight:         st.Weight,
			Cancelled:      st.Cancelled,
			Outstanding:    st.Outstanding,
			Submitted:      st.Submitted,
			Spawned:        st.Spawned,
			Processed:      st.Processed,
			BagsRetired:    st.BagsRetired,
			Quarantined:    st.Quarantined,
			CancelledTasks: st.CancelledTasks,
			QuotaRejected:  st.QuotaRejected,
			RankSamples:    st.RankSamples,
			PrioInversions: st.PrioInversions,
			RankErrorSum:   st.RankErrorSum,
			RankErrorMax:   st.RankErrorMax,
		})
	}
	return rows
}
