// Package stats defines the measurement vocabulary of the evaluation: the
// completion-time breakdown of §IV-C (enqueue / dequeue / compute / comm),
// per-run counters (tasks processed, messages, bags, work efficiency), drift
// traces, and the aggregation helpers (normalization, geomean) used by every
// figure.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Breakdown splits a run's cycles the way §IV-C does. Comm includes both
// task-transfer time and idle time, as in the paper.
type Breakdown struct {
	Enqueue int64 // enqueue ops + bag creation
	Dequeue int64 // dequeue ops (incl. unpacking bag payloads)
	Compute int64 // task processing (incl. Swarm rollback cost)
	Comm    int64 // task transfer + idle
}

// Total returns the summed cycles.
func (b Breakdown) Total() int64 { return b.Enqueue + b.Dequeue + b.Compute + b.Comm }

// Add accumulates o into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Enqueue += o.Enqueue
	b.Dequeue += o.Dequeue
	b.Compute += o.Compute
	b.Comm += o.Comm
}

// Normalized returns the breakdown as fractions of base (typically another
// run's Total), so stacked-bar figures can be printed directly.
func (b Breakdown) Normalized(base int64) [4]float64 {
	if base == 0 {
		return [4]float64{}
	}
	f := float64(base)
	return [4]float64{
		float64(b.Enqueue) / f,
		float64(b.Dequeue) / f,
		float64(b.Compute) / f,
		float64(b.Comm) / f,
	}
}

// String formats the breakdown with component percentages.
func (b Breakdown) String() string {
	t := b.Total()
	if t == 0 {
		return "breakdown{empty}"
	}
	p := func(v int64) float64 { return 100 * float64(v) / float64(t) }
	return fmt.Sprintf("enq %.0f%% deq %.0f%% comp %.0f%% comm %.0f%%",
		p(b.Enqueue), p(b.Dequeue), p(b.Compute), p(b.Comm))
}

// Run captures everything one (scheduler, workload, input) execution
// produces.
type Run struct {
	Scheduler string
	Workload  string
	Input     string
	Cores     int

	// CompletionTime is the parallel completion time: cycles in the
	// simulator, nanoseconds in the native runtime.
	CompletionTime int64
	Breakdown      Breakdown

	TasksProcessed int64 // total tasks executed (incl. redundant work)
	SeqTasks       int64 // tasks the sequential baseline needs
	EdgesExamined  int64 // edges touched while processing (work-efficiency detail)
	MessagesSent   int64
	L1Hits         int64
	L2Hits         int64
	MemMisses      int64
	BagsCreated    int64
	BaggedTasks    int64
	Aborts         int64 // Swarm only: rolled-back tasks

	DriftTrace []float64 // per-interval priority drift (Eq. 1)
	RefTrace   []int64   // per-interval reference priority (Eq. 1's P0; native runtime)
	TDFTrace   []int     // per-interval TDF (HD-CPS only)
	// DriftClamped counts out-of-range priority reports the native control
	// plane clamped (negative ones to 0); near the report count, the
	// controller saw no drift at all.
	DriftClamped int64
}

// WorkEfficiency returns SeqTasks / TasksProcessed: 1.0 is perfectly
// work-efficient, smaller means redundant work (the paper's definition from
// [10] inverted so that bigger is better and bounded by 1).
func (r Run) WorkEfficiency() float64 {
	if r.TasksProcessed == 0 {
		return 0
	}
	return float64(r.SeqTasks) / float64(r.TasksProcessed)
}

// AvgDrift returns the mean of the drift trace.
func (r Run) AvgDrift() float64 { return Mean(r.DriftTrace) }

// String gives a one-line summary of the run.
func (r Run) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s/%s/%s p=%d: time=%d tasks=%d we=%.2f",
		r.Scheduler, r.Workload, r.Input, r.Cores,
		r.CompletionTime, r.TasksProcessed, r.WorkEfficiency())
	if len(r.DriftTrace) > 0 {
		fmt.Fprintf(&sb, " drift=%.1f", r.AvgDrift())
	}
	return sb.String()
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Geomean returns the geometric mean of xs, ignoring non-positive entries
// the way figure aggregation in architecture papers does (0 for no valid
// entries).
func Geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
