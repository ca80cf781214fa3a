package workload

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"hdcps/internal/graph"
	"hdcps/internal/task"
)

// PageRank is push-style residual PageRank (§IV-D, the push-pull
// formulation of [27] restricted to its push phase, which is the
// task-parallel part): every vertex holds a residual; a task drains its
// vertex's residual into the rank and pushes the damped share to the
// out-neighbors, queueing a neighbor when its residual crosses the
// convergence threshold. Tasks are prioritized by residual magnitude using
// an integer metric (larger residual = higher priority), as the paper
// requires for OBIM compatibility. Processing large residuals first
// converges in fewer tasks, which is why priority order matters.
//
// Arithmetic is 2^30 fixed point so the workload is deterministic and
// atomically updatable.
type PageRank struct {
	mem
	g   *graph.CSR
	eps int64

	rank     []int64 // atomic
	residual []int64 // atomic

	ref *answer[[]int64] // ranks of a strict-priority sequential run
}

// pagerank constants: standard damping 0.85 in fixed point.
const (
	prScale   = int64(1) << 30
	prDampNum = 85
	prDampDen = 100
)

// NewPageRank returns a residual PageRank over g. eps <= 0 selects the
// default threshold of 5e-4 of a unit rank (the task count scales roughly
// with 1/eps, so tighter thresholds mostly add work, not insight).
func NewPageRank(g *graph.CSR, eps int64) *PageRank {
	if eps <= 0 {
		eps = prScale / 2000
	}
	w := &PageRank{
		g:        g,
		eps:      eps,
		rank:     make([]int64, g.NumNodes()),
		residual: make([]int64, g.NumNodes()),
		ref:      new(answer[[]int64]),
	}
	w.Reset()
	return w
}

// Name implements Workload.
func (w *PageRank) Name() string { return "pagerank" }

// Graph implements Workload.
func (w *PageRank) Graph() *graph.CSR { return w.g }

// Rank returns the fixed-point rank array (divide by 2^30 for real values).
func (w *PageRank) Rank() []int64 { return w.rank }

// Reset implements Workload.
func (w *PageRank) Reset() {
	w.mem = mem{}
	init := prScale * (prDampDen - prDampNum) / prDampDen // (1-d)
	for i := range w.rank {
		w.rank[i] = 0
		w.residual[i] = init
	}
}

// prPrio maps a residual to an integer priority: larger residuals get
// numerically smaller (= higher) priorities. The metric is logarithmic with
// 4 sub-levels per octave — coarse enough that same-priority tasks still
// form bags (§III-B groups by exact priority), fine enough that
// bucket-merging schedulers retain useful order.
func prPrio(res int64) int64 {
	if res <= 0 {
		return 1 << 12
	}
	b := int64(bits.Len64(uint64(res)))
	var frac int64
	if b > 3 {
		frac = (res >> uint(b-3)) & 3
	}
	return -(b<<2 | frac)
}

// InitialTasks implements Workload: one task per node at the initial
// residual's priority.
func (w *PageRank) InitialTasks() []task.Task {
	ts := make([]task.Task, w.g.NumNodes())
	p := prPrio(w.residual[0])
	for i := range ts {
		ts[i] = task.Task{Node: graph.NodeID(i), Prio: p}
	}
	return ts
}

// Process implements Workload: drain the vertex's residual and push the
// damped share to its out-neighbors.
func (w *PageRank) Process(t task.Task, emit func(task.Task)) int {
	u := t.Node
	res := w.swap64(&w.residual[u], 0)
	if res < w.eps {
		// Stale or already-drained task; put the residual back (it may
		// still accumulate past eps later).
		if res > 0 {
			w.add64(&w.residual[u], res)
		}
		return 0
	}
	w.add64(&w.rank[u], res)
	dsts, _ := w.g.Neighbors(u)
	if len(dsts) == 0 {
		return 0
	}
	share := res * prDampNum / prDampDen / int64(len(dsts))
	if share == 0 {
		return len(dsts)
	}
	for _, v := range dsts {
		old := w.add64(&w.residual[v], share) - share
		if old < w.eps && old+share >= w.eps {
			emit(task.Task{Node: v, Prio: prPrio(old + share)})
		}
	}
	return len(dsts)
}

// Clone implements Workload.
func (w *PageRank) Clone() Workload {
	c := NewPageRank(w.g, w.eps)
	c.ref = w.ref
	return c
}

// keepReference makes the ranks of the strict-order run that just ended
// the reference answer, unless one is made already: Verify would compute
// the same ranks with a run of its own. They are copied, as the next Reset
// clears the instance's.
func (w *PageRank) keepReference() {
	w.ref.get(func() []int64 { return slices.Clone(w.rank) })
}

// Verify implements Workload. Residual PageRank is an anytime algorithm:
// any execution order converges to the exact ranks up to the mass still
// parked in sub-threshold residuals. We check (a) every residual is below
// the threshold, and (b) each rank matches a strict-priority sequential
// run within the worst-case parked-mass bound.
func (w *PageRank) Verify() error {
	for i := range w.residual {
		if r := atomic.LoadInt64(&w.residual[i]); r >= w.eps {
			return fmt.Errorf("pagerank: node %d residual %d >= eps %d (not converged)", i, r, w.eps)
		}
	}
	ref := w.ref.get(func() []int64 {
		c := NewPageRank(w.g, w.eps)
		RunSequential(c)
		return c.rank
	})
	// Bound: at convergence each node parks < eps of undelivered residual;
	// damping amplifies parked mass along paths by at most 1/(1-d). Two
	// converged runs therefore differ by at most ~2*n*eps/(1-d) in L1 norm
	// (plus negligible fixed-point truncation), so we allow twice that.
	var l1 int64
	for i := range w.rank {
		diff := w.rank[i] - ref[i]
		if diff < 0 {
			diff = -diff
		}
		l1 += diff
	}
	n := int64(w.g.NumNodes())
	tol := 4 * n * w.eps * prDampDen / (prDampDen - prDampNum)
	if l1 > tol {
		return fmt.Errorf("pagerank: L1 distance to sequential reference %d > tol %d", l1, tol)
	}
	return nil
}
