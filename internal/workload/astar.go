package workload

import (
	"fmt"
	"math"
	"sync/atomic"

	"hdcps/internal/graph"
	"hdcps/internal/pq"
	"hdcps/internal/task"
)

// AStar is A* shortest path to a single target (§IV-D): like SSSP, a task
// relaxes one vertex, but its priority is g + h where h is an admissible
// geometric heuristic, and expansions whose f-value cannot beat the current
// best target distance are pruned.
//
// For graphs with coordinates the heuristic is Euclidean distance scaled by
// the largest factor that keeps it admissible on the given graph (the
// minimum weight-per-unit-length over all edges); for graphs without
// coordinates the heuristic is zero and A* degenerates to Dijkstra, which
// keeps it correct everywhere.
type AStar struct {
	mem
	g      *graph.CSR
	src    graph.NodeID
	target graph.NodeID
	delta  int64
	hscale float64
	dist   []int64

	ref *answer[int64] // sequential A*'s target distance
}

// NewAStar returns an A* search from src to target. delta <= 0 picks the
// same default bucket width as SSSP.
func NewAStar(g *graph.CSR, src, target graph.NodeID, delta int64) *AStar {
	if delta <= 0 {
		delta = defaultDelta(g)
	}
	w := &AStar{
		g: g, src: src, target: target, delta: delta,
		hscale: admissibleScale(g),
		dist:   make([]int64, g.NumNodes()),
		ref:    new(answer[int64]),
	}
	w.Reset()
	return w
}

// admissibleScale returns the largest s such that s * euclid(u, v) <= wt for
// every edge, making h(v) = s * euclid(v, target) an admissible heuristic.
// It returns 0 (heuristic disabled) for graphs without coordinates.
func admissibleScale(g *graph.CSR) float64 {
	if !g.HasCoords() {
		return 0
	}
	scale := math.Inf(1)
	for u := 0; u < g.NumNodes(); u++ {
		dsts, wts := g.Neighbors(graph.NodeID(u))
		for i, v := range dsts {
			d := euclid(g, graph.NodeID(u), v)
			if d <= 0 {
				continue
			}
			if s := float64(wts[i]) / d; s < scale {
				scale = s
			}
		}
	}
	if math.IsInf(scale, 1) {
		return 0
	}
	return scale
}

func euclid(g *graph.CSR, u, v graph.NodeID) float64 {
	dx := float64(g.X[u] - g.X[v])
	dy := float64(g.Y[u] - g.Y[v])
	return math.Sqrt(dx*dx + dy*dy)
}

// h returns the admissible heuristic estimate from u to the target.
func (w *AStar) h(u graph.NodeID) int64 {
	if w.hscale == 0 {
		return 0
	}
	return int64(w.hscale * euclid(w.g, u, w.target))
}

// Name implements Workload.
func (w *AStar) Name() string { return "astar" }

// Graph implements Workload.
func (w *AStar) Graph() *graph.CSR { return w.g }

// TargetDist returns the best distance to the target found so far.
func (w *AStar) TargetDist() int64 { return atomic.LoadInt64(&w.dist[w.target]) }

// Reset implements Workload.
func (w *AStar) Reset() {
	w.mem = mem{}
	for i := range w.dist {
		w.dist[i] = inf
	}
	w.dist[w.src] = 0
}

// InitialTasks implements Workload.
func (w *AStar) InitialTasks() []task.Task {
	return []task.Task{{Node: w.src, Prio: w.h(w.src) / w.delta, Data: 0}}
}

// Process implements Workload.
func (w *AStar) Process(t task.Task, emit func(task.Task)) int {
	u := t.Node
	d := int64(t.Data)
	if d > atomic.LoadInt64(&w.dist[u]) {
		return 0 // stale
	}
	// Prune: with an admissible heuristic, d + h(u) is a lower bound on any
	// target distance through u.
	best := atomic.LoadInt64(&w.dist[w.target])
	if d+w.h(u) >= best {
		return 0
	}
	dsts, wts := w.g.Neighbors(u)
	for i, v := range dsts {
		nd := d + int64(wts[i])
		if nd+w.h(v) >= atomic.LoadInt64(&w.dist[w.target]) {
			continue // cannot improve the target
		}
		if w.lower64(&w.dist[v], nd) {
			emit(task.Task{Node: v, Prio: (nd + w.h(v)) / w.delta, Data: uint64(nd)})
		}
	}
	return len(dsts)
}

// Clone implements Workload.
func (w *AStar) Clone() Workload {
	c := NewAStar(w.g, w.src, w.target, w.delta)
	c.ref = w.ref
	return c
}

// Verify implements Workload: the target distance must equal Dijkstra's.
// (Non-target distances legitimately differ because of pruning.)
func (w *AStar) Verify() error {
	want := w.ref.get(func() int64 { return seqAStar(w.g, w.src, w.target, w.hscale) })
	if got := w.dist[w.target]; got != want {
		return fmt.Errorf("astar: target dist = %d, want %d", got, want)
	}
	return nil
}

// seqAStar is the independent reference: textbook sequential A* (admissible
// heuristic, so the result equals the true shortest distance).
func seqAStar(g *graph.CSR, src, target graph.NodeID, hscale float64) int64 {
	h := func(u graph.NodeID) int64 {
		if hscale == 0 {
			return 0
		}
		return int64(hscale * euclid(g, u, target))
	}
	dist := make([]int64, g.NumNodes())
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	q := pq.NewBinaryHeap(1024)
	q.Push(task.Task{Node: src, Prio: h(src), Data: 0})
	for {
		t, ok := q.Pop()
		if !ok {
			return dist[target]
		}
		if t.Node == target {
			return dist[target]
		}
		d := int64(t.Data)
		if d > dist[t.Node] {
			continue
		}
		dsts, wts := g.Neighbors(t.Node)
		for i, v := range dsts {
			nd := d + int64(wts[i])
			if nd < dist[v] {
				dist[v] = nd
				q.Push(task.Task{Node: v, Prio: nd + h(v), Data: uint64(nd)})
			}
		}
	}
}
