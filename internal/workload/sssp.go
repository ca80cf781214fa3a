package workload

import (
	"fmt"
	"sync/atomic"

	"hdcps/internal/graph"
	"hdcps/internal/pq"
	"hdcps/internal/task"
)

// SSSP is delta-stepping single-source shortest paths (§IV-D): each task
// relaxes one vertex, its priority is the vertex's tentative distance
// quantized by delta (lower distance = higher priority), and stale tasks
// (whose distance proposal has been beaten) are cheap no-ops that count as
// redundant work.
type SSSP struct {
	mem
	g     *graph.CSR
	src   graph.NodeID
	delta int64
	dist  []int64 // atomic tentative distances

	ref *answer[[]int64] // sequential Dijkstra distances
}

// NewSSSP returns a delta-stepping SSSP from src. delta <= 0 selects a
// heuristic bucket width of about the average edge weight, the standard
// delta-stepping choice.
func NewSSSP(g *graph.CSR, src graph.NodeID, delta int64) *SSSP {
	if delta <= 0 {
		delta = defaultDelta(g)
	}
	w := &SSSP{g: g, src: src, delta: delta, dist: make([]int64, g.NumNodes()), ref: new(answer[[]int64])}
	w.Reset()
	return w
}

// defaultDelta picks a bucket width near the average edge weight, clamped
// to at least 1.
func defaultDelta(g *graph.CSR) int64 {
	if g.NumEdges() == 0 {
		return 1
	}
	var sum int64
	for _, w := range g.Wt {
		sum += int64(w)
	}
	d := sum / int64(g.NumEdges())
	if d < 1 {
		d = 1
	}
	return d
}

// Name implements Workload.
func (w *SSSP) Name() string { return "sssp" }

// Graph implements Workload.
func (w *SSSP) Graph() *graph.CSR { return w.g }

// Dist returns the tentative-distance array (inf for unreachable nodes).
// Valid after a scheduler has drained all tasks.
func (w *SSSP) Dist() []int64 { return w.dist }

// Reset implements Workload.
func (w *SSSP) Reset() {
	w.mem = mem{}
	for i := range w.dist {
		w.dist[i] = inf
	}
	w.dist[w.src] = 0
}

// InitialTasks implements Workload.
func (w *SSSP) InitialTasks() []task.Task {
	return []task.Task{{Node: w.src, Prio: 0, Data: 0}}
}

// Process implements Workload: relax u's out-edges if the task's distance
// proposal is still current.
func (w *SSSP) Process(t task.Task, emit func(task.Task)) int {
	u := t.Node
	d := int64(t.Data)
	if d > atomic.LoadInt64(&w.dist[u]) {
		return 0 // stale: a better distance already settled u
	}
	dsts, wts := w.g.Neighbors(u)
	for i, v := range dsts {
		if nd := d + int64(wts[i]); w.lower64(&w.dist[v], nd) {
			emit(task.Task{Node: v, Prio: nd / w.delta, Data: uint64(nd)})
		}
	}
	return len(dsts)
}

// Clone implements Workload.
func (w *SSSP) Clone() Workload {
	c := NewSSSP(w.g, w.src, w.delta)
	c.ref = w.ref
	return c
}

// Verify implements Workload: compares against sequential Dijkstra.
func (w *SSSP) Verify() error {
	ref := w.ref.get(func() []int64 { return dijkstra(w.g, w.src) })
	for i, want := range ref {
		if w.dist[i] != want {
			return fmt.Errorf("sssp: dist[%d] = %d, want %d", i, w.dist[i], want)
		}
	}
	return nil
}

// dijkstra is the independent reference: a textbook binary-heap Dijkstra.
func dijkstra(g *graph.CSR, src graph.NodeID) []int64 {
	dist := make([]int64, g.NumNodes())
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	q := pq.NewBinaryHeap(1024)
	q.Push(task.Task{Node: src, Prio: 0, Data: 0})
	for {
		t, ok := q.Pop()
		if !ok {
			return dist
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
				q.Push(task.Task{Node: v, Prio: nd, Data: uint64(nd)})
			}
		}
	}
}
