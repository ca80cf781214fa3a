package workload

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hdcps/internal/graph"
	"hdcps/internal/task"
)

// MST is Boruvka's minimum-spanning-forest algorithm as tasks (§IV-D). Each
// task owns one component: it scans the component's surviving edge list for
// the lightest edge leaving the component, contracts it (union), and emits a
// new task for the merged component prioritized by its degree (the paper's
// priority), so small components merge first. Tasks for components that were
// merged away in the meantime are the workload's redundant work.
//
// The input is treated as an undirected graph (each directed edge is a
// connection); the total forest weight is compared against Kruskal.
type MST struct {
	mem
	g *graph.CSR

	mu     sync.Mutex // guards parent unions and adjacency merging
	parent []uint32
	adj    [][]mstEdge // per-root surviving candidate edges
	weight int64       // accumulated forest weight (atomic)
	merges int64       // number of contractions performed (atomic)

	ref *answer[forest] // Kruskal's
}

// forest is a spanning forest's total weight and edge count.
type forest struct{ weight, edges int64 }

type mstEdge struct {
	to graph.NodeID
	wt uint32
}

// NewMST returns a Boruvka MST over g. The graph is symmetrized first: a
// component must see *every* edge crossing its cut (including the input's
// in-edges) or the cut property that makes Boruvka correct does not hold.
func NewMST(g *graph.CSR) *MST {
	w := &MST{g: g.Symmetrize(), ref: new(answer[forest])}
	w.Reset()
	return w
}

// Name implements Workload.
func (w *MST) Name() string { return "mst" }

// Graph implements Workload.
func (w *MST) Graph() *graph.CSR { return w.g }

// Weight returns the forest weight accumulated so far.
func (w *MST) Weight() int64 { return atomic.LoadInt64(&w.weight) }

// Merges returns the number of contractions performed.
func (w *MST) Merges() int64 { return atomic.LoadInt64(&w.merges) }

// Reset implements Workload.
func (w *MST) Reset() {
	w.mem = mem{}
	n := w.g.NumNodes()
	w.parent = make([]uint32, n)
	w.adj = make([][]mstEdge, n)
	for i := 0; i < n; i++ {
		w.parent[i] = uint32(i)
		dsts, wts := w.g.Neighbors(graph.NodeID(i))
		edges := make([]mstEdge, 0, len(dsts))
		for k, v := range dsts {
			if v != graph.NodeID(i) {
				edges = append(edges, mstEdge{to: v, wt: wts[k]})
			}
		}
		w.adj[i] = edges
	}
	atomic.StoreInt64(&w.weight, 0)
	atomic.StoreInt64(&w.merges, 0)
}

// find follows parent pointers with path halving. Safe under the workload
// mutex; reads outside the mutex are only used as a staleness fast-path.
func (w *MST) find(u uint32) uint32 {
	for w.parent[u] != u {
		w.parent[u] = w.parent[w.parent[u]]
		u = w.parent[u]
	}
	return u
}

// InitialTasks implements Workload: one task per node, prioritized by its
// degree so low-degree components contract first.
func (w *MST) InitialTasks() []task.Task {
	ts := make([]task.Task, w.g.NumNodes())
	for i := range ts {
		ts[i] = task.Task{Node: graph.NodeID(i), Prio: int64(len(w.adj[i]))}
	}
	return ts
}

// Process implements Workload: contract the lightest edge leaving the
// task's component, if the component still exists.
func (w *MST) Process(t task.Task, emit func(task.Task)) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	root := w.find(uint32(t.Node))
	if root != uint32(t.Node) {
		return 1 // stale: this component was merged into another
	}
	// Scan the component's candidate edges for the lightest one leaving it,
	// compacting dead (internal) edges as we go — Boruvka's lazy filtering.
	edges := w.adj[root]
	live := edges[:0]
	bestIdx := -1
	var best mstEdge
	for _, e := range edges {
		to := w.find(uint32(e.to))
		if to == root {
			continue // internal edge: drop it
		}
		e.to = graph.NodeID(to)
		live = append(live, e)
		if bestIdx == -1 || e.wt < best.wt || (e.wt == best.wt && e.to < best.to) {
			best = e
			bestIdx = len(live) - 1
		}
	}
	scanned := len(edges)
	w.adj[root] = live
	if bestIdx == -1 {
		return scanned + 1 // isolated component: done
	}
	// Contract: merge the smaller adjacency into the larger (weighted
	// union keeps list concatenation cheap).
	other := uint32(best.to)
	a, b := root, other
	if len(w.adj[a]) < len(w.adj[b]) {
		a, b = b, a
	}
	w.parent[b] = a
	w.adj[a] = append(w.adj[a], w.adj[b]...)
	w.adj[b] = nil
	w.add64(&w.weight, int64(best.wt))
	w.add64(&w.merges, 1)
	emit(task.Task{Node: graph.NodeID(a), Prio: int64(len(w.adj[a]))})
	return scanned + 1
}

// Clone implements Workload. It reuses the already-symmetrized graph and the
// reference answer.
func (w *MST) Clone() Workload {
	c := &MST{g: w.g, ref: w.ref}
	c.Reset()
	return c
}

// Verify implements Workload: forest weight and edge count must match
// Kruskal's (the minimum forest weight is unique even when the forest
// itself is not).
func (w *MST) Verify() error {
	ref := w.ref.get(func() forest { return kruskal(w.g) })
	if got := w.Merges(); got != ref.edges {
		return fmt.Errorf("mst: %d merges, want %d", got, ref.edges)
	}
	if got := w.Weight(); got != ref.weight {
		return fmt.Errorf("mst: weight %d, want %d", got, ref.weight)
	}
	return nil
}

// kruskal is the independent reference: sort-and-union over the undirected
// edge set, returning the minimum spanning forest's weight and edge count.
func kruskal(g *graph.CSR) forest {
	type edge struct {
		u, v graph.NodeID
		wt   uint32
	}
	edges := make([]edge, 0, g.NumEdges())
	for u := 0; u < g.NumNodes(); u++ {
		dsts, wts := g.Neighbors(graph.NodeID(u))
		for i, v := range dsts {
			if graph.NodeID(u) != v {
				edges = append(edges, edge{graph.NodeID(u), v, wts[i]})
			}
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].wt < edges[b].wt })
	parent := make([]uint32, g.NumNodes())
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(uint32) uint32
	find = func(u uint32) uint32 {
		for parent[u] != u {
			parent[u] = parent[parent[u]]
			u = parent[u]
		}
		return u
	}
	var weight, count int64
	for _, e := range edges {
		ru, rv := find(uint32(e.u)), find(uint32(e.v))
		if ru != rv {
			parent[ru] = rv
			weight += int64(e.wt)
			count++
		}
	}
	return forest{weight, count}
}
