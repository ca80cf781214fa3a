// Package graph provides the directed weighted graph substrate used by all
// workloads and schedulers: a compressed-sparse-row (CSR) representation,
// deterministic synthetic generators matching the shape statistics of the
// paper's inputs (Table II), loaders for the DIMACS and SNAP formats the
// paper's artifact uses, and graph statistics.
package graph

import (
	"fmt"
)

// NodeID identifies a vertex. The paper's inputs fit comfortably in 32 bits.
type NodeID = uint32

// Edge is a directed weighted edge used when building a graph.
type Edge struct {
	Src, Dst NodeID
	Wt       uint32
}

// CSR is a directed weighted graph in compressed-sparse-row form. Off has
// NumNodes+1 entries; the out-edges of node u are Dst[Off[u]:Off[u+1]] with
// parallel weights Wt[Off[u]:Off[u+1]].
//
// X and Y are optional per-node coordinates (set by the grid generator and
// used by the A* workload); they are nil for graphs without geometry.
type CSR struct {
	Name string
	Off  []uint32
	Dst  []NodeID
	Wt   []uint32
	X, Y []float32
}

// NumNodes returns the number of vertices.
func (g *CSR) NumNodes() int { return len(g.Off) - 1 }

// NumEdges returns the number of directed edges.
func (g *CSR) NumEdges() int { return len(g.Dst) }

// OutDegree returns the out-degree of u.
func (g *CSR) OutDegree(u NodeID) int { return int(g.Off[u+1] - g.Off[u]) }

// Neighbors returns the destination and weight slices for u's out-edges.
// The returned slices alias the graph and must not be modified.
func (g *CSR) Neighbors(u NodeID) ([]NodeID, []uint32) {
	lo, hi := g.Off[u], g.Off[u+1]
	return g.Dst[lo:hi], g.Wt[lo:hi]
}

// HasCoords reports whether per-node coordinates are available.
func (g *CSR) HasCoords() bool { return g.X != nil && g.Y != nil }

// FromEdges builds a CSR graph with n nodes from an arbitrary edge list.
// Edges are grouped by source; the relative order of a node's out-edges
// follows the input order. Duplicate edges are kept (multigraphs are legal
// inputs for all workloads). Edges referencing nodes >= n are rejected.
func FromEdges(name string, n int, edges []Edge) (*CSR, error) {
	deg := make([]uint32, n+1)
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d->%d) out of range for %d nodes", e.Src, e.Dst, n)
		}
		deg[e.Src+1]++
	}
	off := make([]uint32, n+1)
	for i := 1; i <= n; i++ {
		off[i] = off[i-1] + deg[i]
	}
	dst := make([]NodeID, len(edges))
	wt := make([]uint32, len(edges))
	next := make([]uint32, n)
	copy(next, off[:n])
	for _, e := range edges {
		i := next[e.Src]
		next[e.Src]++
		dst[i] = e.Dst
		wt[i] = e.Wt
	}
	return &CSR{Name: name, Off: off, Dst: dst, Wt: wt}, nil
}

// Symmetrize returns the undirected closure of g: for every edge u->v the
// result contains both u->v and v->u with the same weight, with exact
// duplicate (src, dst, wt) triples removed. Workloads that need symmetric
// adjacency (graph coloring, Boruvka MST) run on the symmetrized graph.
func (g *CSR) Symmetrize() *CSR {
	n := g.NumNodes()
	type key struct {
		u, v NodeID
		w    uint32
	}
	seen := make(map[key]bool, g.NumEdges()*2)
	edges := make([]Edge, 0, g.NumEdges()*2)
	add := func(u, v NodeID, w uint32) {
		k := key{u, v, w}
		if u == v || seen[k] {
			return
		}
		seen[k] = true
		edges = append(edges, Edge{u, v, w})
	}
	for u := 0; u < n; u++ {
		dsts, wts := g.Neighbors(NodeID(u))
		for i, v := range dsts {
			add(NodeID(u), v, wts[i])
			add(v, NodeID(u), wts[i])
		}
	}
	sg, err := FromEdges(g.Name+"-sym", n, edges)
	if err != nil {
		panic(err) // edges come from a valid graph of the same size
	}
	sg.X, sg.Y = g.X, g.Y
	return sg
}
