package workload

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"hdcps/internal/graph"
	"hdcps/internal/task"
)

// Color is priority graph coloring (§IV-D): vertices are prioritized by
// degree (highest degree first, the saturation-style order of [26]) and
// colored speculatively — a task colors its vertex with the smallest color
// unused by currently-colored neighbors, then re-colors (and re-queues)
// itself if a concurrent higher-priority neighbor took the same color.
// Scheduling order does not affect correctness, only the number of colors
// and the conflict-retry count; within any conflict set the globally
// highest-priority vertex never re-colors, so the process terminates under
// every schedule.
//
// The workload runs on the symmetrized input (coloring is an undirected
// constraint).
type Color struct {
	mem
	g     *graph.CSR // symmetrized
	color []int32    // -1 = uncolored; atomic
}

const (
	uncolored = int32(-1)
	// colorStackWords bounds Process's free-color bitset on the stack: a
	// vertex of degree up to 64·colorStackWords-1 colors without allocating.
	colorStackWords = 16
)

// NewColor returns a coloring workload over the symmetrized g.
func NewColor(g *graph.CSR) *Color {
	w := &Color{g: g.Symmetrize()}
	w.color = make([]int32, w.g.NumNodes())
	w.Reset()
	return w
}

// Name implements Workload.
func (w *Color) Name() string { return "color" }

// Graph implements Workload.
func (w *Color) Graph() *graph.CSR { return w.g }

// Colors returns the per-node color assignment.
func (w *Color) Colors() []int32 { return w.color }

// NumColors returns the number of distinct colors used so far.
func (w *Color) NumColors() int {
	max := int32(-1)
	for i := range w.color {
		if c := atomic.LoadInt32(&w.color[i]); c > max {
			max = c
		}
	}
	return int(max + 1)
}

// Reset implements Workload.
func (w *Color) Reset() {
	w.mem = mem{}
	for i := range w.color {
		w.color[i] = uncolored
	}
}

// prio returns the scheduling priority of node u: higher degree first,
// ties broken by ID so the priority order is total (required for
// Jones–Plassmann to terminate).
func (w *Color) prio(u graph.NodeID) int64 {
	return -int64(w.g.OutDegree(u))
}

// higherPriority reports whether v precedes u in the coloring order.
func (w *Color) higherPriority(v, u graph.NodeID) bool {
	dv, du := w.g.OutDegree(v), w.g.OutDegree(u)
	if dv != du {
		return dv > du
	}
	return v < u
}

// InitialTasks implements Workload.
func (w *Color) InitialTasks() []task.Task {
	ts := make([]task.Task, w.g.NumNodes())
	for i := range ts {
		u := graph.NodeID(i)
		ts[i] = task.Task{Node: u, Prio: w.prio(u)}
	}
	return ts
}

// Process implements Workload: speculative greedy coloring with
// conflict-driven retry.
func (w *Color) Process(t task.Task, emit func(task.Task)) int {
	u := t.Node
	dsts, _ := w.g.Neighbors(u)
	cu := atomic.LoadInt32(&w.color[u])
	if cu != uncolored {
		// Already colored: this is a conflict-check pass (or a duplicate).
		// Re-color only if a higher-priority neighbor holds our color.
		conflict := false
		for _, v := range dsts {
			if v != u && w.higherPriority(v, u) && atomic.LoadInt32(&w.color[v]) == cu {
				conflict = true
				break
			}
		}
		if !conflict {
			return len(dsts)
		}
		w.store32(&w.color[u], uncolored)
	}
	// Take the smallest color unused by currently colored neighbors. It is
	// at most the degree, so a bitset of deg+1 colors finds it: on the
	// stack up to colorStackWords words, allocated only for a hub past that.
	var stack [colorStackWords]uint64
	used := stack[:]
	if n := len(dsts)/64 + 1; n > len(stack) {
		used = make([]uint64, n)
	}
	for _, v := range dsts {
		if c := atomic.LoadInt32(&w.color[v]); v != u && c != uncolored && int(c) <= len(dsts) {
			used[c/64] |= 1 << (c % 64)
		}
	}
	i := 0
	for used[i] == ^uint64(0) {
		i++
	}
	c := int32(i*64 + bits.TrailingZeros64(^used[i]))
	w.store32(&w.color[u], c)
	// Validate against neighbors that raced us. The later writer of a
	// conflicting pair is guaranteed to observe the earlier write here, and
	// it queues a retry for the pair's *lower-priority* vertex — so every
	// race is detected by at least one side and the highest-priority vertex
	// of a conflict never re-colors (termination).
	retriedSelf := false
	for _, v := range dsts {
		if v == u || atomic.LoadInt32(&w.color[v]) != c {
			continue
		}
		if w.higherPriority(v, u) {
			if !retriedSelf {
				retriedSelf = true
				emit(task.Task{Node: u, Prio: t.Prio})
			}
		} else {
			emit(task.Task{Node: v, Prio: w.prio(v)})
		}
	}
	return len(dsts)
}

// Clone implements Workload. It reuses the already-symmetrized graph.
func (w *Color) Clone() Workload {
	c := &Color{g: w.g, color: make([]int32, w.g.NumNodes())}
	c.Reset()
	return c
}

// Verify implements Workload: every node colored, no edge monochromatic.
func (w *Color) Verify() error {
	for u := 0; u < w.g.NumNodes(); u++ {
		cu := w.color[u]
		if cu == uncolored {
			return fmt.Errorf("color: node %d left uncolored", u)
		}
		dsts, _ := w.g.Neighbors(graph.NodeID(u))
		for _, v := range dsts {
			if graph.NodeID(u) != v && w.color[v] == cu {
				return fmt.Errorf("color: edge %d-%d monochromatic (color %d)", u, v, cu)
			}
		}
	}
	return nil
}
