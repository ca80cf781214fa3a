package workload

import (
	"fmt"
	"sync/atomic"

	"hdcps/internal/graph"
	"hdcps/internal/task"
)

// BFS is breadth-first search expressed as tasks (§IV-D): SSSP with every
// edge weight treated as one, so a task's priority is its depth from the
// source. Relaxed order makes depths settle out of order and produces the
// redundant re-visits the paper's work-efficiency metric measures.
type BFS struct {
	mem
	g     *graph.CSR
	src   graph.NodeID
	level []int64

	ref *answer[[]int64] // array-queue BFS levels
}

// NewBFS returns a BFS from src.
func NewBFS(g *graph.CSR, src graph.NodeID) *BFS {
	w := &BFS{g: g, src: src, level: make([]int64, g.NumNodes()), ref: new(answer[[]int64])}
	w.Reset()
	return w
}

// Name implements Workload.
func (w *BFS) Name() string { return "bfs" }

// Graph implements Workload.
func (w *BFS) Graph() *graph.CSR { return w.g }

// Level returns the per-node depth array (inf for unreachable).
func (w *BFS) Level() []int64 { return w.level }

// Reset implements Workload.
func (w *BFS) Reset() {
	w.mem = mem{}
	for i := range w.level {
		w.level[i] = inf
	}
	w.level[w.src] = 0
}

// InitialTasks implements Workload.
func (w *BFS) InitialTasks() []task.Task {
	return []task.Task{{Node: w.src, Prio: 0, Data: 0}}
}

// Process implements Workload.
func (w *BFS) Process(t task.Task, emit func(task.Task)) int {
	u := t.Node
	d := int64(t.Data)
	if d > atomic.LoadInt64(&w.level[u]) {
		return 0
	}
	dsts, _ := w.g.Neighbors(u)
	nd := d + 1
	for _, v := range dsts {
		if w.lower64(&w.level[v], nd) {
			emit(task.Task{Node: v, Prio: nd, Data: uint64(nd)})
		}
	}
	return len(dsts)
}

// Clone implements Workload.
func (w *BFS) Clone() Workload {
	c := NewBFS(w.g, w.src)
	c.ref = w.ref
	return c
}

// Verify implements Workload: compares against an array-queue BFS.
func (w *BFS) Verify() error {
	ref := w.ref.get(func() []int64 { return refBFS(w.g, w.src) })
	for i, want := range ref {
		if w.level[i] != want {
			return fmt.Errorf("bfs: level[%d] = %d, want %d", i, w.level[i], want)
		}
	}
	return nil
}

func refBFS(g *graph.CSR, src graph.NodeID) []int64 {
	level := make([]int64, g.NumNodes())
	for i := range level {
		level[i] = inf
	}
	level[src] = 0
	queue := []graph.NodeID{src}
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		dsts, _ := g.Neighbors(u)
		for _, v := range dsts {
			if level[v] == inf {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return level
}
