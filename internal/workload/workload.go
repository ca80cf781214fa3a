// Package workload implements the paper's six task-parallel graph benchmarks
// (§IV-D): delta-stepping SSSP, A*, BFS, Boruvka MST, saturation/priority
// graph coloring, and push-style residual PageRank. Every workload exposes
// the same task interface so it can run unchanged under any scheduler — the
// deterministic simulator or the native goroutine runtime — and carries an
// independent sequential reference used to verify results and to measure
// work efficiency.
package workload

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hdcps/internal/graph"
	"hdcps/internal/pq"
	"hdcps/internal/task"
)

// Workload is a task-parallel algorithm instance over a fixed graph.
//
// Process must tolerate relaxed priority order and duplicated/stale tasks:
// schedulers may execute tasks in any order, and a correct workload
// converges to the same answer regardless (possibly doing redundant work,
// which is exactly what the paper's work-efficiency metric captures).
//
// After Reset, Process updates state with atomic read-modify-writes and
// stores, so the native runtime's workers may call it at once. The simulator
// and RunSequential call it from a single goroutine and start their runs
// with ResetSerial instead, which makes this package's workloads update
// state with plain memory operations until the next Reset; the answers, the
// task counts and the simulated cycles are the same in both modes.
type Workload interface {
	// Name returns the benchmark's short name (e.g. "sssp").
	Name() string
	// Graph returns the input graph the workload runs over.
	Graph() *graph.CSR
	// Reset re-initializes all algorithm state for a fresh run, in the
	// shared (atomic) mode whatever ResetSerial set before.
	Reset()
	// InitialTasks returns the tasks that seed the computation.
	InitialTasks() []task.Task
	// Process executes one task, calling emit for every child task it
	// creates, and returns the number of edges examined (the simulator's
	// compute-cost input).
	Process(t task.Task, emit func(task.Task)) int
	// Clone returns a fresh instance with identical parameters and
	// independent state, used to run the sequential baseline. It shares the
	// instance's reference answer (see answer).
	Clone() Workload
	// Verify checks the converged state against an independent sequential
	// reference and returns a descriptive error on mismatch.
	Verify() error
}

// answer is a workload's reference answer, shared by the instance that
// made it and every Clone of it: a clone keeps the graph and the
// parameters the answer depends on, so the first Verify computes it for all
// of them, once, and clones that Verify at the same time wait for that one
// computation.
type answer[T any] struct {
	once sync.Once
	v    T
}

// get returns the answer, computing it on the first call.
func (a *answer[T]) get(compute func() T) T {
	a.once.Do(func() { a.v = compute() })
	return a.v
}

// RunSequential drains w's task graph in strict priority order with a
// single priority queue and returns the number of tasks processed. It is
// the sequential baseline of the paper's work-efficiency and speedup
// metrics. Call it on a Clone, not on the instance a scheduler will run.
// One goroutine drives the whole run, so it starts with ResetSerial. A
// PageRank's reference answer is this run's ranks, so the run also fills
// it when no Verify has yet.
func RunSequential(w Workload) int64 {
	ResetSerial(w)
	n := DrainStrict(w)
	if pr, ok := w.(*PageRank); ok {
		pr.keepReference()
	}
	return n
}

// DrainStrict runs w from its InitialTasks to quiescence in strict priority
// order, in whichever mode the last Reset or ResetSerial left, and returns
// the number of tasks processed. Its queue, a pq.BucketHeap, pops in
// task.Less order, as a binary heap would.
func DrainStrict(w Workload) int64 {
	seeds := w.InitialTasks()
	q := pq.NewBucketHeap(max(1024, 2*len(seeds)))
	for _, t := range seeds {
		q.Push(t)
	}
	push := q.Push // one method value a run, not one a task
	var n int64
	for {
		t, ok := q.Pop()
		if !ok {
			break
		}
		n++
		w.Process(t, push)
	}
	return n
}

// ResetSerial resets w for a run that one goroutine drives from start to
// end: the simulator's and RunSequential's. This package's workloads then
// update their state with plain memory operations, which read and write the
// same values as the atomic ones when nothing else touches the state; any
// other Workload is only Reset. The next Reset goes back to shared mode, so
// a native engine, which Resets every workload it is given, never runs a
// serial kernel.
func ResetSerial(w Workload) {
	w.Reset()
	if s, ok := w.(interface{ mode() *mem }); ok {
		s.mode().serial = true
	}
}

// mem is how a kernel updates its state, embedded in every workload of this
// package. Its zero value, which every Reset restores, is shared: atomic
// read-modify-writes and stores, safe under concurrent Process calls.
// Serial, set by ResetSerial, uses plain ones. Loads stay atomic.Load* in
// both modes, a plain MOV on amd64.
type mem struct{ serial bool }

func (m *mem) mode() *mem { return m }

// add64 adds d to *p and returns the new value.
func (m *mem) add64(p *int64, d int64) int64 {
	if m.serial {
		v := *p + d
		*p = v
		return v
	}
	return atomic.AddInt64(p, d)
}

// swap64 stores v in *p and returns the old value.
func (m *mem) swap64(p *int64, v int64) int64 {
	if m.serial {
		old := *p
		*p = v
		return old
	}
	return atomic.SwapInt64(p, v)
}

// lower64 sets *p to v when v is below it and reports whether it did: the
// relaxation of SSSP, BFS and A*. Most relaxations improve nothing, so the
// mode is tested only on the way to a write.
func (m *mem) lower64(p *int64, v int64) bool {
	for {
		cur := atomic.LoadInt64(p)
		if v >= cur {
			return false
		}
		if m.serial {
			*p = v
			return true
		}
		if atomic.CompareAndSwapInt64(p, cur, v) {
			return true
		}
	}
}

// store32 stores v in *p.
func (m *mem) store32(p *int32, v int32) {
	if m.serial {
		*p = v
		return
	}
	atomic.StoreInt32(p, v)
}

// New constructs a workload by name with default parameters. Recognized
// names: sssp, astar, bfs, mst, color, pagerank (alias pr).
func New(name string, g *graph.CSR) (Workload, error) {
	switch name {
	case "sssp":
		return NewSSSP(g, graph.LargestComponentSeed(g), 0), nil
	case "astar":
		src := graph.LargestComponentSeed(g)
		// Deterministic far-away target: the node at the opposite corner of
		// the ID space, which for lattice-coordinate graphs is geometrically
		// far from the default source.
		dst := graph.NodeID(g.NumNodes() - 1 - int(src))
		return NewAStar(g, src, dst, 0), nil
	case "bfs":
		return NewBFS(g, graph.LargestComponentSeed(g)), nil
	case "mst":
		return NewMST(g), nil
	case "color":
		return NewColor(g), nil
	case "pagerank", "pr":
		return NewPageRank(g, 0), nil
	default:
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
}

// Names lists the available workload names in the paper's order.
func Names() []string {
	return []string{"sssp", "astar", "bfs", "mst", "color", "pagerank"}
}

const inf = int64(1) << 60
