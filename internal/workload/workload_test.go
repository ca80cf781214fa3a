package workload

import (
	"reflect"
	goruntime "runtime"
	"sync/atomic"
	"testing"

	"hdcps/internal/graph"
	"hdcps/internal/pq"
	"hdcps/internal/task"
)

// runLIFO drains a workload in deliberately bad (stack) order. Correct
// workloads must converge to the right answer anyway, just with more tasks;
// this is the relaxed-order tolerance contract every scheduler relies on.
func runLIFO(w Workload) int64 {
	w.Reset()
	stack := append([]task.Task(nil), w.InitialTasks()...)
	var n int64
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n++
		if n > 100_000_000 {
			panic("workload did not terminate under LIFO order")
		}
		w.Process(t, func(c task.Task) { stack = append(stack, c) })
	}
	return n
}

// runRandomized drains a workload popping pseudo-random queue positions.
func runRandomized(w Workload, seed uint64) int64 {
	w.Reset()
	r := graph.NewRNG(seed)
	queue := append([]task.Task(nil), w.InitialTasks()...)
	var n int64
	for len(queue) > 0 {
		i := r.Intn(len(queue))
		t := queue[i]
		queue[i] = queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		n++
		if n > 100_000_000 {
			panic("workload did not terminate under random order")
		}
		w.Process(t, func(c task.Task) { queue = append(queue, c) })
	}
	return n
}

// e builds a keyed edge literal.
func e(u, v graph.NodeID, w uint32) graph.Edge {
	return graph.Edge{Src: u, Dst: v, Wt: w}
}

func testGraphs() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"road": graph.Road(20, 20, 3),
		"cage": graph.Cage(400, 10, 24, 3),
		"web":  graph.Web(400, 3),
		"grid": graph.Grid(16, 16, 50, 3),
	}
}

func TestAllWorkloadsSequential(t *testing.T) {
	for gname, g := range testGraphs() {
		for _, wname := range Names() {
			w, err := New(wname, g)
			if err != nil {
				t.Fatalf("New(%s): %v", wname, err)
			}
			n := RunSequential(w)
			if n <= 0 {
				t.Fatalf("%s/%s: sequential run processed %d tasks", wname, gname, n)
			}
			if err := w.Verify(); err != nil {
				t.Errorf("%s/%s: %v", wname, gname, err)
			}
		}
	}
}

func TestAllWorkloadsRelaxedOrders(t *testing.T) {
	for gname, g := range testGraphs() {
		for _, wname := range Names() {
			w, err := New(wname, g)
			if err != nil {
				t.Fatal(err)
			}
			seq := RunSequential(w.Clone())
			lifo := runLIFO(w)
			if err := w.Verify(); err != nil {
				t.Errorf("%s/%s LIFO: %v", wname, gname, err)
			}
			if lifo < seq {
				// Relaxed order can only add work, never remove it, except
				// for A* where pruning makes comparisons input-dependent.
				if wname != "astar" {
					t.Errorf("%s/%s: LIFO did %d tasks < sequential %d", wname, gname, lifo, seq)
				}
			}
			rnd := runRandomized(w, 99)
			if err := w.Verify(); err != nil {
				t.Errorf("%s/%s random: %v", wname, gname, err)
			}
			if rnd <= 0 {
				t.Errorf("%s/%s: empty random run", wname, gname)
			}
		}
	}
}

func TestWorkloadResetIsClean(t *testing.T) {
	g := graph.Road(15, 15, 1)
	for _, wname := range Names() {
		w, _ := New(wname, g)
		first := RunSequential(w)
		second := RunSequential(w) // RunSequential resets internally
		if first != second {
			t.Errorf("%s: reset not clean: %d vs %d tasks", wname, first, second)
		}
		if err := w.Verify(); err != nil {
			t.Errorf("%s after reset: %v", wname, err)
		}
	}
}

func TestNewUnknownWorkload(t *testing.T) {
	if _, err := New("nope", graph.Grid(3, 3, 1, 1)); err == nil {
		t.Fatal("unknown workload should error")
	}
}

func TestSSSPMatchesDijkstraExactly(t *testing.T) {
	g := graph.Road(30, 30, 7)
	w := NewSSSP(g, 0, 0)
	runRandomized(w, 1)
	want := dijkstra(g, 0)
	for i, d := range w.Dist() {
		if d != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, d, want[i])
		}
	}
}

func TestSSSPStaleTaskIsNoop(t *testing.T) {
	g := graph.Grid(4, 4, 5, 1)
	w := NewSSSP(g, 0, 1)
	RunSequential(w)
	emitted := 0
	// A task whose proposal is worse than the settled distance must do
	// nothing.
	edges := w.Process(task.Task{Node: 5, Prio: 999, Data: 1 << 40}, func(task.Task) { emitted++ })
	if edges != 0 || emitted != 0 {
		t.Fatalf("stale task did work: edges=%d emitted=%d", edges, emitted)
	}
}

func TestSSSPDefaultDelta(t *testing.T) {
	g := graph.Grid(5, 5, 100, 2)
	w := NewSSSP(g, 0, 0)
	if w.delta < 1 {
		t.Fatalf("delta = %d", w.delta)
	}
	empty, _ := graph.FromEdges("e", 3, nil)
	if NewSSSP(empty, 0, 0).delta != 1 {
		t.Fatal("edgeless graph delta should be 1")
	}
}

func TestBFSLevels(t *testing.T) {
	// Path graph 0-1-2-3.
	g, _ := graph.FromEdges("path", 4, []graph.Edge{
		e(0, 1, 1), e(1, 0, 1), e(1, 2, 1), e(2, 1, 1), e(2, 3, 1), e(3, 2, 1),
	})
	w := NewBFS(g, 0)
	runLIFO(w)
	for i, want := range []int64{0, 1, 2, 3} {
		if w.Level()[i] != want {
			t.Fatalf("level[%d] = %d, want %d", i, w.Level()[i], want)
		}
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g, _ := graph.FromEdges("2cc", 3, []graph.Edge{e(0, 1, 1)})
	w := NewBFS(g, 0)
	RunSequential(w)
	if w.Level()[2] != inf {
		t.Fatalf("unreachable node level = %d", w.Level()[2])
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAStarFindsShortestPath(t *testing.T) {
	g := graph.Grid(20, 20, 9, 5)
	src, dst := graph.NodeID(0), graph.NodeID(399)
	w := NewAStar(g, src, dst, 1)
	runRandomized(w, 5)
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	// Cross-check against plain Dijkstra.
	want := dijkstra(g, src)[dst]
	if got := w.TargetDist(); got != want {
		t.Fatalf("target dist = %d, want %d", got, want)
	}
}

func TestAStarPrunesWork(t *testing.T) {
	// With a strong heuristic, A* to a nearby target should process far
	// fewer tasks than full SSSP on the same graph.
	g := graph.Grid(40, 40, 1, 5) // uniform weights: heuristic is exact
	src, dst := graph.NodeID(0), graph.NodeID(41)
	astarTasks := RunSequential(NewAStar(g, src, dst, 1))
	ssspTasks := RunSequential(NewSSSP(g, src, 1))
	if astarTasks*4 > ssspTasks {
		t.Fatalf("A* did not prune: %d tasks vs SSSP %d", astarTasks, ssspTasks)
	}
}

func TestAStarNoCoordsFallsBack(t *testing.T) {
	// Graph without coordinates: heuristic 0, still correct.
	g, _ := graph.FromEdges("nocoord", 4, []graph.Edge{
		e(0, 1, 5), e(1, 2, 5), e(0, 2, 20), e(2, 3, 1),
	})
	w := NewAStar(g, 0, 3, 1)
	RunSequential(w)
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if w.TargetDist() != 11 {
		t.Fatalf("target dist = %d, want 11", w.TargetDist())
	}
}

func TestMSTWeight(t *testing.T) {
	// Hand-checkable square with diagonal: nodes 0..3,
	// edges (0-1:1) (1-2:2) (2-3:3) (3-0:4) (0-2:5). MST = 1+2+3 = 6.
	edges := []graph.Edge{}
	und := func(u, v graph.NodeID, w uint32) {
		edges = append(edges, graph.Edge{Src: u, Dst: v, Wt: w}, graph.Edge{Src: v, Dst: u, Wt: w})
	}
	und(0, 1, 1)
	und(1, 2, 2)
	und(2, 3, 3)
	und(3, 0, 4)
	und(0, 2, 5)
	g, _ := graph.FromEdges("sq", 4, edges)
	w := NewMST(g)
	RunSequential(w)
	if w.Weight() != 6 || w.Merges() != 3 {
		t.Fatalf("MST weight=%d merges=%d, want 6/3", w.Weight(), w.Merges())
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMSTForest(t *testing.T) {
	// Two disconnected components: result is a forest.
	g, _ := graph.FromEdges("forest", 5, []graph.Edge{
		e(0, 1, 2), e(1, 0, 2), e(2, 3, 7), e(3, 2, 7), e(3, 4, 1), e(4, 3, 1),
	})
	w := NewMST(g)
	runLIFO(w)
	if w.Weight() != 10 || w.Merges() != 3 {
		t.Fatalf("forest weight=%d merges=%d, want 10/3", w.Weight(), w.Merges())
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestColorProper(t *testing.T) {
	g := graph.Web(300, 9)
	w := NewColor(g)
	runRandomized(w, 17)
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if w.NumColors() < 1 {
		t.Fatal("no colors used")
	}
}

func TestColorPriorityOrderUsesFewColors(t *testing.T) {
	// On a star graph, degree-priority coloring uses exactly 2 colors. The
	// larger star's hub is past Process's stack bitset.
	for _, n := range []int{10, 64*colorStackWords + 1} {
		edges := []graph.Edge{}
		for i := 1; i < n; i++ {
			edges = append(edges,
				graph.Edge{Src: 0, Dst: graph.NodeID(i), Wt: 1},
				graph.Edge{Src: graph.NodeID(i), Dst: 0, Wt: 1})
		}
		g, _ := graph.FromEdges("star", n, edges)
		for _, lifo := range []bool{false, true} {
			w := NewColor(g)
			if lifo {
				runLIFO(w) // the hub colors last, against colored leaves
			} else {
				RunSequential(w)
			}
			if err := w.Verify(); err != nil {
				t.Fatal(err)
			}
			if w.NumColors() != 2 {
				t.Fatalf("star(%d) colored with %d colors, want 2", n, w.NumColors())
			}
			// Hub (highest degree) gets color 0 in priority order.
			if !lifo && w.Colors()[0] != 0 {
				t.Fatalf("star(%d) hub color = %d, want 0", n, w.Colors()[0])
			}
		}
	}
}

func TestColorBadOrderStillProper(t *testing.T) {
	// Speculative coloring must stay proper under any order; bad orders can
	// only cost extra colors, never correctness.
	n := 50
	edges := []graph.Edge{}
	for i := 1; i < n; i++ {
		edges = append(edges,
			graph.Edge{Src: 0, Dst: graph.NodeID(i), Wt: 1},
			graph.Edge{Src: graph.NodeID(i), Dst: 0, Wt: 1})
	}
	g, _ := graph.FromEdges("star", n, edges)
	w := NewColor(g)
	if tasks := runLIFO(w); tasks < int64(n) {
		t.Fatalf("LIFO processed %d tasks for %d nodes", tasks, n)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	ordered := RunSequential(w.Clone().(*Color))
	if ordered < int64(n) {
		t.Fatalf("sequential processed %d tasks", ordered)
	}
}

func TestPageRankConverges(t *testing.T) {
	g := graph.Web(300, 4)
	w := NewPageRank(g, 0)
	RunSequential(w)
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	// Total mass: sum of ranks should approach n * scale (what full
	// convergence would deliver), and must be positive and below it.
	var sum int64
	for _, r := range w.Rank() {
		sum += r
	}
	n := int64(g.NumNodes())
	if sum <= 0 || sum > n*prScale {
		t.Fatalf("rank mass %d out of range (n*scale = %d)", sum, n*prScale)
	}
	if sum < n*prScale/2 {
		t.Fatalf("rank mass %d too low; not converged (n*scale = %d)", sum, n*prScale)
	}
}

func TestPageRankPriorityHelps(t *testing.T) {
	// Priority order (big residuals first) should not process more tasks
	// than a LIFO order on a power-law graph.
	g := graph.LJ(400, 8)
	seq := RunSequential(NewPageRank(g, 0))
	w := NewPageRank(g, 0)
	lifo := runLIFO(w)
	if seq > lifo {
		t.Fatalf("priority order did more work: %d vs LIFO %d", seq, lifo)
	}
}

func TestPRPrioMonotone(t *testing.T) {
	// Bigger residual must never get a numerically larger (worse) priority.
	last := prPrio(1)
	for shift := 1; shift < 40; shift++ {
		p := prPrio(1 << shift)
		if p > last {
			t.Fatalf("prPrio not monotone at 1<<%d", shift)
		}
		last = p
	}
	// Sub-octave resolution: residuals in the same octave but different
	// top bits must differ in priority (4 sub-levels per octave).
	if prPrio(1<<20) == prPrio(1<<20|1<<19) {
		t.Fatal("prPrio lacks sub-octave resolution")
	}
	if prPrio(0) <= 0 || prPrio(-5) <= 0 {
		t.Fatal("non-positive residuals must map to lowest priority")
	}
}

func TestWorkEfficiencyDegradesWithBadOrder(t *testing.T) {
	// The premise of the whole paper: for SSSP on a road-like graph,
	// processing in priority order does less work than bad orders.
	g := graph.Road(30, 30, 11)
	src := graph.LargestComponentSeed(g)
	seq := RunSequential(NewSSSP(g, src, 0))
	lifo := runLIFO(NewSSSP(g, src, 0))
	if lifo <= seq {
		t.Fatalf("LIFO (%d tasks) not worse than priority order (%d)", lifo, seq)
	}
}

// modeOf reports whether w is in serial mode.
func modeOf(t *testing.T, w Workload) bool {
	t.Helper()
	m, ok := w.(interface{ mode() *mem })
	if !ok {
		t.Fatalf("%s has no serial mode", w.Name())
	}
	return m.mode().serial
}

// ResetSerial puts every workload of this package in serial mode, and Reset
// takes it back to shared whatever ran before. A Workload from outside the
// package is only Reset.
func TestResetSerialMode(t *testing.T) {
	g := graph.Road(8, 8, 1)
	for _, name := range Names() {
		w, err := New(name, g)
		if err != nil {
			t.Fatal(err)
		}
		if modeOf(t, w) {
			t.Errorf("%s: New left serial mode", name)
		}
		RunSequential(w)
		if !modeOf(t, w) {
			t.Errorf("%s: RunSequential ran in shared mode", name)
		}
		w.Reset()
		if modeOf(t, w) {
			t.Errorf("%s: Reset after a serial run left serial mode", name)
		}
		RunSequential(w)
		foreign := struct{ Workload }{w}
		ResetSerial(foreign)
		if modeOf(t, w) {
			t.Errorf("%s: ResetSerial through a foreign Workload left serial mode", name)
		}
	}
}

// state is w's final state, compared bit for bit.
func state(w Workload) any {
	switch w := w.(type) {
	case *SSSP:
		return w.dist
	case *BFS:
		return w.level
	case *AStar:
		return w.dist
	case *PageRank:
		return [][]int64{w.rank, w.residual}
	case *Color:
		return w.color
	case *MST:
		return []any{w.weight, w.merges, w.parent}
	}
	panic("state: unknown workload " + w.Name())
}

// The serial and shared modes are one kernel with two kinds of memory
// operation: driven by the same strict-order loop they process the same
// number of tasks and leave the same state, bit for bit.
func TestSerialMatchesShared(t *testing.T) {
	graphs := map[string]*graph.CSR{"road": graph.Road(20, 20, 3), "web": graph.Web(400, 3)}
	for gname, g := range graphs {
		for _, name := range Names() {
			shared, err := New(name, g)
			if err != nil {
				t.Fatal(err)
			}
			serial := shared.Clone()
			shared.Reset()
			nShared := DrainStrict(shared)
			ResetSerial(serial)
			nSerial := DrainStrict(serial)
			if modeOf(t, shared) || !modeOf(t, serial) {
				t.Fatalf("%s/%s: modes not as set", name, gname)
			}
			if nShared != nSerial {
				t.Errorf("%s/%s: %d tasks shared, %d serial", name, gname, nShared, nSerial)
			}
			if !reflect.DeepEqual(state(shared), state(serial)) {
				t.Errorf("%s/%s: serial state differs from shared", name, gname)
			}
			if err := serial.Verify(); err != nil {
				t.Errorf("%s/%s: %v", name, gname, err)
			}
		}
	}
}

// The oracle allocates per run, not per task or per bucket growth: a
// method value made for each Process call would cost one allocation a task,
// a slice of its own for each bucket one a bucket growth. sssp's tasks
// carry Data; pagerank's start as one 2,000-task bucket.
func TestRunSequentialAllocsPerRun(t *testing.T) {
	for _, w := range []Workload{
		NewPageRank(graph.Web(2000, 42), 0),
		NewSSSP(graph.Road(120, 120, 42), 0, 0),
	} {
		var n int64
		allocs := testing.AllocsPerRun(3, func() { n = RunSequential(w) })
		if allocs > 16 {
			t.Errorf("RunSequential on %s %s: %.0f allocations for %d tasks, want <= 16", w.Name(), w.Graph().Name, allocs, n)
		}
	}
}

// heapDrain is DrainStrict on one binary heap, the oracle's queue before
// pq.BucketHeap: the same (Prio, Node) order, with Less-equal tasks in the
// heap's own order.
func heapDrain(w Workload) int64 {
	q := pq.NewBinaryHeap(1024)
	for _, s := range w.InitialTasks() {
		q.Push(s)
	}
	var n int64
	for s, ok := q.Pop(); ok; s, ok = q.Pop() {
		n++
		w.Process(s, q.Push)
	}
	return n
}

// DrainStrict's queue pops Less-equal tasks (same Prio and Node) in another
// order than a binary heap. Every kernel must not care: such tasks are
// identical (pagerank, color, mst) or stale relaxations that change nothing
// (sssp, bfs, astar), so both drains process the same number of tasks and
// leave the same state, bit for bit.
func TestDrainStrictMatchesHeap(t *testing.T) {
	graphs := []*graph.CSR{graph.Road(24, 24, 3), graph.Web(600, 3), graph.Cage(1500, 34, 80, 3)}
	for _, g := range graphs {
		for _, name := range Names() {
			bucket, err := New(name, g)
			if err != nil {
				t.Fatal(err)
			}
			heap := bucket.Clone()
			ResetSerial(bucket)
			nBucket := DrainStrict(bucket)
			ResetSerial(heap)
			nHeap := heapDrain(heap)
			if nBucket != nHeap {
				t.Errorf("%s/%s: %d tasks, %d on a binary heap", name, g.Name, nBucket, nHeap)
			}
			if !reflect.DeepEqual(state(bucket), state(heap)) {
				t.Errorf("%s/%s: state differs from a binary-heap drain", name, g.Name)
			}
		}
	}
}

// One strict-order run serves PageRank's task count and its reference:
// after RunSequential on a clone, the reference is made, it is the ranks of
// an independent binary-heap drain, and Verify runs no drain of its own
// (it allocates nothing).
func TestRunSequentialKeepsPageRankReference(t *testing.T) {
	g := graph.Web(2000, 5)
	w := NewPageRank(g, 0)
	RunSequential(w.Clone())
	indep := NewPageRank(g, 0)
	ResetSerial(indep)
	heapDrain(indep)
	if !reflect.DeepEqual(w.ref.v, indep.rank) {
		t.Fatal("the reference is not the ranks of a binary-heap drain")
	}
	RunSequential(w)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	err := w.Verify()
	goruntime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("Verify allocated %d times: it computed a reference again", n)
	}
}

// TestProcessAllocatesNothing holds every kernel's Process to zero
// allocations a task, in both modes, on a road and a web input: it replays
// a strict drain's task sequence from a fresh Reset, so the count is
// Process's own and not the queue's.
func TestProcessAllocatesNothing(t *testing.T) {
	exempt := map[string]string{
		"mst": "merging two components concatenates their adjacency lists, which are the algorithm's state",
	}
	modes := []struct {
		name  string
		reset func(Workload)
	}{{"serial", ResetSerial}, {"shared", Workload.Reset}}
	inputs := []*graph.CSR{graph.Road(24, 24, 1), graph.Web(2000, 1)}
	for _, name := range Names() {
		for _, g := range inputs {
			for _, m := range modes {
				t.Run(name+"/"+g.Name+"/"+m.name, func(t *testing.T) {
					if why, ok := exempt[name]; ok {
						t.Skip(why)
					}
					w, err := New(name, g)
					if err != nil {
						t.Fatal(err)
					}
					m.reset(w)
					q := pq.NewBinaryHeap(0)
					var trace []task.Task
					for _, s := range w.InitialTasks() {
						q.Push(s)
					}
					for s, ok := q.Pop(); ok; s, ok = q.Pop() {
						trace = append(trace, s)
						w.Process(s, q.Push)
					}
					discard := func(task.Task) {}
					allocs := testing.AllocsPerRun(1, func() {
						m.reset(w)
						for _, s := range trace {
							w.Process(s, discard)
						}
					})
					if allocs != 0 {
						t.Fatalf("%.0f allocations over %d tasks, want 0", allocs, len(trace))
					}
				})
			}
		}
	}
}

// refOf is the reference-answer holder of a workload that has one.
func refOf(w Workload) any {
	switch w := w.(type) {
	case *SSSP:
		return w.ref
	case *BFS:
		return w.ref
	case *AStar:
		return w.ref
	case *MST:
		return w.ref
	case *PageRank:
		return w.ref
	}
	return nil
}

// TestCloneSharesReference: every clone of an instance verifies against the
// one reference answer its prototype holds, clones of clones included, and
// clones may Verify at once.
func TestCloneSharesReference(t *testing.T) {
	g := graph.Road(16, 16, 5)
	for _, name := range Names() {
		proto, err := New(name, g)
		if err != nil {
			t.Fatal(err)
		}
		clones := []Workload{proto.Clone(), proto.Clone(), proto.Clone().Clone()}
		for _, c := range clones {
			if refOf(c) != refOf(proto) {
				t.Fatalf("%s: a clone holds its own reference", name)
			}
			RunSequential(c)
		}
		errs := make(chan error, len(clones))
		for _, c := range clones {
			go func() { errs <- c.Verify() }()
		}
		for range clones {
			if err := <-errs; err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	if a, b := refOf(NewSSSP(g, 0, 0)), refOf(NewSSSP(g, 0, 0)); a == b {
		t.Fatal("two instances built apart share a reference")
	}
}

// TestAnswerComputesOnce: concurrent first calls run the computation once
// and all return its value.
func TestAnswerComputesOnce(t *testing.T) {
	var a answer[int]
	var calls atomic.Int32
	got := make(chan int, 8)
	for i := 0; i < cap(got); i++ {
		go func() {
			got <- a.get(func() int { calls.Add(1); return 42 })
		}()
	}
	for i := 0; i < cap(got); i++ {
		if v := <-got; v != 42 {
			t.Fatalf("get = %d, want 42", v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("computed %d times, want once", n)
	}
}
