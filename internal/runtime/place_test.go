package runtime

// The placement rule's tests: place is pure, so the gate, the draw and the
// owner rule are tables over its arguments; the engine cases hold
// Engine.dispatch to doing what place says (push or send, and the kept-local
// count) and a running fleet to delivering every sent unit to its owner.

import (
	"sync"
	"testing"

	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/task"
)

func TestDispatchGate(t *testing.T) {
	const self, workers = 0, 2
	always := ^uint64(0) >> 1 // low half at its top: leaves only at TDF 100
	for _, qlen := range []int{0, 1, batchK - 1} {
		if dst, kept := place(always, qlen, batchK, 100, self, -1, workers, false); dst != self || !kept {
			t.Errorf("%d queued (< batchK %d): placed on %d, kept %v; want the unit kept local", qlen, batchK, dst, kept)
		}
	}
	for _, qlen := range []int{batchK, 3 * batchK} {
		if dst, kept := place(always, qlen, batchK, 100, self, -1, workers, false); dst != 1 || kept {
			t.Errorf("%d queued (>= batchK %d): placed on %d, kept %v; want the unit sent", qlen, batchK, dst, kept)
		}
	}
	// A shared queue is not gated: an empty one still sends away.
	if dst, kept := place(always, 0, batchK, 100, self, -1, workers, true); dst != 1 || kept {
		t.Errorf("shared, empty queue: placed on %d, kept %v; want the gate bypassed", dst, kept)
	}
	// One worker has nowhere to send and nothing to gate.
	if dst, kept := place(always, 0, batchK, 100, self, -1, 1, false); dst != self || kept {
		t.Errorf("single worker: placed on %d, kept %v", dst, kept)
	}

	// Engine.dispatch follows the rule, reading the length the cycle start
	// exposed plus the units kept since: a gated unit (a child or a bag marker)
	// is kept for the next cycle start and counted in that length, so the
	// queue itself does not grow; an ungated one at TDF 100 goes to the
	// transport. Both units' nodes (the marker's is its bag's first task's)
	// lie in worker 1's half of the 16-node graph. A multiqueue fleet does not
	// steal and exposes no length.
	for _, tc := range []struct {
		kind                                  string
		queued, wantSpare, wantSent, wantKept int
	}{
		{QueueTwoLevel, batchK - 2, batchK, 0, 2},
		{QueueDHeap, batchK, batchK, 2, 0},
		{QueueMultiQueue, 0, 0, 2, 0},
	} {
		e := NewEngine(mustWorkload(t, "sssp", graph.Road(4, 4, 1)),
			Config{Workers: 2, Drift: fixedTDF(100), QueueKind: tc.kind, Seed: 1})
		me := &e.workers[0]
		for i := 0; i < tc.queued; i++ {
			e.push(me, task.Task{Node: graph.NodeID(i), Prio: int64(i)})
		}
		q := me.sched.queue(e.jobStateFor(0))
		e.expose(me, q) // what a cycle start leaves the gate
		rng := me.rng
		e.dispatch(me, q, task.Task{Node: 9, Prio: 99}, 9)
		e.dispatch(me, q, task.Task{Node: bagMarker, Prio: 99}, 12)
		if (me.rng == rng) != (tc.wantKept == 2) {
			t.Errorf("%s, %d queued: generator moved %v with %d units gated; want a draw spent per unit sent and none per unit kept",
				tc.kind, tc.queued, me.rng != rng, tc.wantKept)
		}
		if q.spare != tc.wantSpare || len(me.kept) != tc.wantKept || q.len() != tc.queued ||
			e.transport.Pending(0) != tc.wantSent || me.n[obs.CUnitsKeptLocal] != int64(tc.wantKept) {
			t.Errorf("%s, %d queued: spare %d, kept %d, queue %d, pending %d, keptLocal %d; want %d, %d, %d, %d, %d",
				tc.kind, tc.queued, q.spare, len(me.kept), q.len(), e.transport.Pending(0), me.n[obs.CUnitsKeptLocal],
				tc.wantSpare, tc.wantKept, tc.queued, tc.wantSent, tc.wantKept)
		}
	}
}

// TestScatterDistribution holds a graphless job's one-draw placement past the
// gate to what two independent draws would give: a unit leaves with
// probability TDF percent, lands on each of the other workers equally often,
// and never on its own.
func TestScatterDistribution(t *testing.T) {
	const draws = 400_000
	for _, n := range []int{2, 5} {
		for _, tc := range []struct{ tdf, want int64 }{
			{0, 0}, {5, 5}, {50, 50}, {100, 100},
		} {
			for _, id := range []int{0, n - 1} {
				rng := graph.NewRNG(uint64(97*n) + uint64(tc.tdf) + uint64(id))
				hits := make([]int, n)
				for i := 0; i < draws; i++ {
					dst, kept := place(rng.Uint64(), 0, 0, tc.tdf, id, -1, n, false)
					if kept {
						t.Fatalf("n=%d: a unit past the gate reported kept", n)
					}
					hits[dst]++
				}
				remote := draws - hits[id]
				if (tc.want == 0 && remote != 0) || (tc.want == 100 && hits[id] != 0) {
					t.Errorf("n=%d tdf=%d id=%d: %d units left, %d stayed", n, tc.tdf, id, remote, hits[id])
				}
				if got := 100 * float64(remote) / draws; got < float64(tc.want)-0.5 || got > float64(tc.want)+0.5 {
					t.Errorf("n=%d tdf=%d id=%d: %.2f%% of units left, want %d%%", n, tc.tdf, id, got, tc.want)
				}
				for d, h := range hits {
					want := float64(remote) / float64(n-1)
					if d != id && (float64(h) < 0.95*want || float64(h) > 1.05*want) {
						t.Errorf("n=%d tdf=%d id=%d: worker %d got %d of %d remote units, want ~%.0f",
							n, tc.tdf, id, d, h, remote, want)
					}
				}
			}
		}
	}
}

// TestPlaceOwner holds the owner rule: past the gate, a unit the draw sends
// away goes to the worker owning its node; a self-owned one stays without
// counting as gated; the gate still comes first; and a graphless job keeps
// the uniform pick (its distribution is TestScatterDistribution's).
func TestPlaceOwner(t *testing.T) {
	const leave, stay = uint64(0), ^uint64(0) >> 32 // the low half's floor and top: TDF 50 sends the first, keeps the second
	for _, tc := range []struct {
		name                 string
		x                    uint64
		qlen, self, owner, n int
		shared               bool
		wantDst              int
		wantKept             bool
	}{
		{"peer-owned goes to its owner", leave, batchK, 0, 2, 4, false, 2, false},
		{"peer-owned, shared queue", leave, 0, 3, 1, 4, true, 1, false},
		{"self-owned stays, not gated", leave, batchK, 1, 1, 4, false, 1, false},
		{"gate first", leave, batchK - 1, 0, 2, 4, false, 0, true},
		{"draw keeps a peer-owned unit", stay, batchK, 0, 2, 4, false, 0, false},
		{"graphless: uniform pick, never self", leave, batchK, 0, -1, 2, false, 1, false},
	} {
		dst, kept := place(tc.x, tc.qlen, batchK, 50, tc.self, tc.owner, tc.n, tc.shared)
		if dst != tc.wantDst || kept != tc.wantKept {
			t.Errorf("%s: placed on %d, kept %v; want %d, %v", tc.name, dst, kept, tc.wantDst, tc.wantKept)
		}
	}

	// W = 3 over N = 10: contiguous blocks v·W/N, the last node in the last
	// block, no owner out of range.
	want := []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 2}
	for v, w := range want {
		if got := ownerOf(graph.NodeID(v), ownerMul(10, 3), 3); got != w {
			t.Errorf("N=10 W=3: node %d owned by %d, want %d", v, got, w)
		}
	}
	if got := ownerOf(1<<31, ownerMul(10, 3), 3); got != 2 {
		t.Errorf("N=10 W=3: node past the graph owned by %d, want the last worker", got)
	}
	// No owner without a graph, with a lone worker, or with no more nodes
	// than workers.
	for _, c := range [][2]int{{-1, 3}, {0, 3}, {100, 1}, {3, 3}} {
		if m := ownerMul(c[0], c[1]); m != 0 || ownerOf(1, m, c[1]) != -1 {
			t.Errorf("N=%d W=%d: multiplier %d, owner %d; want none", c[0], c[1], m, ownerOf(1, m, c[1]))
		}
	}
}

// TestOwnerOfIsExact holds ownerOf's one multiply to the division it stands
// for, ⌊v·W/N⌋, over every node of small graphs and both ends and a spread of
// the middle of the largest ones a NodeID can index.
func TestOwnerOfIsExact(t *testing.T) {
	for _, n := range []int{4, 10, 57_600, 100_003, 1<<32 - 1} {
		for _, w := range []int{2, 3, 4, 7, 64} {
			if n <= w {
				continue // no owner (TestPlaceOwner)
			}
			mul := ownerMul(n, w)
			check := func(v int) {
				if got, want := ownerOf(graph.NodeID(v), mul, w), v*w/n; got != want {
					t.Fatalf("N=%d W=%d: node %d owned by %d, want %d", n, w, v, got, want)
				}
			}
			if n <= 1<<17 {
				for v := 0; v < n; v++ {
					check(v)
				}
				continue
			}
			for k := 0; k < w; k++ { // each block's first node and the one before it
				if b := (k*n + w - 1) / w; b > 0 {
					check(b - 1)
					check(b)
				}
			}
			for v := n - 1; v > 0; v -= n/1000 + 1 {
				check(v)
			}
		}
	}
}

// ownerHook records, per worker, the nodes that arrive on its receive side;
// a bag marker counts as its bag's first task's node.
type ownerHook struct {
	e  *Engine
	mu sync.Mutex
	at [][]graph.NodeID
}

func (*ownerHook) Refuse(int, int, task.Task) bool { return false }
func (*ownerHook) Holding(int) bool                { return false }

func (h *ownerHook) Filter(id int, ts []task.Task, from int) []task.Task {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range ts[from:] {
		node := t.Node
		if IsBagMarker(t) {
			// The marker has crossed the ring, so its slot is published and
			// not yet released (payload.go's get contract).
			node = h.e.workers[int(t.Data>>32)].store.get(uint32(t.Data)).tasks[0].Node
		}
		h.at[id] = append(h.at[id], node)
	}
	return ts
}

// TestRemoteUnitsLandOnOwner runs a two-worker sssp with every past-gate unit
// sent away (TDF 100) and holds each arrival to its owner: a worker receives
// only nodes of its own home block, so the transport never hands it a peer's
// region. The seed is the one arrival left out: Submit deals it to the
// epoch's worker, whoever owns its node.
func TestRemoteUnitsLandOnOwner(t *testing.T) {
	const workers = 2
	g := graph.Road(16, 16, 1)
	w := mustWorkload(t, "sssp", g)
	h := &ownerHook{at: make([][]graph.NodeID, workers)}
	e := NewEngine(w, Config{Workers: workers, Drift: fixedTDF(100), Seed: 1, Faults: h})
	h.e = e
	seeds := w.InitialTasks()
	if len(seeds) != 1 {
		t.Fatalf("sssp has %d seeds, want its one source", len(seeds))
	}
	seed := seeds[0].Node
	if err := e.Submit(seeds...); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	n, arrivals := g.NumNodes(), 0
	for id, nodes := range h.at {
		for _, v := range nodes {
			if v == seed {
				continue
			}
			arrivals++
			if owner := int(v) * workers / n; owner != id {
				t.Fatalf("node %d (owner %d of %d nodes) arrived at worker %d", v, owner, n, id)
			}
		}
	}
	if arrivals == 0 {
		t.Fatal("no unit crossed the transport: the test holds nothing")
	}
}
