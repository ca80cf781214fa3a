package graph

import (
	"fmt"
	"testing"
)

// eightProbeSeed is LargestComponentSeed as it was before it skipped
// candidates: all eight probes run a full (reachLimit-truncated) BFS. The
// skipping version must return the same node on every graph.
func eightProbeSeed(g *CSR) NodeID {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	best, bestReach := NodeID(0), -1
	seen := make([]uint32, n)
	epoch := uint32(0)
	queue := make([]NodeID, 0, 1024)
	for probe := 0; probe < 8; probe++ {
		src := NodeID(probe * n / 8)
		epoch++
		queue = queue[:0]
		queue = append(queue, src)
		seen[src] = epoch
		reach := 0
		const reachLimit = 200000
		for i := 0; i < len(queue) && reach < reachLimit; i++ {
			u := queue[i]
			reach++
			dsts, _ := g.Neighbors(u)
			for _, v := range dsts {
				if seen[v] != epoch {
					seen[v] = epoch
					queue = append(queue, v)
				}
			}
		}
		if reach > bestReach {
			best, bestReach = src, reach
		}
	}
	return best
}

func mustEdges(t *testing.T, name string, n int, edges []Edge) *CSR {
	t.Helper()
	g, err := FromEdges(name, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// chain returns the edges of a path over [lo, hi): forward (u -> u+1),
// backward (u+1 -> u), or both.
func chain(lo, hi int, forward, backward bool) []Edge {
	var es []Edge
	for u := lo; u+1 < hi; u++ {
		if forward {
			es = append(es, Edge{NodeID(u), NodeID(u + 1), 1})
		}
		if backward {
			es = append(es, Edge{NodeID(u + 1), NodeID(u), 1})
		}
	}
	return es
}

// TestSeedMatchesEightProbes holds the skipping LargestComponentSeed to the
// eight-probe reference on hand-built graphs that each exercise one branch of
// the skip argument, and on every input the benchmark builds.
func TestSeedMatchesEightProbes(t *testing.T) {
	type input struct {
		name string
		g    *CSR
		want int // the seed the graph is built to produce; -1: whatever the reference says
	}
	var ins []input

	// Five undirected 10-node chains, then one of 30 nodes: the largest
	// component is first hit by probe 5 (node 50), and probes 6 and 7 start
	// inside it.
	var es []Edge
	for lo := 0; lo < 50; lo += 10 {
		es = append(es, chain(lo, lo+10, true, true)...)
	}
	es = append(es, chain(50, 80, true, true)...)
	ins = append(ins, input{"late-component", mustEdges(t, "late", 80, es), 50})

	// Directed: probe 0 (node 0) reaches {0, 1} only; node 2, which it never
	// reached, reaches everything through 2 -> ... -> 15 -> 0 -> 1.
	es = append([]Edge{{0, 1, 1}, {15, 0, 1}}, chain(2, 16, true, false)...)
	ins = append(ins, input{"unreached-later-source", mustEdges(t, "directed", 16, es), 2})

	// Paths longer than reachLimit: forward, probe 0 is cut off at the limit
	// and wins; backward, each probe reaches its own prefix and the last one
	// (cut off too) wins.
	const long = 250000
	ins = append(ins,
		input{"long-path-forward", mustEdges(t, "fwd", long, chain(0, long, true, false)), 0},
		input{"long-path-backward", mustEdges(t, "bwd", long, chain(0, long, false, true)), 7 * long / 8},
	)

	// Small random directed graphs: sparse enough to leave several
	// components, and fewer than eight nodes, where candidates repeat.
	r := NewRNG(1)
	for i := 0; i < 300; i++ {
		n := 1 + r.Intn(40)
		m := r.Intn(2 * n)
		es := make([]Edge, m)
		for k := range es {
			es[k] = Edge{NodeID(r.Intn(n)), NodeID(r.Intn(n)), 1}
		}
		ins = append(ins, input{fmt.Sprintf("random-%d", i), mustEdges(t, "rnd", n, es), -1})
	}

	// The benchmark's inputs (full and smoke sizes) at seeds 42 and 7.
	for _, seed := range []uint64{42, 7} {
		for _, g := range []*CSR{
			Road(240, 240, seed), Road(120, 120, seed), Road(48, 48, seed), Road(24, 24, seed), Road(16, 16, seed),
			Web(20000, seed), Web(10000, seed), Web(5000, seed), Web(300, seed), Web(150, seed),
			Cage(32000, 34, 80, seed), Cage(80000, 34, 80, seed+1), Cage(400, 34, 80, seed), Cage(600, 34, 80, seed+1),
		} {
			ins = append(ins, input{fmt.Sprintf("%s/%d", g.Name, seed), g, -1})
		}
	}

	for _, in := range ins {
		want := eightProbeSeed(in.g)
		if in.want >= 0 && want != NodeID(in.want) {
			t.Fatalf("%s: reference seed %d, the graph was built for %d", in.name, want, in.want)
		}
		if got := LargestComponentSeed(in.g); got != want {
			t.Errorf("%s: seed %d, eight probes give %d", in.name, got, want)
		}
	}
}
