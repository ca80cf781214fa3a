package runtime

// The placement rule's tests: place is pure, so the gate and the draw are
// tables over its arguments; two engine cases at the end hold Engine.dispatch
// to doing what place says (push or send, and the kept-local count).

import (
	"testing"

	"hdcps/internal/graph"
	"hdcps/internal/task"
)

func TestDispatchGate(t *testing.T) {
	const batchK, self, workers = 8, 0, 2
	always := ^uint64(0) >> 1 // low half at its top: leaves only at TDF 100
	for _, qlen := range []int{0, 1, batchK - 1} {
		if dst, kept := place(always, qlen, batchK, 100, 100, self, workers, false); dst != self || !kept {
			t.Errorf("%d queued (< BatchK %d): placed on %d, kept %v; want the unit kept local", qlen, batchK, dst, kept)
		}
	}
	for _, qlen := range []int{batchK, 3 * batchK} {
		if dst, kept := place(always, qlen, batchK, 100, 100, self, workers, false); dst != 1 || kept {
			t.Errorf("%d queued (>= BatchK %d): placed on %d, kept %v; want the unit sent", qlen, batchK, dst, kept)
		}
	}
	// A shared queue is not gated: an empty one still scatters.
	if dst, kept := place(always, 0, batchK, 100, 100, self, workers, true); dst != 1 || kept {
		t.Errorf("shared, empty queue: placed on %d, kept %v; want the gate bypassed", dst, kept)
	}
	// One worker has nowhere to send and nothing to gate.
	if dst, kept := place(always, 0, batchK, 100, 100, self, 1, false); dst != self || kept {
		t.Errorf("single worker: placed on %d, kept %v", dst, kept)
	}

	// Engine.dispatch follows the rule, reading the length the cycle start
	// exposed plus the units kept since: a gated unit (a child or a bag marker)
	// is kept for the next cycle start and counted in that length, so the
	// queue itself does not grow; an ungated one at TDF 100 goes to the
	// transport. A multiqueue fleet does not steal and exposes no length.
	for _, tc := range []struct {
		kind                                  string
		queued, wantSpare, wantSent, wantKept int
	}{
		{QueueTwoLevel, batchK - 2, batchK, 0, 2},
		{QueueDHeap, batchK, batchK, 2, 0},
		{QueueMultiQueue, 0, 0, 2, 0},
	} {
		e := NewEngine(mustWorkload(t, "sssp", graph.Road(4, 4, 1)),
			Config{Workers: 2, FixedTDF: 100, QueueKind: tc.kind, BatchK: batchK, Seed: 1})
		me := &e.workers[0]
		for i := 0; i < tc.queued; i++ {
			e.push(me, task.Task{Node: graph.NodeID(i), Prio: int64(i)})
		}
		q := me.sched.queue(e.jobStateFor(0))
		e.expose(me, q) // what a cycle start leaves the gate
		rng := me.rng
		e.dispatch(me, q, task.Task{Node: 9, Prio: 99})
		e.dispatch(me, q, task.Task{Node: bagMarker, Prio: 99})
		if (me.rng == rng) != (tc.wantKept == 2) {
			t.Errorf("%s, %d queued: generator moved %v with %d units gated; want a draw spent per unit sent and none per unit kept",
				tc.kind, tc.queued, me.rng != rng, tc.wantKept)
		}
		if q.spare != tc.wantSpare || len(me.kept) != tc.wantKept || q.len() != tc.queued ||
			e.transport.Pending(0) != tc.wantSent || me.keptLocal != int64(tc.wantKept) {
			t.Errorf("%s, %d queued: spare %d, kept %d, queue %d, pending %d, keptLocal %d; want %d, %d, %d, %d, %d",
				tc.kind, tc.queued, q.spare, len(me.kept), q.len(), e.transport.Pending(0), me.keptLocal,
				tc.wantSpare, tc.wantKept, tc.queued, tc.wantSent, tc.wantKept)
		}
	}
}

// TestScatterDistribution holds the one-draw placement past the gate to what
// two independent draws would give: a unit leaves with probability TDF x bias
// percent (capped at always), lands on each of the other workers equally
// often, and never on its own.
func TestScatterDistribution(t *testing.T) {
	const draws = 400_000
	for _, n := range []int{2, 5} {
		for _, tc := range []struct{ tdf, bias, want int64 }{
			{0, 100, 0}, {5, 100, 5}, {50, 100, 50}, {100, 100, 100},
			{50, 50, 25}, {20, 200, 40}, {60, 300, 100},
		} {
			for _, id := range []int{0, n - 1} {
				rng := graph.NewRNG(uint64(97*n) + uint64(tc.tdf+tc.bias) + uint64(id))
				hits := make([]int, n)
				for i := 0; i < draws; i++ {
					dst, kept := place(rng.Uint64(), 0, 0, tc.tdf, tc.bias, id, n, false)
					if kept {
						t.Fatalf("n=%d: a unit past the gate reported kept", n)
					}
					hits[dst]++
				}
				remote := draws - hits[id]
				if (tc.want == 0 && remote != 0) || (tc.want == 100 && hits[id] != 0) {
					t.Errorf("n=%d tdf=%d bias=%d id=%d: %d units left, %d stayed", n, tc.tdf, tc.bias, id, remote, hits[id])
				}
				if got := 100 * float64(remote) / draws; got < float64(tc.want)-0.5 || got > float64(tc.want)+0.5 {
					t.Errorf("n=%d tdf=%d bias=%d id=%d: %.2f%% of units left, want %d%%", n, tc.tdf, tc.bias, id, got, tc.want)
				}
				for d, h := range hits {
					want := float64(remote) / float64(n-1)
					if d != id && (float64(h) < 0.95*want || float64(h) > 1.05*want) {
						t.Errorf("n=%d tdf=%d bias=%d id=%d: worker %d got %d of %d remote units, want ~%.0f",
							n, tc.tdf, tc.bias, id, d, h, remote, want)
					}
				}
			}
		}
	}
}
