package pq

import (
	"math/rand"
	"slices"
	"testing"

	"hdcps/internal/task"
)

// drainHPQ pops q to exhaustion through PopEx and fails on the first
// divergence from ref in (Node, Prio): the simulator's queue is exact under
// task.Less, not just in the priority sequence.
func drainHPQ(t *testing.T, name string, q *HPQ, ref *BinaryHeap) {
	t.Helper()
	for i := 0; ; i++ {
		want, wok := ref.Pop()
		have, _, hok := q.PopEx()
		if wok != hok {
			t.Fatalf("%s: pop %d: ok=%v, reference ok=%v", name, i, hok, wok)
		}
		if !wok {
			return
		}
		if have.Prio != want.Prio || have.Node != want.Node {
			t.Fatalf("%s: pop %d = (node %d, prio %d), want (node %d, prio %d)",
				name, i, have.Node, have.Prio, want.Node, want.Prio)
		}
	}
}

// TestHPQHotEviction checks the hPQ residency invariant against
// pq.Bounded's semantics: the hot buffer always holds the hotCap best tasks
// and every pop's provenance matches.
func TestHPQHotEviction(t *testing.T) {
	const capacity = 8
	q := NewHPQ(capacity)
	b := NewBounded(capacity)
	sw := NewBinaryHeap(0)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4096; i++ {
		tk := task.Task{Node: uint32(i), Prio: int64(rng.Intn(1 << 14))}
		ev, spilled := b.Push(tk)
		if spilled {
			sw.Push(ev)
		}
		if got := q.PushEx(tk); got != spilled {
			t.Fatalf("push %d: PushEx spilled=%v, Bounded spilled=%v", i, got, spilled)
		}
		if rng.Intn(3) == 0 {
			// Reference composition: pop the better of hPQ front and
			// software heap front, like the simulator's dequeue.
			hw, hok := b.Peek()
			s, sok := sw.Peek()
			var want task.Task
			var wantHot bool
			switch {
			case hok && (!sok || hw.Less(s)):
				want, _ = b.Pop()
				wantHot = true
			case sok:
				want, _ = sw.Pop()
			}
			have, fromHot, ok := q.PopEx()
			if !ok || have != want || fromHot != wantHot {
				t.Fatalf("push %d: PopEx = %+v hot=%v, want %+v hot=%v",
					i, have, fromHot, want, wantHot)
			}
		}
	}
	if hl := hotLen(q); hl != capacity {
		t.Fatalf("HotLen = %d, want %d", hl, capacity)
	}
	if q.Len() != hotLen(q)+q.ColdLen() {
		t.Fatalf("Len %d != HotLen %d + ColdLen %d", q.Len(), hotLen(q), q.ColdLen())
	}
}

// TestHPQPushCold pins the simulator's bypass path: cold-pushed tasks never
// enter the hot buffer, PopEx never promotes them, and the order stays exact.
func TestHPQPushCold(t *testing.T) {
	q := NewHPQ(4)
	ref := NewBinaryHeap(0)
	for i := 0; i < 100; i++ {
		tk := task.Task{Node: uint32(i), Prio: int64((i * 37) % 50)}
		q.PushCold(tk)
		ref.Push(tk)
	}
	if got := hotLen(q); got != 0 {
		t.Fatalf("PushCold leaked %d tasks into the hot buffer", got)
	}
	if got := q.ColdLen(); got != 100 {
		t.Fatalf("ColdLen = %d, want 100", got)
	}
	if _, fromHot, ok := q.PopEx(); !ok || fromHot {
		t.Fatalf("PopEx on a cold-only queue: ok=%v fromHot=%v", ok, fromHot)
	}
	ref.Pop()
	drainHPQ(t, "push-cold", q, ref)
}

// TestHPQFallback drives the cold store's two non-monotone detectors: a
// strictly decreasing stream (every cold push rewinds the cursor) and a
// priority span wider than the window can grow. Both must migrate to the
// heap and keep the pop order exact, ties included.
func TestHPQFallback(t *testing.T) {
	t.Run("rewind-storm", func(t *testing.T) {
		q := NewHPQ(4)
		ref := NewBinaryHeap(0)
		for i := 0; i < 512; i++ {
			tk := task.Task{Node: uint32(i), Prio: int64(-i)}
			q.PushEx(tk)
			ref.Push(tk)
		}
		if q.heap == nil {
			t.Fatal("a strictly decreasing stream never tripped the rewind detector")
		}
		drainHPQ(t, "rewind-storm", q, ref)
	})
	t.Run("span-overflow", func(t *testing.T) {
		q := NewHPQ(1)
		ref := NewBinaryHeap(0)
		// Ascending but exponentially sparse: monotone, yet the resident
		// span blows past any bucket ring.
		for i := 0; i < 40; i++ {
			tk := task.Task{Node: uint32(i), Prio: int64(1) << uint(i)}
			q.PushEx(tk)
			ref.Push(tk)
		}
		if q.heap == nil {
			t.Fatal("a 2^39 priority span never overflowed the bucket ring")
		}
		drainHPQ(t, "span-overflow", q, ref)
	})
	// Cap: a cold span of windowMaxW priorities is the widest that fits.
	t.Run("cap", func(t *testing.T) {
		q := NewHPQ(1)
		ref := NewBinaryHeap(0)
		for i, p := range []int64{0, windowMaxW - 1, windowMaxW} {
			tk := task.Task{Node: uint32(i), Prio: p}
			q.PushCold(tk)
			ref.Push(tk)
			if fell := q.heap != nil; fell != (i == 2) {
				t.Fatalf("a cold span [0, %d]: fallen back %v", p, fell)
			}
		}
		drainHPQ(t, "cap", q, ref)
	})
	// Ties: forty tasks in six (Prio, Node) classes fill the cold buckets,
	// a strictly decreasing run trips the rewind detector with them queued,
	// and forty more land in the heap. The pops, Data included, must be the
	// sequence recorded when the fallback heap was a 2-ary DHeap: the
	// simulated cycles depend on the order of Less-equal tasks
	// (TestGoldenCycles) wherever a core falls back.
	t.Run("ties", func(t *testing.T) {
		want := []uint64{
			88, 87, 86, 85, 84, 83, 82, 81, 80, 79, 78, 77, 76, 75, 74, 73, 72, 71, 70, 69, 68, 67, 66, 65, 64,
			63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48, 47, 46, 45, 44, 43, 42, 41, 14, 39,
			5, 15, 23, 29, 119, 32, 21, 33, 118, 34, 124, 125, 128, 103, 117, 8, 4, 122, 26, 1, 121, 16, 115, 92, 30,
			90, 100, 101, 97, 20, 111, 106, 37, 27, 114, 38, 94, 123, 3, 31, 2, 19, 7, 9, 113, 116, 102, 99, 98, 40,
			25, 105, 110, 11, 6, 126, 96, 28, 93, 104, 91, 108, 89, 35, 127, 120, 109, 95, 36, 18, 24, 12, 17, 10, 13,
			112, 22, 107,
		}
		q := NewHPQ(2)
		rng := rand.New(rand.NewSource(12))
		var data uint64
		tie := func() task.Task {
			data++
			return task.Task{Prio: rng.Int63n(3), Node: uint32(rng.Intn(2)), Data: data}
		}
		var got []uint64
		pop := func() {
			tk, _, _ := q.PopEx()
			got = append(got, tk.Data)
		}
		for i := 0; i < 40; i++ {
			q.PushEx(tie())
		}
		for i := 1; i <= 48; i++ {
			data++
			q.PushEx(task.Task{Prio: int64(-i), Data: data})
		}
		if q.heap == nil {
			t.Fatal("a 48-task decreasing run never tripped the rewind detector")
		}
		for i := 0; i < 40; i++ {
			q.PushEx(tie())
			if i%4 == 0 {
				pop()
			}
		}
		for q.Len() > 0 {
			pop()
		}
		if !slices.Equal(got, want) {
			t.Fatalf("popped Data %v,\nrecorded %v", got, want)
		}
	})
}

// TestHPQExactOrderRandom: under arbitrary (non-monotone, negative,
// colliding) priorities and a mix of hot and cold pushes interleaved with
// pops, the queue pops exactly the reference heap's (Prio, Node) sequence.
func TestHPQExactOrderRandom(t *testing.T) {
	for _, hotCap := range []int{1, 4, 48} {
		rng := rand.New(rand.NewSource(int64(hotCap)))
		q := NewHPQ(hotCap)
		ref := NewBinaryHeap(0)
		for i := 0; i < 20000; i++ {
			switch r := rng.Intn(8); {
			case r < 3:
				want, wok := ref.Pop()
				have, _, hok := q.PopEx()
				if wok != hok || have != want {
					t.Fatalf("hotCap %d op %d: PopEx = %+v/%v, want %+v/%v", hotCap, i, have, hok, want, wok)
				}
			default:
				tk := task.Task{Node: uint32(i), Prio: int64(rng.Intn(1<<12)) - 1<<11}
				if r == 7 {
					q.PushCold(tk)
				} else {
					q.PushEx(tk)
				}
				ref.Push(tk)
			}
			if q.Len() != ref.Len() {
				t.Fatalf("hotCap %d op %d: Len = %d, reference %d", hotCap, i, q.Len(), ref.Len())
			}
		}
		drainHPQ(t, "random", q, ref)
	}
}

// hpqQueue adapts the simulator's HPQ to Queue for BenchmarkQueueDist.
type hpqQueue struct{ *HPQ }

func (q hpqQueue) Push(t task.Task) { q.PushEx(t) }
func (q hpqQueue) Pop() (task.Task, bool) {
	t, _, ok := q.PopEx()
	return t, ok
}
func (q hpqQueue) Peek() (task.Task, bool) { panic("unused") }

// hotLen is the number of tasks resident in q's hot buffer.
func hotLen(q *HPQ) int { return len(q.hot) - q.head }
