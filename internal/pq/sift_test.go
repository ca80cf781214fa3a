package pq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hdcps/internal/task"
)

// swapSiftUp and swapSiftDown are the textbook binary sifts, a swap at every
// level: the reference TestSiftMatchesSwapForm holds siftUpTasks and
// siftDownTasks, which carry the moving task through a hole, to.
func swapSiftUp(b []task.Task, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !b[i].Less(b[p]) {
			return
		}
		b[i], b[p] = b[p], b[i]
		i = p
	}
}

func swapSiftDown(b []task.Task, i int) {
	n := len(b)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && b[l].Less(b[least]) {
			least = l
		}
		if r < n && b[r].Less(b[least]) {
			least = r
		}
		if least == i {
			return
		}
		b[i], b[least] = b[least], b[i]
		i = least
	}
}

// swapHeap is a binary min-heap on the swap sifts.
type swapHeap []task.Task

func (h *swapHeap) push(t task.Task) {
	*h = append(*h, t)
	swapSiftUp(*h, len(*h)-1)
}

func (h *swapHeap) pop() task.Task {
	b := *h
	top := b[0]
	n := len(b) - 1
	b[0] = b[n]
	*h = b[:n]
	if n > 0 {
		swapSiftDown(*h, 0)
	}
	return top
}

// tieTask draws a task from a narrow (Prio, Node) range, so most tasks tie
// under task.Less with several others and only Data tells them apart: an
// array that placed two tied tasks differently from the swap form fails the
// comparison.
func tieTask(rng *rand.Rand, seq *uint64) task.Task {
	*seq++
	return task.Task{Prio: rng.Int63n(8), Node: uint32(rng.Intn(3)), Data: *seq}
}

// TestSiftMatchesSwapForm drives random operation sequences through the four
// users of siftUpTasks/siftDownTasks — BinaryHeap, Bounded (with evictions),
// HPQ's cold buckets and a MultiQueue shard's heap — beside a copy of each
// array kept with the swap sifts. After every operation the arrays must be
// equal element for element, Data included.
func TestSiftMatchesSwapForm(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { siftAgainstSwapForm(t, seed) })
	}
}

func siftAgainstSwapForm(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var seq uint64

	t.Run("BinaryHeap", func(t *testing.T) {
		h := NewBinaryHeap(0)
		var ref swapHeap
		for op := 0; op < 3000; op++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				x := tieTask(rng, &seq)
				h.Push(x)
				ref.push(x)
			} else if got, _ := h.Pop(); got != ref.pop() {
				t.Fatalf("seed %d op %d: popped %+v", seed, op, got)
			}
			if !slices.Equal(h.items, ref) {
				t.Fatalf("seed %d op %d: heap %v, swap form %v", seed, op, h.items, ref)
			}
		}
	})

	t.Run("Bounded", func(t *testing.T) {
		const capacity = 24
		b := NewBounded(capacity)
		var ref swapHeap
		evictions := 0
		for op := 0; op < 3000; op++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				x := tieTask(rng, &seq)
				ev, did := b.Push(x)
				var wantEv task.Task
				wantDid := len(ref) == capacity
				if !wantDid {
					ref.push(x)
				} else {
					worst := len(ref) / 2
					for i := worst + 1; i < len(ref); i++ {
						if ref[worst].Less(ref[i]) {
							worst = i
						}
					}
					if wantEv = x; x.Less(ref[worst]) {
						wantEv, ref[worst] = ref[worst], x
						swapSiftUp(ref, worst)
						evictions++
					}
				}
				if ev != wantEv || did != wantDid {
					t.Fatalf("seed %d op %d: Push evicted %+v %v, swap form %+v %v", seed, op, ev, did, wantEv, wantDid)
				}
			} else if got, _ := b.Pop(); got != ref.pop() {
				t.Fatalf("seed %d op %d: popped %+v", seed, op, got)
			}
			if !slices.Equal(b.items, ref) {
				t.Fatalf("seed %d op %d: heap %v, swap form %v", seed, op, b.items, ref)
			}
		}
		if evictions == 0 {
			t.Fatalf("seed %d: no resident was evicted; the evict path went untested", seed)
		}
	})

	t.Run("HPQBuckets", func(t *testing.T) {
		c := coldBuckets{window: newWindow[[]task.Task]()}
		ref := map[int64]*swapHeap{}
		for op := 0; op < 3000; op++ {
			if c.size == 0 || rng.Intn(5) < 3 {
				x := tieTask(rng, &seq)
				x.Prio = rng.Int63n(3) // few buckets, deep heaps
				if !c.push(x) {
					t.Fatalf("seed %d op %d: push refused", seed, op)
				}
				if ref[x.Prio] == nil {
					ref[x.Prio] = &swapHeap{}
				}
				ref[x.Prio].push(x)
			} else {
				got := c.pop()
				if want := ref[got.Prio].pop(); got != want {
					t.Fatalf("seed %d op %d: popped %+v, swap form %+v", seed, op, got, want)
				}
			}
			for q, h := range ref {
				if b := c.buckets[int(q)&(len(c.buckets)-1)]; !slices.Equal(b, *h) {
					t.Fatalf("seed %d op %d: bucket %d %v, swap form %v", seed, op, q, b, *h)
				}
			}
		}
	})

	t.Run("MultiQueueShard", func(t *testing.T) {
		const batchCap = 8
		var s mqShard
		var ref swapHeap
		for op := 0; op < 600; op++ {
			if len(ref) == 0 || rng.Intn(3) < 2 {
				for i := 1 + rng.Intn(batchCap); i > 0; i-- {
					x := tieTask(rng, &seq)
					s.ibuf = append(s.ibuf, x)
					ref.push(x)
				}
				s.flushIbuf()
			} else {
				s.refill(batchCap)
				for i, got := range s.dbuf {
					if want := ref.pop(); got != want {
						t.Fatalf("seed %d op %d: refill[%d] = %+v, swap form %+v", seed, op, i, got, want)
					}
				}
			}
			if !slices.Equal(s.heap, ref) {
				t.Fatalf("seed %d op %d: shard heap %v, swap form %v", seed, op, s.heap, ref)
			}
		}
	})
}
