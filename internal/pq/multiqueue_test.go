package pq

import (
	"math/rand"
	"sync"
	"testing"

	"hdcps/internal/task"
)

// mqRef is an exact-rank oracle: a plain multiset of resident tasks.
// rankOf counts tasks strictly better than t (t's true rank error when t is
// popped), and remove asserts multiset membership — conservation.
type mqRef struct {
	items []task.Task
}

func (r *mqRef) push(t task.Task) { r.items = append(r.items, t) }

func (r *mqRef) rankOf(t task.Task) int {
	n := 0
	for _, o := range r.items {
		if o.Less(t) {
			n++
		}
	}
	return n
}

func (r *mqRef) remove(tb *testing.T, t task.Task) {
	tb.Helper()
	for i, o := range r.items {
		if o == t {
			r.items[i] = r.items[len(r.items)-1]
			r.items = r.items[:len(r.items)-1]
			return
		}
	}
	tb.Fatalf("popped task %+v was never pushed (or popped twice)", t)
}

// TestMultiQueueRankBound is the tentpole property test: under a seeded
// adversarial rewind-storm stream (every wave pushes strictly below
// everything already resident — the worst case for any structure exploiting
// monotonicity), the pick-2 pop sequence must respect the theoretical
// expected-rank bound. With c·P shards and stickiness S the expected rank
// error of a pop is O(S · c·P); we assert the empirical mean stays under
// 2·S·shards and the max under 32·S·shards — generous constants, but tight
// enough that a broken pick-2 (popping a random shard's max, ignoring the
// cached tops, buffer minima leaking past the witness) blows through them
// immediately.
func TestMultiQueueRankBound(t *testing.T) {
	for _, tc := range []struct {
		name       string
		stickiness int
	}{
		{"sticky-1", 1},
		{"sticky-8", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := MultiQueueConfig{Workers: 2, Factor: 4, Stickiness: tc.stickiness, Seed: 99}
			m := NewMultiQueue(cfg)
			h := m.Handle()
			ref := &mqRef{}
			rng := rand.New(rand.NewSource(7))

			var pops, rankSum, rankMax int
			pop := func() {
				tk, ok := h.Pop()
				if !ok {
					t.Fatal("sequential Pop reported empty on a nonempty queue")
				}
				r := ref.rankOf(tk)
				ref.remove(t, tk)
				pops++
				rankSum += r
				if r > rankMax {
					rankMax = r
				}
			}

			// Rewind storm: wave w pushes priorities in (-(w+1)·1000, -w·1000]
			// — strictly below every task earlier waves left behind — with
			// pops interleaved so the shards churn through their buffers.
			node := uint32(0)
			for w := 0; w < 48; w++ {
				base := int64(-w) * 1000
				for i := 0; i < 256; i++ {
					tk := task.Task{Node: node, Prio: base - int64(rng.Intn(999))}
					h.Push(tk)
					ref.push(tk)
					node++
					if i%2 == 1 {
						pop() // drain half the wave while the storm rages
					}
				}
			}
			for len(ref.items) > 0 {
				pop()
			}
			if tk, ok := h.Pop(); ok {
				t.Fatalf("queue still held %+v after the oracle drained", tk)
			}

			shards := len(m.shards)
			mean := float64(rankSum) / float64(pops)
			meanBound := 2.0 * float64(tc.stickiness*shards)
			maxBound := 32 * tc.stickiness * shards
			t.Logf("%d pops over %d shards: mean rank %.2f (bound %.0f), max %d (bound %d)",
				pops, shards, mean, meanBound, rankMax, maxBound)
			if mean > meanBound {
				t.Errorf("mean rank error %.2f exceeds the expected-rank bound %.0f", mean, meanBound)
			}
			if rankMax > maxBound {
				t.Errorf("max rank error %d exceeds the tail bound %d", rankMax, maxBound)
			}
		})
	}
}

// TestMultiQueueConservationSequential interleaves pushes and pops from a
// fuzzed schedule and requires exact conservation: every pop returns a task
// that is resident in the oracle multiset, and draining empties both.
func TestMultiQueueConservationSequential(t *testing.T) {
	cfgs := map[string]MultiQueueConfig{
		"default":    {},
		"one-shard":  {Workers: 1, Factor: 1}, // clamped to 2 shards
		"tiny-batch": {Workers: 1, Factor: 2, BatchCap: 2},
		"sticky-big": {Workers: 4, Factor: 2, Stickiness: 64},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			cfg.Seed = 5
			m := NewMultiQueue(cfg)
			h := m.Handle()
			ref := &mqRef{}
			rng := rand.New(rand.NewSource(13))
			for i := 0; i < 20000; i++ {
				if len(ref.items) == 0 || rng.Intn(3) != 0 {
					tk := task.Task{Node: uint32(i), Prio: int64(rng.Intn(512) - 256)}
					h.Push(tk)
					ref.push(tk)
				} else {
					tk, ok := h.Pop()
					if !ok {
						t.Fatal("Pop reported empty with tasks resident")
					}
					ref.remove(t, tk)
				}
				if h.Len() != len(ref.items) {
					t.Fatalf("Len = %d, oracle %d", h.Len(), len(ref.items))
				}
			}
			for len(ref.items) > 0 {
				tk, ok := h.Pop()
				if !ok {
					t.Fatal("drain Pop reported empty with tasks resident")
				}
				ref.remove(t, tk)
			}
			if m.Len() != 0 {
				t.Fatalf("Len = %d after full drain", m.Len())
			}
			if _, min := m.RankEstimate(0); min != mqEmptyTop {
				t.Fatalf("witness min = %d on an empty queue", min)
			}
		})
	}
}

// TestMultiQueueHammer is the -race concurrent push/pop soak mirroring
// twolevel's engine-level coverage: P goroutines share one MultiQueue
// through private handles, each pushing a disjoint node range and popping
// whatever pick-2 hands it. Afterwards every pushed node must have been
// popped exactly once — no loss, no duplication — across the shard locks,
// cached tops, and batch buffers.
func TestMultiQueueHammer(t *testing.T) {
	const (
		workers   = 4
		perWorker = 20000
	)
	m := NewMultiQueue(MultiQueueConfig{Workers: workers, Seed: 17})
	var seen [workers * perWorker]int32
	var wg sync.WaitGroup
	var popped [workers]int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.Handle()
			rng := rand.New(rand.NewSource(int64(w) + 101))
			base := w * perWorker
			pushed := 0
			for pushed < perWorker {
				// Bursty, partly descending priorities: the adversarial shape.
				burst := 1 + rng.Intn(64)
				for i := 0; i < burst && pushed < perWorker; i++ {
					h.Push(task.Task{
						Node: uint32(base + pushed),
						Prio: int64(rng.Intn(4096)) - int64(pushed),
					})
					pushed++
				}
				for i := 0; i < burst/2; i++ {
					if tk, ok := h.Pop(); ok {
						seen[tk.Node]++
						popped[w]++
					}
				}
			}
			// Drain cooperatively until the whole queue is empty. A spurious
			// empty from lock contention just loops again; the loop exits
			// only when the shared size says everything was claimed.
			for m.Len() > 0 {
				if tk, ok := h.Pop(); ok {
					seen[tk.Node]++
					popped[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for w := range popped {
		total += popped[w]
	}
	if total != workers*perWorker {
		t.Fatalf("popped %d tasks, pushed %d", total, workers*perWorker)
	}
	for n, c := range seen {
		if c != 1 {
			t.Fatalf("node %d popped %d times", n, c)
		}
	}
}

// TestMultiQueueHandleBasics pins the pq.Queue surface of a handle: empty
// behavior, Peek/Pop agreement on a quiet queue, and the Queue() accessor.
func TestMultiQueueHandleBasics(t *testing.T) {
	m := NewMultiQueue(MultiQueueConfig{Workers: 1, Seed: 3})
	h := m.Handle()
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on an empty queue reported a task")
	}
	if _, ok := h.Peek(); ok {
		t.Fatal("Peek on an empty queue reported a task")
	}
	h.Push(task.Task{Node: 1, Prio: 10})
	h.Push(task.Task{Node: 2, Prio: 5})
	if got, ok := h.Peek(); !ok || got.Prio > 10 {
		t.Fatalf("Peek = %+v/%v, want a resident task", got, ok)
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
	if h.Queue() != m {
		t.Fatal("Queue() does not return the shared MultiQueue")
	}
	a, _ := h.Pop()
	b, _ := h.Pop()
	if a.Node == b.Node {
		t.Fatalf("duplicate pop: %+v then %+v", a, b)
	}
}

// TestMultiQueueRankEstimate pins the sharded min witness: after pushing a
// known spread, RankEstimate of a large priority must count every nonempty
// shard and its witness must be the global minimum.
func TestMultiQueueRankEstimate(t *testing.T) {
	m := NewMultiQueue(MultiQueueConfig{Workers: 1, Factor: 4, Seed: 9})
	h := m.Handle()
	for i := 0; i < 256; i++ {
		h.Push(task.Task{Node: uint32(i), Prio: int64(i)})
	}
	rank, min := m.RankEstimate(1 << 30)
	if min != 0 {
		t.Fatalf("RankEstimate min = %d, want 0", min)
	}
	nonempty := 0
	for i := range m.shards {
		if m.shards[i].size.Load() > 0 {
			nonempty++
		}
	}
	if rank != nonempty {
		t.Fatalf("RankEstimate = %d, want %d nonempty shards", rank, nonempty)
	}
	if r, _ := m.RankEstimate(-1); r != 0 {
		t.Fatalf("RankEstimate below the global min = %d, want 0", r)
	}
}
