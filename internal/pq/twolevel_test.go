package pq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hdcps/internal/task"
)

// ringCheck drives a TwoLevel beside a reference BinaryHeap and holds it to
// the ring's contract on every pop: the same priority as the heap's pop
// (exact in Prio), a task that was pushed and not yet popped (same multiset),
// and — while the queue is still on its ring — the oldest queued task of
// that priority (FIFO among equals). Push order is stamped into Data; Node
// is scrambled so FIFO and the heap's (Prio, Node) order disagree.
type ringCheck struct {
	t      *testing.T
	q      *TwoLevel
	ref    *BinaryHeap
	pushed []task.Task      // by stamp
	popped []bool           // by stamp
	last   map[int64]uint64 // per priority: 1 + the last popped stamp
}

func newRingCheck(t *testing.T) *ringCheck {
	return &ringCheck{t: t, q: NewTwoLevel(TwoLevelConfig{}), ref: NewBinaryHeap(0), last: map[int64]uint64{}}
}

// spread scales priorities so that a span fits the ring at its cap
// (windowMaxW buckets) exactly when the unscaled span fits 64 buckets: a
// test drives the ring's growth and its span-overflow fallback with the few
// classes a 64-bucket ring would need.
const spread = windowMaxW / 64

// spreadQueue is a TwoLevel seen through spread: it queues every priority
// times spread and hands it back divided, so the generic queue suites reach
// the growth and fallback paths with their own small priorities.
type spreadQueue struct{ q *TwoLevel }

func (s spreadQueue) Push(t task.Task) { t.Prio *= spread; s.q.Push(t) }
func (s spreadQueue) Len() int         { return s.q.Len() }

func (s spreadQueue) Pop() (task.Task, bool) {
	t, ok := s.q.Pop()
	t.Prio /= spread
	return t, ok
}

func (s spreadQueue) Peek() (task.Task, bool) {
	t, ok := s.q.Peek()
	t.Prio /= spread
	return t, ok
}

func (c *ringCheck) push(prio int64) {
	stamp := uint64(len(c.pushed))
	tk := task.Task{Node: uint32(stamp*2654435761) % 1024, Prio: prio, Data: stamp}
	c.pushed = append(c.pushed, tk)
	c.popped = append(c.popped, false)
	c.q.Push(tk)
	c.ref.Push(tk)
	if c.q.Len() != c.ref.Len() {
		c.t.Fatalf("push %d: Len = %d, reference %d", stamp, c.q.Len(), c.ref.Len())
	}
}

// pop pops both queues and returns the ring's task (ok false when empty).
func (c *ringCheck) pop() (task.Task, bool) {
	c.t.Helper()
	onRing := !c.q.FellBack()
	if peek, ok := c.q.Peek(); ok {
		if want, _ := c.ref.Peek(); peek.Prio != want.Prio {
			c.t.Fatalf("Peek prio %d, reference %d", peek.Prio, want.Prio)
		}
	}
	want, wok := c.ref.Pop()
	have, hok := c.q.Pop()
	if wok != hok {
		c.t.Fatalf("pop ok=%v, reference ok=%v", hok, wok)
	}
	if !hok {
		return have, false
	}
	if have.Prio != want.Prio {
		c.t.Fatalf("pop prio %d (stamp %d), reference %d", have.Prio, have.Data, want.Prio)
	}
	if have.Data >= uint64(len(c.pushed)) || c.pushed[have.Data] != have || c.popped[have.Data] {
		c.t.Fatalf("pop %+v: never pushed, or popped twice", have)
	}
	c.popped[have.Data] = true
	if onRing {
		if have.Data+1 <= c.last[have.Prio] {
			c.t.Fatalf("prio %d: stamp %d popped after stamp %d (not FIFO)",
				have.Prio, have.Data, c.last[have.Prio]-1)
		}
		c.last[have.Prio] = have.Data + 1
	}
	return have, true
}

func (c *ringCheck) drain() {
	c.t.Helper()
	for {
		if _, ok := c.pop(); !ok {
			break
		}
	}
	for stamp, done := range c.popped {
		if !done {
			c.t.Fatalf("stamp %d (%+v) pushed and never popped", stamp, c.pushed[stamp])
		}
	}
}

// frontier runs a pop-then-spawn loop — the shape the engine's workers
// drive — with each child's priority drawn by child from its parent's.
func (c *ringCheck) frontier(rng *rand.Rand, pops, spawnUntil int, child func(parent int64) int64) {
	c.t.Helper()
	for i := 1; i <= pops; i++ {
		tk, ok := c.pop()
		if !ok {
			return
		}
		if i < spawnUntil {
			for k := 0; k < 1+rng.Intn(3); k++ {
				c.push(child(tk.Prio))
			}
		}
	}
}

// TestTwoLevelExactOrderMonotone pins the contract on a delta-stepping-like
// stream (children at or above the parent's priority): heap-exact priority
// sequence, FIFO ties, and no fallback.
func TestTwoLevelExactOrderMonotone(t *testing.T) {
	c := newRingCheck(t)
	rng := rand.New(rand.NewSource(7))
	c.push(0)
	c.frontier(rng, 5000, 2000, func(p int64) int64 { return p + int64(rng.Intn(64)) })
	c.drain()
	if c.q.FellBack() {
		t.Fatal("a monotone stream fell back to the heap")
	}
}

// TestTwoLevelExactOrderRewinding: children land one class below, at, or
// one above their parent, so the cursor rewinds constantly (and the minimum
// sinks, stretching the resident span through several ring doublings) —
// which must change nothing.
func TestTwoLevelExactOrderRewinding(t *testing.T) {
	c := newRingCheck(t)
	rng := rand.New(rand.NewSource(8))
	c.push(0)
	c.frontier(rng, 8000, 3000, func(p int64) int64 { return p + int64(rng.Intn(3)) - 1 })
	c.drain()
	if c.q.FellBack() {
		t.Fatal("a ±1-rewinding stream fell back to the heap")
	}
}

// TestTwoLevelExactOrderNegative is the PageRank shape: a wide frontier of
// negative log-residual classes, non-monotone in both directions, most
// tasks in a few classes that stay live for the whole run. The classes are
// spread, so the span stretches the ring most of the way to its cap.
func TestTwoLevelExactOrderNegative(t *testing.T) {
	c := newRingCheck(t)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		c.push(-int64(rng.Intn(40)) * spread)
	}
	c.frontier(rng, 20000, 6000, func(int64) int64 {
		return -int64(rng.Intn(8)*rng.Intn(6)) * spread
	})
	c.drain()
	if c.q.FellBack() {
		t.Fatal("a 40-class stream fell back to the heap")
	}
}

// TestTwoLevelExactOrderSpanOverflow spreads priorities over 2^20 after a
// prefix that grew the ring towards its 2^16-bucket cap, so the queue falls
// back mid-stream with tasks resident: the priority sequence and the
// multiset must come through the migration.
func TestTwoLevelExactOrderSpanOverflow(t *testing.T) {
	c := newRingCheck(t)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		c.push(int64(rng.Intn(48)) * spread) // fits the ring
	}
	for i := 0; i < 50; i++ {
		c.pop()
	}
	if c.q.FellBack() {
		t.Fatal("a 48-class prefix fell back before the wide stream began")
	}
	c.frontier(rng, 6000, 2000, func(int64) int64 { return int64(rng.Intn(1 << 20)) })
	c.drain()
	if !c.q.FellBack() {
		t.Fatal("a 2^20 priority span fit the ring")
	}
}

// TestTwoLevelConservationRandom is the no-loss/no-duplication property
// test: arbitrary (non-monotone, negative, colliding) priorities with pops
// interleaved on a fuzzed schedule, as they come (the ring grows, and never
// falls back on an int16 span) and spread (it falls back).
func TestTwoLevelConservationRandom(t *testing.T) {
	scales := map[string]int64{
		"default": 1,
		"spread":  spread,
	}
	for name, scale := range scales {
		err := quick.Check(func(raw []int16, popBits []bool) bool {
			c := newRingCheck(t)
			for i, p := range raw {
				c.push(int64(p) * scale)
				if i < len(popBits) && popBits[i] {
					c.pop()
				}
			}
			c.drain()
			return c.q.Len() == 0 && (name != "default" || !c.q.FellBack())
		}, &quick.Config{MaxCount: 200})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestTwoLevelFallback pins the fallback's one trigger. A strictly
// decreasing stream — every push rewinds the cursor, the storm that used to
// migrate the queue — must stay on the ring; a resident span wider than
// the ring's cap must migrate, and keep the order exact in Prio. A span of
// windowMaxW priorities is the widest that fits.
func TestTwoLevelFallback(t *testing.T) {
	t.Run("rewind-storm", func(t *testing.T) {
		c := newRingCheck(t)
		for i := 0; i < 512; i++ {
			c.push(int64(-i))
		}
		if c.q.FellBack() {
			t.Fatal("rewinds alone fell back to the heap")
		}
		c.drain()
	})
	t.Run("span-overflow", func(t *testing.T) {
		c := newRingCheck(t)
		// Ascending but exponentially sparse: monotone, yet the resident
		// span blows past any bucket ring.
		for i := 0; i < 40; i++ {
			c.push(int64(1) << uint(i))
		}
		if !c.q.FellBack() {
			t.Fatal("a 2^39 priority span fit the ring")
		}
		c.drain()
	})
	t.Run("cap", func(t *testing.T) {
		c := newRingCheck(t)
		c.push(0)
		c.push(windowMaxW - 1)
		if c.q.FellBack() {
			t.Fatal("a span of windowMaxW priorities fell back")
		}
		c.push(windowMaxW)
		if !c.q.FellBack() {
			t.Fatal("a span of windowMaxW+1 priorities fit the window")
		}
		c.drain()
	})
}

// TestTwoLevelBucketMemory: a bucket that stays live while tasks stream
// through it (PageRank holds one class for most of a solve) must keep
// storage on the order of its longest live length, however many tasks have
// passed — consumed chunks are reused, not accumulated.
func TestTwoLevelBucketMemory(t *testing.T) {
	for _, live := range []int{5, 1000} {
		q := NewTwoLevel(TwoLevelConfig{})
		for i := 0; i < live; i++ {
			q.Push(task.Task{Prio: 7, Data: uint64(i)})
		}
		for i := 0; i < 1_000_000; i++ {
			q.Push(task.Task{Prio: 7, Data: uint64(live + i)})
			if got, _ := q.Pop(); got.Data != uint64(i) {
				t.Fatalf("live %d: pop %d returned stamp %d", live, i, got.Data)
			}
		}
		chunks := len(q.slab)
		for c := q.free; c != nil; c = c.next {
			chunks++
		}
		for c := q.buckets[7].head; c != nil; c = c.next {
			chunks++
		}
		// One chunk of slack at each end of the chain, rounded up to a slab.
		if limit := (live/chunkLen + 2 + chunkSlab) / chunkSlab * chunkSlab; q.Len() != live || chunks > limit {
			t.Fatalf("live %d: %d tasks queued in %d chunks (limit %d) after 1M push/pop pairs",
				live, q.Len(), chunks, limit)
		}
	}
}

// FuzzTwoLevelVsBinaryHeap feeds a byte-driven op stream (pop, push with a
// small signed priority delta, push far away to stretch the span past the
// ring's 2^16-bucket cap) to the ring and the reference heap under
// ringCheck's contract.
func FuzzTwoLevelVsBinaryHeap(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x80, 0xff, 0x00, 0x7f})
	f.Add([]byte("monotone-ish stream 0123456789"))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0x10, 0x10, 0x10, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newRingCheck(t)
		prio := int64(0)
		for _, op := range data {
			switch op % 4 {
			case 0:
				c.pop()
			case 1, 2: // a nearby class, either side
				prio += int64(int8(op)) / 16
				c.push(prio)
			case 3: // a far one: op>>2 is up to 63 classes of 2^14
				c.push(prio - int64(op>>2)<<14)
			}
		}
		c.drain()
	})
}

// BenchmarkQueueDist measures the queue shapes under three adversarial
// priority distributions: flat (every push collides into few buckets),
// power-law (skewed like web-graph residuals), and strictly increasing (the
// pure monotone case).
func BenchmarkQueueDist(b *testing.B) {
	dists := []struct {
		name string
		prio func(i int, rng *rand.Rand) int64
	}{
		{"flat", func(i int, rng *rand.Rand) int64 { return int64(rng.Intn(64)) }},
		{"powerlaw", func(i int, rng *rand.Rand) int64 {
			return int64(1<<uint(rng.Intn(14))) + int64(rng.Intn(16))
		}},
		{"increasing", func(i int, rng *rand.Rand) int64 { return int64(i) }},
	}
	shapes := []struct {
		name string
		mk   func() Queue
	}{
		{"binary", func() Queue { return NewBinaryHeap(1024) }},
		{"4-ary", func() Queue { return NewDHeap(4, 1024) }},
		{"twolevel", func() Queue { return NewTwoLevel(TwoLevelConfig{}) }},
		{"hpq", func() Queue { return hpqQueue{NewHPQ(48)} }},
		{"multiqueue", func() Queue { return NewMultiQueue(MultiQueueConfig{Workers: 1}).Handle() }},
	}
	for _, d := range dists {
		for _, s := range shapes {
			b.Run(d.name+"/"+s.name, func(b *testing.B) {
				q := s.mk()
				rng := rand.New(rand.NewSource(42))
				// Pre-fill to the native runtime's steady-state depth.
				for i := 0; i < 1024; i++ {
					q.Push(task.Task{Node: uint32(i), Prio: d.prio(i, rng)})
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q.Push(task.Task{Node: uint32(i), Prio: d.prio(i+1024, rng)})
					q.Pop()
				}
			})
		}
	}
}
