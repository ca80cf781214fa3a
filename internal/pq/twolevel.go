package pq

import (
	"math/bits"

	"hdcps/internal/task"
)

// TwoLevel is the native runtime's default local queue (the "twolevel"
// kind): a power-of-two ring of per-priority FIFO buckets with an occupancy
// bitmap and a scan cursor, over a d-ary heap it falls back to when the
// resident priority span does not fit the ring.
//
// It is exact in Prio and FIFO among equal priorities. The scheduler orders
// work by integer priority only (§II); the (Prio, Node) order of task.Less
// is a determinism device the simulator needs, and keeping it cost the
// native runtime a sift per push and per pop. Here Push is one store at the
// bucket's tail and Pop one load off the cursor bucket's head: no
// comparison, no sift, no sort. A push below the cursor just lowers the
// cursor, so non-monotone streams (PageRank's residual classes, coloring's
// negative degrees) cost the same as monotone ones. FIFO is also the better
// tie order for delta-stepping: earlier pushes come from earlier-settled
// parents.
//
// The one stream the ring cannot hold is a resident span wider than
// twoLevelMaxW (arbitrary client priorities through hdcps-serve): the queue
// then migrates, once and for all, into a d-ary heap under task.Less —
// still exact in Prio, ties by Node from there on.
//
// The name and the HotCap field are what benchmark/replay.go builds the
// "twolevel" kind with; the hot buffer they once sized lives on only in the
// simulator's HPQ. Like every pq.Queue, a TwoLevel is single-owner: no
// internal locking.
type TwoLevel struct {
	buckets []fifo
	occ     []uint64
	// free chains the chunks no bucket holds; slab is what is left of the
	// last chunkSlab-chunk allocation. Every bucket draws from and returns
	// to the one freelist, so the queue allocates for its peak population
	// once, whichever priorities that population moves through.
	free *chunk
	slab []chunk
	cur  int64 // scan cursor: lower bound on the resident minimum
	hi   int64 // upper bound on the resident maximum
	size int   // tasks in the ring (0 once fallen back)

	arity int
	// heap is non-nil once a span overflow has migrated the queue.
	heap *DHeap
}

// TwoLevelConfig sizes a TwoLevel's fallback heap. The zero value gives a
// 4-ary one.
type TwoLevelConfig struct {
	// HotCap is accepted and ignored: benchmark/replay.go names it, and the
	// ring has no hot buffer to size.
	HotCap int
	// Arity is the fallback d-ary heap's branching factor (<=0 selects 4).
	Arity int
}

// twoLevelStartW is the ring's initial bucket count; twoLevelMaxW caps its
// growth. A resident priority span that cannot fit in twoLevelMaxW buckets
// triggers the heap fallback instead of further growth.
const (
	twoLevelStartW = 256
	twoLevelMaxW   = 1 << 16
)

// Bucket storage: a chunk holds chunkLen tasks, and chunks are allocated
// chunkSlab at a time (about 25 KB).
const (
	chunkLen  = 16
	chunkSlab = 64
)

// chunk is one link of a bucket's chain.
type chunk struct {
	next *chunk
	buf  [chunkLen]task.Task
}

// fifo is one priority's bucket: a chain of chunks, pushed at tail.buf[ti]
// and popped at head.buf[hi]; empty when head is nil. A chunk goes back to
// the queue's freelist the moment its last task is popped, so a bucket that
// lives for a whole solve — PageRank holds one class most of the time —
// occupies what it holds now, not what has passed through it, and growing
// never copies.
type fifo struct {
	head, tail *chunk
	hi, ti     int
}

// NewTwoLevel returns an empty queue.
func NewTwoLevel(cfg TwoLevelConfig) *TwoLevel {
	if cfg.Arity <= 0 {
		cfg.Arity = 4
	}
	return &TwoLevel{
		buckets: make([]fifo, twoLevelStartW),
		occ:     make([]uint64, twoLevelStartW/64),
		arity:   cfg.Arity,
	}
}

// Len returns the number of queued tasks.
func (q *TwoLevel) Len() int {
	if q.heap != nil {
		return q.heap.Len()
	}
	return q.size
}

// FellBack reports whether a span overflow has migrated the queue into its
// fallback heap (surfaced as the runtime's queue_fallbacks counter).
func (q *TwoLevel) FellBack() bool { return q.heap != nil }

// Push inserts t behind every queued task of its priority.
func (q *TwoLevel) Push(t task.Task) {
	if q.heap != nil {
		q.heap.Push(t)
		return
	}
	p := t.Prio
	if q.size == 0 {
		q.cur, q.hi = p, p
	} else if p < q.cur || p > q.hi {
		if !q.stretch(p) {
			q.fallBack()
			q.heap.Push(t)
			return
		}
	}
	idx := int(p & int64(len(q.buckets)-1))
	b := &q.buckets[idx]
	c := b.tail
	if c == nil || b.ti == chunkLen {
		c = q.chunk()
		if b.tail == nil {
			b.head, b.hi = c, 0
			q.occ[idx>>6] |= 1 << uint(idx&63)
		} else {
			b.tail.next = c
		}
		b.tail, b.ti = c, 0
	}
	c.buf[b.ti] = t
	b.ti++
	q.size++
}

// Pop removes and returns the oldest task of the lowest queued priority.
func (q *TwoLevel) Pop() (task.Task, bool) {
	if q.size == 0 {
		if q.heap != nil {
			return q.heap.Pop()
		}
		return task.Task{}, false
	}
	idx := q.front()
	b := &q.buckets[idx]
	c := b.head
	t := c.buf[b.hi]
	b.hi++
	q.size--
	if c == b.tail {
		if b.hi == b.ti {
			b.head, b.tail = nil, nil
			q.occ[idx>>6] &^= 1 << uint(idx&63)
			c.next, q.free = q.free, c
		}
	} else if b.hi == chunkLen {
		b.head, b.hi = c.next, 0
		c.next, q.free = q.free, c
	}
	return t, true
}

// Peek returns the task Pop would return, without removing it.
func (q *TwoLevel) Peek() (task.Task, bool) {
	if q.size == 0 {
		if q.heap != nil {
			return q.heap.Peek()
		}
		return task.Task{}, false
	}
	b := &q.buckets[q.front()]
	return b.head.buf[b.hi], true
}

// front moves the cursor to the first occupied bucket at or above it and
// returns that bucket's ring index. Caller guarantees size > 0, so one
// exists within a lap of the ring.
func (q *TwoLevel) front() int {
	w := len(q.buckets)
	idx := int(q.cur & int64(w-1))
	if q.buckets[idx].head != nil {
		return idx
	}
	q.cur += int64(occScan(q.occ, idx, w))
	return int(q.cur & int64(w-1))
}

// occScan returns the ring distance from idx to the first set bit of occ at
// or after it, scanning a word at a time and wrapping at w bits. Caller
// guarantees a bit is set.
func occScan(occ []uint64, idx, w int) int {
	for steps := 0; steps < w; {
		word := occ[idx>>6] >> uint(idx&63)
		if word != 0 {
			return steps + bits.TrailingZeros64(word)
		}
		adv := 64 - (idx & 63)
		steps += adv
		idx = (idx + adv) & (w - 1)
	}
	return 0
}

// stretch widens [cur, hi] to take in p, doubling the ring while the span
// does not fit. Invariant: while size > 0 every resident priority lies in
// [cur, cur+W), so ring index p & (W-1) is collision-free (two's-complement
// AND handles negative priorities). False means the span cannot fit at
// twoLevelMaxW.
func (q *TwoLevel) stretch(p int64) bool {
	lo, hi := min(q.cur, p), max(q.hi, p)
	for uint64(hi-lo) >= uint64(len(q.buckets)) {
		if len(q.buckets)*2 > twoLevelMaxW {
			return false
		}
		q.grow()
	}
	q.cur, q.hi = lo, hi
	return true
}

// grow doubles the ring, re-placing occupied buckets under the wider mask.
// Each one's priority is reconstructed from the cursor: cur plus its ring
// distance from cur's slot, unique because the old span fit the old width.
func (q *TwoLevel) grow() {
	oldW := len(q.buckets)
	newW := oldW * 2
	nb := make([]fifo, newW)
	nocc := make([]uint64, newW/64)
	base := int(q.cur & int64(oldW-1))
	for step := 0; step < oldW; step++ {
		b := q.buckets[(base+step)&(oldW-1)]
		if b.head == nil {
			continue
		}
		nidx := int((q.cur + int64(step)) & int64(newW-1))
		nb[nidx] = b
		nocc[nidx>>6] |= 1 << uint(nidx&63)
	}
	q.buckets = nb
	q.occ = nocc
}

// chunk returns an unlinked chunk: off the freelist, else off the slab.
func (q *TwoLevel) chunk() *chunk {
	if c := q.free; c != nil {
		q.free, c.next = c.next, nil
		return c
	}
	if len(q.slab) == 0 {
		q.slab = make([]chunk, chunkSlab)
	}
	c := &q.slab[0]
	q.slab = q.slab[1:]
	return c
}

// fallBack migrates the ring's contents into a fresh d-ary heap and retires
// the ring. One-way: a priority distribution that proved unbucketable once
// is assumed to stay that way.
func (q *TwoLevel) fallBack() {
	h := NewDHeap(q.arity, q.size+64)
	for i := range q.buckets {
		b := &q.buckets[i]
		for c, lo := b.head, b.hi; c != nil; c, lo = c.next, 0 {
			hi := chunkLen
			if c == b.tail {
				hi = b.ti
			}
			for _, t := range c.buf[lo:hi] {
				h.Push(t)
			}
		}
	}
	q.size = 0
	q.buckets, q.occ, q.free, q.slab = nil, nil, nil, nil
	q.heap = h
}
