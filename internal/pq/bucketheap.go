package pq

import (
	"math/bits"

	"hdcps/internal/task"
)

// BucketHeap is the strict-order oracle's queue (workload.DrainStrict): a
// min-queue exact under task.Less, built for one goroutine draining one
// workload from its initial tasks to quiescence.
//
// It is a priority window, like TwoLevel's, so a push below the cursor just
// lowers it. Each bucket is a 4-ary min-heap of 16-byte entries keyed
// by one uint64, Node<<32 | Job, with Data beside the key: within a
// priority the order is task.Less's Node order, and a comparison is one
// integer compare instead of Less's two. The Prio of a popped task is the
// cursor's, so it is not stored. Tasks equal under Less (same Prio and
// Node) leave in Job order and then in no fixed order; the oracle's
// workloads give the same answer and task count whichever of them goes
// first (workload.TestDrainStrictMatchesHeap).
//
// Bucket storage is a buddy allocator over one slab: carves of
// power-of-two sizes, each aligned to its size, addressed by offset so the
// slab can double under live buckets. A bucket that fills takes its free
// buddy when it has one, else moves to a carve twice its size; one that
// falls to a quarter full moves to a free carve half its size, or gives
// back its upper half when none is free. A freed carve merges with its
// free buddy, and free carves are chained through their
// first entry in per-size freelists. The slab so follows the tasks queued,
// not those that passed through (TestBucketHeapSlabTracksLive), and a run
// allocates once for each doubling of its peak population, not once per
// bucket growth.
//
// A resident priority span wider than windowMaxW (arbitrary client
// priorities through hdcps.SequentialTasks) moves the queue into a
// BinaryHeap under task.Less: still exact, and bounded in memory whatever
// the priorities.
type BucketHeap struct {
	window[carve]

	slab []entry // len a power of two
	// free[k] is 1 + the offset of the first free carve of 1<<k entries,
	// 0 when there is none; each free carve's first entry links the next
	// (key) and the previous (data) the same way. freeAt[off>>minCarve] is
	// 1 + k when a free carve of 1<<k entries starts at off, else 0.
	free   [32]uint32
	freeAt []uint8

	// heap is non-nil once a span overflow has moved the queue.
	heap *BinaryHeap
}

// entry is one queued task without its Prio.
type entry struct {
	key  uint64 // Node<<32 | Job
	data uint64
}

// carve is one bucket's storage, slab[off:off+cap], of which the first n
// entries are the bucket's heap; cap is 0 while the bucket is empty.
type carve struct {
	off, n, cap uint32
}

// minCarve is the log2 of a bucket's first carve.
const minCarve = 3

// NewBucketHeap returns an empty queue whose slab starts with room for
// about capacity tasks.
func NewBucketHeap(capacity int) *BucketHeap {
	n := 1 << bits.Len(uint(max(capacity, 1<<minCarve)-1))
	q := &BucketHeap{
		window: newWindow[carve](),
		slab:   make([]entry, n),
		freeAt: make([]uint8, n>>minCarve),
	}
	q.link(0, bits.TrailingZeros(uint(n)))
	return q
}

// Push inserts t.
func (q *BucketHeap) Push(t task.Task) {
	if q.heap != nil {
		q.heap.Push(t)
		return
	}
	if !q.covers(t.Prio) && !q.widen(t.Prio) {
		q.fallBack()
		q.heap.Push(t)
		return
	}
	idx := q.index(t.Prio)
	b := &q.buckets[idx]
	if b.n == b.cap {
		if b.cap == 0 {
			q.occupy(idx)
		}
		q.enlarge(b)
	}
	h := q.slab[b.off : b.off+b.n+1]
	h[b.n] = entry{uint64(t.Node)<<32 | uint64(t.Job), t.Data}
	siftUpEntries(h, int(b.n))
	b.n++
	q.size++
}

// Pop removes and returns the minimum task under task.Less.
func (q *BucketHeap) Pop() (task.Task, bool) {
	if q.size == 0 {
		if q.heap != nil {
			return q.heap.Pop()
		}
		return task.Task{}, false
	}
	idx := q.front()
	b := &q.buckets[idx]
	h := q.slab[b.off : b.off+b.n]
	e := h[0]
	b.n--
	if b.n == 0 {
		q.release(b.off, b.cap)
		b.cap = 0
		q.vacate(idx)
	} else {
		h[0] = h[b.n]
		siftDownEntries(h[:b.n], 0)
		if b.n <= b.cap/4 && b.cap > 1<<minCarve {
			q.shrink(b)
		}
	}
	q.size--
	return task.Task{Node: uint32(e.key >> 32), Job: task.JobID(e.key), Prio: q.cur, Data: e.data}, true
}

// enlarge gives a full bucket a carve twice its size (an empty one its
// first): its own and its buddy's when the buddy is free, else a new one,
// freeing the old.
func (q *BucketHeap) enlarge(b *carve) {
	if b.cap == 0 {
		b.off, b.cap = q.alloc(minCarve), 1<<minCarve
		return
	}
	k := bits.TrailingZeros32(b.cap)
	if buddy := b.off + b.cap; b.off&b.cap == 0 && int(buddy) < len(q.slab) && q.freeAt[buddy>>minCarve] == uint8(k+1) {
		q.unlink(buddy, k)
		b.cap *= 2
		return
	}
	off := q.alloc(k + 1)
	copy(q.slab[off:off+b.n], q.slab[b.off:b.off+b.n])
	q.release(b.off, b.cap)
	b.off, b.cap = off, b.cap*2
}

// shrink halves the carve of a bucket a quarter full. It moves the bucket
// into a free carve of the half size when there is one, and frees the old
// carve whole: a few tasks left at the bottom of a large carve would keep
// the rest of it from merging back into a carve the next swelling bucket
// can take. Without one, it gives back the old carve's upper half rather
// than grow the slab to shrink.
func (q *BucketHeap) shrink(b *carve) {
	half := b.cap / 2
	if off, ok := q.take(bits.TrailingZeros32(half)); ok {
		copy(q.slab[off:off+b.n], q.slab[b.off:b.off+b.n])
		q.release(b.off, b.cap)
		b.off = off
	} else {
		q.release(b.off+half, half)
	}
	b.cap = half
}

// alloc returns the offset of a carve of 1<<k entries, doubling the slab
// while none is free.
func (q *BucketHeap) alloc(k int) uint32 {
	for {
		if off, ok := q.take(k); ok {
			return off
		}
		q.double()
	}
}

// take returns a carve of 1<<k entries cut from the smallest free carve
// that is large enough, halving it down to size; false when there is none.
func (q *BucketHeap) take(k int) (uint32, bool) {
	j := k
	for q.free[j] == 0 {
		if j++; 1<<j > len(q.slab) {
			return 0, false
		}
	}
	off := q.free[j] - 1
	q.unlink(off, j)
	for j > k {
		j--
		q.link(off+1<<j, j)
	}
	return off, true
}

// double doubles the slab; its new upper half is one free carve.
func (q *BucketHeap) double() {
	n := len(q.slab)
	s := make([]entry, 2*n)
	copy(s, q.slab)
	f := make([]uint8, 2*n>>minCarve)
	copy(f, q.freeAt)
	q.slab, q.freeAt = s, f
	q.release(uint32(n), uint32(n))
}

// release frees the carve of size entries at off, merging it with its
// buddy while the buddy is free.
func (q *BucketHeap) release(off, size uint32) {
	k := bits.TrailingZeros32(size)
	for ; int(size) < len(q.slab); size *= 2 {
		buddy := off ^ size
		if q.freeAt[buddy>>minCarve] != uint8(k+1) {
			break
		}
		q.unlink(buddy, k)
		off &^= size
		k++
	}
	q.link(off, k)
}

// link puts the free carve of 1<<k entries at off at the head of its
// freelist.
func (q *BucketHeap) link(off uint32, k int) {
	next := q.free[k]
	q.slab[off] = entry{key: uint64(next)}
	if next != 0 {
		q.slab[next-1].data = uint64(off + 1)
	}
	q.free[k] = off + 1
	q.freeAt[off>>minCarve] = uint8(k + 1)
}

// unlink takes the free carve of 1<<k entries at off off its freelist.
func (q *BucketHeap) unlink(off uint32, k int) {
	next, prev := uint32(q.slab[off].key), uint32(q.slab[off].data)
	if prev != 0 {
		q.slab[prev-1].key = uint64(next)
	} else {
		q.free[k] = next
	}
	if next != 0 {
		q.slab[next-1].data = uint64(prev)
	}
	q.freeAt[off>>minCarve] = 0
}

// fallBack moves the buckets' contents into a BinaryHeap and retires the
// buckets. One-way: a span that proved too wide once is assumed to stay so.
func (q *BucketHeap) fallBack() {
	h := NewBinaryHeap(q.size + 64)
	for i, b := range q.buckets {
		for _, e := range q.slab[b.off : b.off+b.n] {
			h.Push(task.Task{Node: uint32(e.key >> 32), Job: task.JobID(e.key), Prio: q.at(i), Data: e.data})
		}
	}
	q.window, q.slab, q.freeAt = window[carve]{}, nil, nil
	q.heap = h
}

// siftUpEntries restores the 4-ary min-heap property of h after h[i] was
// written, carrying the entry up through the hole.
func siftUpEntries(h []entry, i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if e.key >= h[p].key {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// siftDownEntries restores the 4-ary min-heap property of h after h[i] was
// written, carrying the entry down through the hole past its least child.
// The least of four children is picked by a tournament of independent
// compares, which the compiler turns into conditional moves: in a bucket of
// hundreds of tasks in random node order, a branch per compare mispredicts
// half the time.
func siftDownEntries(h []entry, i int) {
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		if c+3 >= n {
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < n; j++ {
				if h[j].key < h[m].key {
					m = j
				}
			}
			if h[m].key < e.key {
				h[i] = h[m]
				i = m
			}
			break
		}
		ch := h[c : c+4 : c+4]
		k0, k1, k2, k3 := ch[0].key, ch[1].key, ch[2].key, ch[3].key
		_, b01 := bits.Sub64(k1, k0, 0) // 1 when k1 < k0
		_, b23 := bits.Sub64(k3, k2, 0)
		k01, k23 := min(k0, k1), min(k2, k3)
		_, b := bits.Sub64(k23, k01, 0)
		m := c + int(b01)
		m += -int(b) & (c + 2 + int(b23) - m)
		k := min(k01, k23)
		if k >= e.key {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}
