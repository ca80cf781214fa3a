package pq

import "hdcps/internal/task"

// TwoLevel is the native runtime's default local queue (the "twolevel"
// kind): a priority window of FIFO buckets over a d-ary heap it falls back
// to when the resident priority span does not fit the window.
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
// The one stream the window cannot hold is a resident span wider than
// windowMaxW (arbitrary client priorities through hdcps-serve): the queue
// then migrates into a d-ary heap under task.Less — still exact in Prio,
// ties by Node from there on.
//
// The name and the HotCap field are what benchmark/replay.go builds the
// "twolevel" kind with; the hot buffer they once sized lives on only in the
// simulator's HPQ. Like every pq.Queue, a TwoLevel is single-owner: no
// internal locking.
type TwoLevel struct {
	window[fifo]
	// free chains the chunks no bucket holds; slab is what is left of the
	// last chunkSlab-chunk allocation. Every bucket draws from and returns
	// to the one freelist, so the queue allocates for its peak population
	// once, whichever priorities that population moves through.
	free *chunk
	slab []chunk

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
	return &TwoLevel{window: newWindow[fifo](), arity: cfg.Arity}
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
	if !q.covers(t.Prio) && !q.widen(t.Prio) {
		q.fallBack()
		q.heap.Push(t)
		return
	}
	idx := q.index(t.Prio)
	b := &q.buckets[idx]
	c := b.tail
	if c == nil || b.ti == chunkLen {
		c = q.chunk()
		if b.tail == nil {
			b.head, b.hi = c, 0
			q.occupy(idx)
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
			q.vacate(idx)
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
	q.window, q.free, q.slab = window[fifo]{}, nil, nil
	q.heap = h
}
