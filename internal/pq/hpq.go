package pq

import "hdcps/internal/task"

// HPQ is the simulator's model of a core's priority queue on a machine with
// the paper's hardware queue (§III-D): a small fixed-capacity sorted **hot
// buffer** modeling the 48-entry hPQ in front of a **cold store** — a
// priority window of binary mini-heaps, migrating once and for all into a
// binary heap when the priority stream keeps rewinding the cursor or its
// resident span outgrows the window.
//
// Ordering is EXACT under task.Less: every bucket is itself a min-heap and
// PopEx compares the hot front against the cold minimum, so the pop sequence
// equals a global heap's — up to the order of Less-equal tasks (bag markers
// of one priority), which depends on this structure's shape. The simulator's
// cycle counts depend on that order (TestGoldenCycles), which is why this
// type keeps the tie order of the two-level queue the simulator was
// recorded on, fallback heap included (TestHPQFallback), rather than being
// a bounded heap over a BinaryHeap, and why the native runtime's FIFO ring
// (TwoLevel) cannot stand in for it. Only internal/sched/cps.go uses it.
//
// Single-owner: no internal locking.
type HPQ struct {
	// hot[head:] is the resident window, ascending in task.Less order.
	hot  []task.Task
	head int
	cap  int

	cold coldBuckets
	// heap is non-nil once the monotonicity detector has fired: the cold
	// store's contents migrate here and all later spills follow.
	heap *BinaryHeap

	rewindScore int
	size        int
}

// Rewind-storm detector: a leaky-bucket score over the cold-push stream.
// Every rewind adds rewindPenalty, every in-order push drains rewindForgive,
// and the cold store migrates to the comparison heap when the score reaches
// rewindStormScore. A sustained rewind rate above 1 in (1+rewindPenalty)
// trips it; transient turbulence (SSSP/BFS relaxation fronts early in a run)
// decays away instead of accumulating toward a trip the way a cumulative
// ratio would.
const (
	rewindPenalty    = 3
	rewindForgive    = 1
	rewindStormScore = 96
)

// Bucket-storage slab parameters: fresh mini-heaps start with bucketSeedCap
// entries of capacity carved from a bucketSlabLen-entry arena chunk. A
// drained bucket that grew to bucketBigCap or beyond moves to the freelist
// (up to bucketFreeMax entries) so the capacity follows the deep frontier —
// BFS drains one level's bucket as the next fills — while smaller ones stay
// parked at their ring index for the next priority that wraps onto it.
const (
	bucketSeedCap = 8
	bucketSlabLen = 1024
	bucketBigCap  = 16
	bucketFreeMax = 256
)

// NewHPQ returns an empty queue whose hot buffer holds hotCap tasks (<=0
// selects 48, §III-D's hPQ size).
func NewHPQ(hotCap int) *HPQ {
	if hotCap <= 0 {
		hotCap = 48
	}
	return &HPQ{
		hot:  make([]task.Task, 0, 2*hotCap),
		cap:  hotCap,
		cold: coldBuckets{window: newWindow[[]task.Task]()},
	}
}

// Len returns the number of queued tasks across both levels.
func (q *HPQ) Len() int { return q.size }

// ColdLen returns the number of tasks in the cold store (bucket ring or
// fallback heap) — the "software PQ" side of the simulator's cost model.
func (q *HPQ) ColdLen() int {
	n := q.cold.size
	if q.heap != nil {
		n += q.heap.Len()
	}
	return n
}

// PushEx inserts t and reports whether the insert spilled a task into the
// cold store (t itself, or the hot resident it displaced) — the hPQ-evict
// signal the simulator's §III-D composition observes.
func (q *HPQ) PushEx(t task.Task) (spilled bool) {
	q.size++
	if len(q.hot)-q.head < q.cap {
		q.hotInsert(t)
		return false
	}
	// Hot buffer full: keep the best hotCap tasks resident, exactly like
	// the hardware queue — a task beating the current worst displaces it,
	// anything else spills directly.
	last := len(q.hot) - 1
	if t.Less(q.hot[last]) {
		ev := q.hot[last]
		q.hot = q.hot[:last]
		q.hotInsert(t)
		q.coldPush(ev)
		return true
	}
	q.coldPush(t)
	return true
}

// PushCold inserts t directly into the cold store, bypassing the hot
// buffer — the simulator's seeding and RELD remote-insert paths, which the
// paper routes around the hPQ.
func (q *HPQ) PushCold(t task.Task) {
	q.size++
	q.coldPush(t)
}

// PopEx pops the global minimum and reports whether the hot buffer served
// it. It never promotes cold tasks into the hot buffer, so each task's
// hot/cold provenance — what the simulator charges hardware vs
// software cycles for — matches the paper's hPQ+spill composition exactly.
func (q *HPQ) PopEx() (t task.Task, fromHot, ok bool) {
	if q.size == 0 {
		return task.Task{}, false, false
	}
	if q.head < len(q.hot) {
		hf := q.hot[q.head]
		if c, cok := q.coldPeek(); !cok || hf.Less(c) {
			q.head++
			if q.head == len(q.hot) {
				q.hot = q.hot[:0]
				q.head = 0
			}
			q.size--
			return hf, true, true
		}
	}
	q.size--
	return q.coldPop(), false, true
}

// hotInsert places t into the sorted hot window. Caller guarantees the
// window is below capacity. The backing array is twice HotCap, so the
// pop-front/push-back traffic graph workloads emit — head advances, new
// children land at the end — runs as plain appends with one bulk
// compaction per HotCap-ish inserts, instead of a per-insert memmove the
// moment the append slack runs out. Middle inserts shift whichever side
// is cheaper: the prefix into the head gap left by pops, the suffix into
// the append slack.
func (q *HPQ) hotInsert(t task.Task) {
	live := q.hot[q.head:]
	n := len(live)
	if n == 0 || !t.Less(live[n-1]) {
		// End insert: the hot case for monotone priority streams.
		if len(q.hot) == cap(q.hot) {
			copy(q.hot, live)
			q.hot = q.hot[:n]
			q.head = 0
		}
		q.hot = append(q.hot, t)
		return
	}
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.Less(live[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// A full backing array implies head > 0 (the live window is under
	// HotCap), so the prefix branch always absorbs that case and the append
	// below never reallocates.
	if q.head > 0 && (lo <= n-lo || len(q.hot) == cap(q.hot)) {
		copy(q.hot[q.head-1:], q.hot[q.head:q.head+lo])
		q.head--
		q.hot[q.head+lo] = t
		return
	}
	q.hot = append(q.hot, task.Task{})
	copy(q.hot[q.head+lo+1:], q.hot[q.head+lo:])
	q.hot[q.head+lo] = t
}

// coldPush routes a task to the cold store: the bucket ring while the
// priority stream looks monotone, the fallback heap after the detector
// fires (span overflow or a rewind storm).
func (q *HPQ) coldPush(t task.Task) {
	if q.heap != nil {
		q.heap.Push(t)
		return
	}
	if q.cold.size > 0 && t.Prio < q.cold.cur {
		q.rewindScore += rewindPenalty
	} else if q.rewindScore > 0 {
		q.rewindScore -= rewindForgive
	}
	if q.cold.push(t) {
		if q.rewindScore >= rewindStormScore {
			q.fallBack()
		}
		return
	}
	// The resident span cannot fit even at windowMaxW: this priority
	// distribution is not bucketable, migrate and insert into the heap.
	q.fallBack()
	q.heap.Push(t)
}

func (q *HPQ) coldPeek() (task.Task, bool) {
	if q.cold.size > 0 {
		return q.cold.peek(), true
	}
	if q.heap != nil {
		return q.heap.Peek()
	}
	return task.Task{}, false
}

func (q *HPQ) coldPop() task.Task {
	if q.cold.size > 0 {
		return q.cold.pop()
	}
	t, _ := q.heap.Pop()
	return t
}

// fallBack migrates the cold buckets' contents, in ring index order, into a
// fresh binary heap and retires the buckets. One-way: a stream that proved
// non-monotone once is assumed to stay that way (the hot buffer still
// serves the cache-resident front either way).
func (q *HPQ) fallBack() {
	h := NewBinaryHeap(q.cold.size + 64)
	for _, b := range q.cold.buckets {
		for _, t := range b {
			h.Push(t)
		}
	}
	q.cold = coldBuckets{}
	q.heap = h
}

// coldBuckets is the cold store's bucket level: a priority window whose
// buckets are binary mini-heaps under task.Less.
type coldBuckets struct {
	window[[]task.Task]
	// free recycles the storage of emptied buckets, and arena seeds fresh
	// ones: new mini-heaps are carved bucketSeedCap entries at a time out of
	// a shared slab, so filling the ring costs one allocation per
	// slab-worth of buckets instead of one per bucket. Only a bucket that
	// outgrows its seed capacity pays an append-grow of its own, which the
	// freelist then keeps recycling. Together they take the bucket store's
	// allocation count from O(distinct resident priorities) to O(slabs).
	free  [][]task.Task
	arena []task.Task
}

// push inserts t. False means the span cannot fit in the window.
func (c *coldBuckets) push(t task.Task) bool {
	if !c.covers(t.Prio) && !c.widen(t.Prio) {
		return false
	}
	idx := c.index(t.Prio)
	b := c.buckets[idx]
	if b == nil {
		if n := len(c.free); n > 0 {
			b = c.free[n-1]
			c.free = c.free[:n-1]
		} else {
			if len(c.arena) < bucketSeedCap {
				c.arena = make([]task.Task, bucketSlabLen)
			}
			b = c.arena[:0:bucketSeedCap]
			c.arena = c.arena[bucketSeedCap:]
		}
	}
	b = append(b, t)
	siftUpTasks(b, len(b)-1)
	c.buckets[idx] = b
	c.occupy(idx)
	c.size++
	return true
}

// peek returns the minimum resident task. Caller guarantees size > 0.
func (c *coldBuckets) peek() task.Task {
	return c.buckets[c.front()][0]
}

// pop removes and returns the minimum resident task. Caller guarantees
// size > 0.
func (c *coldBuckets) pop() task.Task {
	idx := c.front()
	b := c.buckets[idx]
	t := b[0]
	n := len(b) - 1
	b[0] = b[n]
	b = b[:n]
	if n > 0 {
		if n > 1 {
			siftDownTasks(b, 0)
		}
		c.buckets[idx] = b
	} else {
		// Drained: big slices chase the frontier via the freelist, small
		// ones wait in place for a priority to wrap back onto this index.
		if cap(b) >= bucketBigCap && len(c.free) < bucketFreeMax {
			c.buckets[idx] = nil
			c.free = append(c.free, b)
		} else {
			c.buckets[idx] = b
		}
		c.vacate(idx)
	}
	c.size--
	return t
}
