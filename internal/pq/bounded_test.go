package pq

import "hdcps/internal/task"

// Bounded is a fixed-capacity min-heap modeling the paper's per-core
// hardware priority queue (hPQ, §III-D): a small associative structure (48
// entries by default) with constant-latency access. When full, pushing a new
// task evicts the *lowest-priority* (maximum Prio) resident so the hardware
// always keeps the best tasks; the evicted task spills to the software PQ.
// It is the differential oracle TestHPQHotEviction holds HPQ's hot tier to,
// which is why it lives with the tests.
//
// Eviction scans the heap's leaf half linearly — realistic for a hardware
// CAM of a few dozen entries and O(capacity) in the worst case.
type Bounded struct {
	items []task.Task
	cap   int
}

// NewBounded returns an empty bounded heap with the given capacity.
// A capacity of 0 models a machine without the hardware queue: every Push
// immediately "evicts" its argument.
func NewBounded(capacity int) *Bounded {
	if capacity < 0 {
		capacity = 0
	}
	return &Bounded{items: make([]task.Task, 0, capacity), cap: capacity}
}

// Cap returns the fixed capacity.
func (b *Bounded) Cap() int { return b.cap }

// Len returns the number of resident tasks.
func (b *Bounded) Len() int { return len(b.items) }

// Full reports whether the queue is at capacity.
func (b *Bounded) Full() bool { return len(b.items) >= b.cap }

// Push inserts t if there is room, or if t beats the current worst resident.
// It returns the task displaced to software (the zero Task and false when
// everything fit).
func (b *Bounded) Push(t task.Task) (evicted task.Task, didEvict bool) {
	if b.cap == 0 {
		return t, true
	}
	if len(b.items) < b.cap {
		b.items = append(b.items, t)
		siftUpTasks(b.items, len(b.items)-1)
		return task.Task{}, false
	}
	// Full: find the worst resident. In a min-heap the maximum lives among
	// the leaves (the last half of the array).
	worst := len(b.items) / 2
	for i := worst + 1; i < len(b.items); i++ {
		if b.items[worst].Less(b.items[i]) {
			worst = i
		}
	}
	if !t.Less(b.items[worst]) {
		return t, true // incoming task is the worst; spill it directly
	}
	evicted = b.items[worst]
	b.items[worst] = t
	siftUpTasks(b.items, worst)
	return evicted, true
}

// Pop removes and returns the minimum task.
func (b *Bounded) Pop() (task.Task, bool) {
	if len(b.items) == 0 {
		return task.Task{}, false
	}
	top := b.items[0]
	last := len(b.items) - 1
	b.items[0] = b.items[last]
	b.items = b.items[:last]
	if last > 0 {
		siftDownTasks(b.items, 0)
	}
	return top, true
}

// Peek returns the minimum task without removing it.
func (b *Bounded) Peek() (task.Task, bool) {
	if len(b.items) == 0 {
		return task.Task{}, false
	}
	return b.items[0], true
}
