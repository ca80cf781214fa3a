package pq

import "hdcps/internal/task"

// BinaryHeap is a classic array-backed binary min-heap. It is the software
// priority queue the paper's RELD and HD-CPS:SW designs pay O(log n)
// rebalancing for on every enqueue/dequeue; the simulator charges exactly
// that cost. The zero value is an empty heap ready to use.
type BinaryHeap struct {
	items []task.Task
}

// NewBinaryHeap returns an empty heap with the given initial capacity.
func NewBinaryHeap(capacity int) *BinaryHeap {
	return &BinaryHeap{items: make([]task.Task, 0, capacity)}
}

// Len returns the number of queued tasks.
func (h *BinaryHeap) Len() int { return len(h.items) }

// Push inserts t.
func (h *BinaryHeap) Push(t task.Task) {
	h.items = append(h.items, t)
	siftUpTasks(h.items, len(h.items)-1)
}

// Pop removes and returns the minimum task.
func (h *BinaryHeap) Pop() (task.Task, bool) {
	if len(h.items) == 0 {
		return task.Task{}, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		siftDownTasks(h.items, 0)
	}
	return top, true
}

// Peek returns the minimum task without removing it.
func (h *BinaryHeap) Peek() (task.Task, bool) {
	if len(h.items) == 0 {
		return task.Task{}, false
	}
	return h.items[0], true
}

// siftUpTasks restores the binary-min-heap property of b after b[i] was
// written with a task that may beat its parent. The task is carried aside
// and written once, at its final slot; the comparisons, and so the array,
// are those of a swap at every level (TestSiftMatchesSwapForm). BinaryHeap,
// HPQ's buckets, MultiQueue's shards and the tests' Bounded all sift here.
func siftUpTasks(b []task.Task, i int) {
	t := b[i]
	for i > 0 {
		p := (i - 1) / 2
		if !t.Less(b[p]) {
			break
		}
		b[i] = b[p]
		i = p
	}
	b[i] = t
}

// siftDownTasks restores the binary-min-heap property of b after b[i] was
// written with a task that may lose to its children, carrying the task down
// through the hole the way siftUpTasks carries it up. The lesser child moves
// up when it beats the task; of two equal children the left one does. Under
// task.Less's strict weak order those are the swap form's choices exactly.
func siftDownTasks(b []task.Task, i int) {
	n := len(b)
	t := b[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && b[r].Less(b[c]) {
			c = r
		}
		if !b[c].Less(t) {
			break
		}
		b[i] = b[c]
		i = c
	}
	b[i] = t
}
