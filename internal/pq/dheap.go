package pq

import "hdcps/internal/task"

// DHeap is an array-backed d-ary min-heap. Wider nodes trade more sibling
// comparisons per level for a shallower tree and fewer cache-line misses on
// the sift-down path; Wimmer et al. ("Data Structures for Task-based
// Priority Scheduling") and the MultiQueue line of work both land on d=4 as
// the sweet spot for task-sized payloads, and that is the native runtime's
// default private queue. The simulator keeps the binary heap so its charged
// O(log2 n) cost model is unchanged.
//
// With d=4 the four children of node i occupy indices 4i+1..4i+4 — adjacent
// elements that usually share one or two cache lines — so a sift-down level
// costs one memory fetch instead of two scattered ones.
type DHeap struct {
	arity int
	items []task.Task
}

// NewDHeap returns an empty d-ary heap with the given arity (clamped to at
// least 2) and initial capacity.
func NewDHeap(arity, capacity int) *DHeap {
	if arity < 2 {
		arity = 2
	}
	return &DHeap{arity: arity, items: make([]task.Task, 0, capacity)}
}

// Len returns the number of queued tasks.
func (h *DHeap) Len() int { return len(h.items) }

// Push inserts t.
func (h *DHeap) Push(t task.Task) {
	h.items = append(h.items, t)
	h.siftUp(len(h.items) - 1)
}

// Pop removes and returns the minimum task.
func (h *DHeap) Pop() (task.Task, bool) {
	if len(h.items) == 0 {
		return task.Task{}, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top, true
}

// Peek returns the minimum task without removing it.
func (h *DHeap) Peek() (task.Task, bool) {
	if len(h.items) == 0 {
		return task.Task{}, false
	}
	return h.items[0], true
}

func (h *DHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / h.arity
		if !h.items[i].Less(h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *DHeap) siftDown(i int) {
	n := len(h.items)
	d := h.arity
	for {
		first := d*i + 1
		if first >= n {
			return
		}
		least := i
		end := first + d
		if end > n {
			end = n
		}
		for c := first; c < end; c++ {
			if h.items[c].Less(h.items[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		h.items[i], h.items[least] = h.items[least], h.items[i]
		i = least
	}
}
