// Package pq provides the priority queues under the schedulers: a binary
// heap (the software PQ of the simulated schedulers, the fallback of
// BucketHeap and HPQ and the native runtime's heap kind), a d-ary heap (the
// dheap kind, and TwoLevel's fallback), TwoLevel (the native
// runtime's default kind: a ring of per-priority FIFO buckets, exact in Prio
// and FIFO among equal priorities), HPQ (the simulator's model of a core
// with the paper's hardware queue: a sorted hot buffer over a mini-heap
// bucket store, exact under task.Less), BucketHeap (the strict-order
// oracle's queue, workload.DrainStrict: a window of per-priority 4-ary
// heaps keyed by Node, exact under task.Less) and the relaxed MultiQueue
// (shared shards, one handle per worker). Every binary heap here but DHeap
// sifts through siftUpTasks and siftDownTasks; so does Bounded
// (bounded_test.go), a small bounded heap with the hPQ's eviction rule that
// TestHPQHotEviction holds HPQ's hot tier to as the differential oracle.
//
// TwoLevel, BucketHeap and HPQ's cold store are one shape, the bucket queue
// over a heap of Wimmer et al. ("Data Structures for Task-based Priority
// Scheduling"): a priority window (window.go) of per-priority buckets, a
// power-of-two ring indexed by p & (W-1) with an occupancy bitmap, a scan
// cursor at or below the lowest queued priority and an upper bound above
// the highest. A push below the cursor just lowers it; a push that widens
// the span past the ring doubles it, up to 2^16 buckets; a wider span moves
// the queue, once and for all, into a comparison heap. The window is written
// once; each queue supplies only its buckets and their order: FIFO chunks
// (TwoLevel), 4-ary entry heaps on a buddy slab (BucketHeap), binary
// mini-heaps behind a rewind-storm detector (HPQ).
//
// BucketHeap, HPQ and the binary heap of sched.Sequential all pop in
// task.Less order but break Less-equal ties (one Prio and Node, bag
// markers of one priority) each in its own way. The oracle's workloads
// count the same tasks and reach the same state whatever that order
// (workload.TestDrainStrictMatchesHeap), so its queue is free to be the
// fastest exact one. The simulator's are not: HPQ is the model of the
// paper's hardware queue and sched.Sequential charges the cost of the
// software binary heap it runs, and the simulated cycles depend on the tie
// order (TestGoldenCycles), so both keep their shapes and BucketHeap
// cannot stand in for them.
//
// All queues are min-queues over task.Task: Pop returns the task with the
// numerically smallest Prio. Only MultiQueue is safe for concurrent use,
// through its handles; the others are single-owner and the schedulers add
// their own synchronization, exactly as the paper's software designs do.
package pq

import "hdcps/internal/task"

// Queue is the common interface of all priority-queue implementations.
type Queue interface {
	// Push inserts a task.
	Push(t task.Task)
	// Pop removes and returns the highest-priority (minimum Prio) task.
	// The second result is false if the queue is empty.
	Pop() (task.Task, bool)
	// Peek returns the highest-priority task without removing it.
	Peek() (task.Task, bool)
	// Len returns the number of queued tasks.
	Len() int
}
