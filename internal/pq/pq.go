// Package pq provides the priority queues under the schedulers: a binary
// heap (the software PQ of the simulated schedulers and the sequential
// oracles, and the native runtime's heap kind), a d-ary heap (the dheap
// kind, and the fallback of the two bucket structures), TwoLevel (the native
// runtime's default kind: a ring of per-priority FIFO buckets, exact in Prio
// and FIFO among equal priorities), HPQ (the simulator's model of a core
// with the paper's hardware queue: a sorted hot buffer over a mini-heap
// bucket store, exact under task.Less) and the relaxed MultiQueue (shared
// shards, one handle per worker). Every binary heap here but DHeap sifts
// through siftUpTasks and siftDownTasks; so does Bounded (bounded_test.go), a
// small bounded heap with the hPQ's eviction rule that TestHPQHotEviction
// holds HPQ's hot tier to as the differential oracle.
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
