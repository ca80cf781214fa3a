// Package rq implements the per-core software receive queue of HD-CPS
// (§III-A): a fixed-size circular buffer that decouples inter-core task
// transfer from task processing. Multiple sender cores claim slots with an
// atomic increment of the write pointer and then publish their task by
// setting the slot flag; the single owning core drains published slots into
// its private priority queue. This keeps the priority queue free of remote
// atomic operations.
package rq

import (
	"sync/atomic"

	"hdcps/internal/task"
)

// Ring is a bounded multi-producer single-consumer queue of tasks. Producers
// may call TryPushBatch concurrently; only the owning core may call Pop/Drain.
// Capacities are rounded up to a power of two. The zero value is not usable;
// construct with NewRing.
type Ring struct {
	mask uint64
	// head is the consumer cursor, tail the producer claim cursor.
	head  atomic.Uint64
	tail  atomic.Uint64
	slots []slot
}

type slot struct {
	// seq implements the Vyukov sequence protocol: a slot is writable for
	// ticket t when seq == t, and readable when seq == t+1. This is the
	// "flag" of the paper's receive queue, generalized so the ring can wrap
	// without the ABA problem.
	seq  atomic.Uint64
	task task.Task
}

// NewRing returns an empty ring with capacity rounded up to a power of two
// (minimum 2).
func NewRing(capacity int) *Ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring{mask: uint64(n - 1), slots: make([]slot, n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Len returns a snapshot of the number of published-but-unconsumed tasks.
// With concurrent producers it is approximate, as for any concurrent queue.
//
// The load order matters: head (the consumer cursor) is read before tail
// (the producer claim cursor). Both cursors only advance, so reading head
// first makes the window [h, t] a superset of some state that actually
// existed — a stale h can only overcount. Reading tail first would allow a
// concurrent push+pop between the two loads to produce a window that never
// existed and undercount (t_stale < h_fresh clamping to 0 on a non-empty
// ring).
func (r *Ring) Len() int {
	h := r.head.Load()
	t := r.tail.Load()
	if t < h {
		return 0
	}
	n := int(t - h)
	if n > len(r.slots) {
		n = len(r.slots)
	}
	return n
}

// TryPushBatch enqueues a prefix of ts and returns how many tasks were
// enqueued (0 when the ring is full). The whole run of tickets is claimed
// with a single CAS on the producer cursor — the batching lever that
// "Engineering MultiQueues" shows dominates throughput in this scheduler
// shape — instead of one CAS per task.
//
// Correctness of the single availability probe: the run [pos, pos+n) is
// claimable when the slot that will hold ticket pos+n-1 has been recycled
// for it (seq == pos+n-1). The single consumer recycles slots in strict
// ticket order, so observing the last slot of the run recycled implies every
// earlier slot of the run was recycled first (and those recycles are visible
// here because sync/atomic operations are sequentially consistent).
func (r *Ring) TryPushBatch(ts []task.Task) int {
	if len(ts) == 0 {
		return 0
	}
retry:
	for {
		pos := r.tail.Load()
		n := uint64(len(ts))
		if c := uint64(len(r.slots)); n > c {
			n = c
		}
		// Shrink n until the run's last ticket is claimable.
		for {
			if n == 0 {
				return 0 // ring full
			}
			ticket := pos + n - 1
			seq := r.slots[ticket&r.mask].seq.Load()
			if seq == ticket {
				break // run [pos, pos+n) is free
			}
			if seq > ticket {
				continue retry // tail moved under us; pos is stale
			}
			n-- // that depth still holds an unconsumed task a lap behind
		}
		if !r.tail.CompareAndSwap(pos, pos+n) {
			continue // another producer claimed tickets; retry
		}
		for i := uint64(0); i < n; i++ {
			s := &r.slots[(pos+i)&r.mask]
			s.task = ts[i]
			s.seq.Store(pos + i + 1) // publish, in ticket order
		}
		return int(n)
	}
}

// Pop removes and returns the oldest published task. It must be called only
// by the ring's owning consumer.
func (r *Ring) Pop() (task.Task, bool) {
	pos := r.head.Load()
	s := &r.slots[pos&r.mask]
	if s.seq.Load() != pos+1 {
		return task.Task{}, false // nothing published at the cursor
	}
	t := s.task
	s.seq.Store(pos + uint64(len(r.slots))) // recycle slot for the next lap
	r.head.Store(pos + 1)
	return t, true
}

// Drain pops up to max tasks (all published tasks if max <= 0), appending
// them to dst, and returns the extended slice. Draining in batches is what
// the paper's ISR does when moving tasks to the priority queue.
func (r *Ring) Drain(dst []task.Task, max int) []task.Task {
	for n := 0; max <= 0 || n < max; n++ {
		t, ok := r.Pop()
		if !ok {
			break
		}
		dst = append(dst, t)
	}
	return dst
}
