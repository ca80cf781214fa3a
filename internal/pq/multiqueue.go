package pq

import (
	"math"
	"sync/atomic"

	"hdcps/internal/task"
)

// MultiQueue is the relaxed concurrent priority queue of Williams & Sanders
// ("Engineering MultiQueues") and Postnikova et al. ("Multi-Queues Can Be
// State-of-the-Art Priority Schedulers"): c·P sequential priority queues
// (shards), each guarded by a try-lock, with delete-min choosing the better
// of two randomly sampled shards (power-of-two-choices) by comparing their
// cached top priorities. The structure trades a *bounded expected* amount of
// priority inversion — with pick-2 the expected rank of a popped element is
// O(c·P), and the rank tail decays geometrically — for near-linear insert
// and delete-min scalability: no operation ever contends on more than one
// shard lock, and a failed try-lock simply re-randomizes instead of waiting.
//
// Two of the paper's engineering levers are built in:
//
//   - Stickiness: a handle reuses its chosen shard (for inserts) or shard
//     pair (for delete-min) for S consecutive operations before
//     re-randomizing, amortizing the random-number draws and keeping a
//     worker's traffic on cache-warm shards. Stickiness multiplies the
//     expected rank error by at most O(S) while cutting the per-op
//     coordination cost; a try-lock failure ends the sticky run early.
//   - Per-shard insertion/deletion batch buffers: each shard fronts its
//     binary heap with a small sorted deletion buffer (delete-min is "read
//     the front", refilled in bulk from the heap) and an unsorted insertion
//     buffer (inserts are an append, flushed into the heap BatchCap at a
//     time), so the amortized per-op heap work is O(log n / BatchCap).
//
// The shard invariant that keeps relaxation *bounded* rather than sloppy:
// a shard's deletion buffer always holds the shard's true minima (an insert
// below the buffer's back lands in the buffer, displacing its back when
// full), so the cached top is the shard's exact minimum and the only
// priority inversion is the cross-shard one pick-2 is designed to bound.
//
// Concurrency contract: the MultiQueue itself is shared; each worker
// operates through its own *MQHandle (Handle), which carries the RNG
// and the stickiness state and implements pq.Queue. Handles are
// single-owner; the shards they touch are protected by the per-shard
// try-locks. Under contention Pop/Peek may spuriously report empty while
// another handle holds the last nonempty shard's lock — callers that need
// global emptiness (the native engine) must track element counts
// externally, which the engine's outstanding ledger already does.
type MultiQueue struct {
	shards []mqShard
	cfg    MultiQueueConfig
	seeds  atomic.Uint64
}

// MultiQueueConfig sizes a MultiQueue. The zero value gives the literature
// defaults: 4 queues per worker, stickiness 8, 16-entry batch buffers.
type MultiQueueConfig struct {
	// Workers is the number of handles expected to operate concurrently
	// (P). <=0 selects 1.
	Workers int
	// Factor is c in the c·P shard count (<=0 selects 4). The total shard
	// count is clamped to at least 2 so pick-2 always has two choices.
	Factor int
	// Stickiness is how many consecutive operations reuse the same shard
	// choice before re-randomizing (<=0 selects 8; 1 disables stickiness).
	Stickiness int
	// BatchCap sizes the per-shard insertion and deletion buffers
	// (<=0 selects 16).
	BatchCap int
	// Seed makes every handle's shard-choice sequence deterministic.
	Seed uint64
}

func (c MultiQueueConfig) withDefaults() MultiQueueConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Factor <= 0 {
		c.Factor = 4
	}
	if c.Stickiness <= 0 {
		c.Stickiness = 8
	}
	if c.BatchCap <= 0 {
		c.BatchCap = 16
	}
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15
	}
	return c
}

// mqEmptyTop is the cached-top sentinel for an empty shard. Real priorities
// never reach it: task.Task.Prio is workload data, and a task carrying
// MaxInt64 would compare equal, costing one wasted lock, not correctness.
const mqEmptyTop = math.MaxInt64

// mqShard is one sequential priority queue: a try-lock, the atomically
// readable cached top, and the buffered binary heap it guards. The hot
// fields lead and the struct is padded so neighboring shards don't share a
// cache line under concurrent lock traffic.
type mqShard struct {
	lock atomic.Uint32
	top  atomic.Int64 // dbuf front's Prio, or mqEmptyTop
	size atomic.Int64

	// dbuf[dpos:] is the sorted deletion buffer: the shard's true minima,
	// ascending. ibuf is the unsorted insertion buffer; heap the binary
	// min-heap backing store. Invariant while the shard is nonempty:
	// every task in ibuf and heap is >= the deletion buffer's back, so
	// dbuf[dpos] is the exact shard minimum and top mirrors it.
	dbuf []task.Task
	dpos int
	ibuf []task.Task
	heap []task.Task

	_ [3]int64 // pad shards apart
}

func (s *mqShard) tryLock() bool { return s.lock.CompareAndSwap(0, 1) }
func (s *mqShard) unlock()       { s.lock.Store(0) }

func (s *mqShard) updateTop() {
	if s.dpos < len(s.dbuf) {
		s.top.Store(s.dbuf[s.dpos].Prio)
	} else {
		s.top.Store(mqEmptyTop)
	}
}

// push inserts t. Caller holds the lock.
func (s *mqShard) push(t task.Task, batchCap int) {
	live := s.dbuf[s.dpos:]
	switch {
	case len(live) == 0:
		// Empty shard (the nonempty-implies-dbuf invariant makes an empty
		// dbuf mean an empty shard): seed the deletion buffer.
		s.dbuf = append(s.dbuf[:0], t)
		s.dpos = 0
	case t.Less(live[len(live)-1]):
		// Below the deletion buffer's back: this task belongs among the
		// shard minima. Sorted insert; displace the back if over capacity.
		// Compact the popped prefix away first when the backing array is
		// full, so interleaved push/pop traffic reuses the same storage
		// instead of growing the append tail forever.
		if len(s.dbuf) == cap(s.dbuf) && s.dpos > 0 {
			copy(s.dbuf, live)
			s.dbuf = s.dbuf[:len(live)]
			s.dpos = 0
			live = s.dbuf
		}
		lo, hi := 0, len(live)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t.Less(live[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		s.dbuf = append(s.dbuf, task.Task{})
		live = s.dbuf[s.dpos:]
		copy(live[lo+1:], live[lo:])
		live[lo] = t
		if len(live) > 2*batchCap {
			ev := live[len(live)-1]
			s.dbuf = s.dbuf[:len(s.dbuf)-1]
			s.stage(ev, batchCap)
		}
	default:
		s.stage(t, batchCap)
	}
	s.size.Add(1)
	s.updateTop()
}

// stage appends t to the insertion buffer, flushing the buffer into the
// heap when it reaches capacity — one O(log n) sift per task only every
// batchCap inserts.
func (s *mqShard) stage(t task.Task, batchCap int) {
	s.ibuf = append(s.ibuf, t)
	if len(s.ibuf) >= batchCap {
		s.flushIbuf()
	}
}

func (s *mqShard) flushIbuf() {
	for _, t := range s.ibuf {
		s.heap = append(s.heap, t)
		siftUpTasks(s.heap, len(s.heap)-1)
	}
	s.ibuf = s.ibuf[:0]
}

// pop removes and returns the shard minimum. Caller holds the lock and
// guarantees the shard is nonempty.
func (s *mqShard) pop(batchCap int) task.Task {
	t := s.dbuf[s.dpos]
	s.dpos++
	if s.dpos == len(s.dbuf) {
		s.refill(batchCap)
	}
	s.size.Add(-1)
	s.updateTop()
	return t
}

// refill repopulates an exhausted deletion buffer with the batchCap smallest
// remaining tasks: the insertion buffer is flushed into the heap first, so
// the heap's ascending pops restore the sorted-minima invariant.
func (s *mqShard) refill(batchCap int) {
	s.dbuf = s.dbuf[:0]
	s.dpos = 0
	if len(s.ibuf) > 0 {
		s.flushIbuf()
	}
	for i := 0; i < batchCap && len(s.heap) > 0; i++ {
		s.dbuf = append(s.dbuf, s.heap[0])
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
		if last > 1 {
			siftDownTasks(s.heap, 0)
		}
	}
}

// NewMultiQueue builds the shared shard array. Handles are created per
// worker with Handle.
func NewMultiQueue(cfg MultiQueueConfig) *MultiQueue {
	cfg = cfg.withDefaults()
	n := cfg.Factor * cfg.Workers
	if n < 2 {
		n = 2
	}
	m := &MultiQueue{shards: make([]mqShard, n), cfg: cfg}
	for i := range m.shards {
		m.shards[i].top.Store(mqEmptyTop)
	}
	return m
}

// Len sums the shard sizes. The total is a consistent lower/upper bound
// only at quiescence; mid-flight it may miss or double-count in-transit
// tasks by at most the number of concurrent operations.
func (m *MultiQueue) Len() int {
	var n int64
	for i := range m.shards {
		n += m.shards[i].size.Load()
	}
	return int(n)
}

// RankEstimate reports how many shards currently hold a task strictly
// better than prio, and the witness minimum. Each counted shard contributes
// at least one better-ranked task, so the count is a cheap lower bound on
// the popped task's true rank error (0 means no observable inversion).
func (m *MultiQueue) RankEstimate(prio int64) (rank int, min int64) {
	min = mqEmptyTop
	for i := range m.shards {
		t := m.shards[i].top.Load()
		if t < prio {
			rank++
		}
		if t < min {
			min = t
		}
	}
	return rank, min
}

// Handle returns a new single-owner view of the MultiQueue, seeded
// deterministically from the queue's seed and the handle creation order.
// Each concurrent worker must use its own handle.
func (m *MultiQueue) Handle() *MQHandle {
	n := m.seeds.Add(1)
	return &MQHandle{
		mq:  m,
		rng: (m.cfg.Seed + n*0x9e3779b97f4a7c15) | 1,
	}
}

// MQHandle is one worker's port into a shared MultiQueue: it carries the
// shard-choice RNG and the stickiness state, and implements pq.Queue.
// Single-owner, like every pq.Queue.
type MQHandle struct {
	mq  *MultiQueue
	rng uint64

	pushShard int
	pushLeft  int
	popA      int
	popB      int
	popLeft   int
}

// Queue returns the shared MultiQueue behind the handle.
func (h *MQHandle) Queue() *MultiQueue { return h.mq }

// next is xorshift64*: cheap, and deterministic per handle.
func (h *MQHandle) next() uint64 {
	x := h.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	h.rng = x
	return x * 0x2545f4914f6cdd1d
}

func (h *MQHandle) randShard() int {
	return int(h.next() % uint64(len(h.mq.shards)))
}

// Push inserts t into the sticky shard, re-randomizing when the sticky run
// expires or the shard's lock is contended.
func (h *MQHandle) Push(t task.Task) {
	for {
		if h.pushLeft <= 0 {
			h.pushShard = h.randShard()
			h.pushLeft = h.mq.cfg.Stickiness
		}
		s := &h.mq.shards[h.pushShard]
		if s.tryLock() {
			s.push(t, h.mq.cfg.BatchCap)
			s.unlock()
			h.pushLeft--
			return
		}
		h.pushLeft = 0
	}
}

// Pop removes the better of two sampled shards' minima (pick-2 over the
// cached tops). When both sampled shards are empty it degrades to a full
// scan, so a sequential caller never gets a false empty; under concurrent
// lock contention Pop may spuriously report empty (see the type comment).
func (h *MQHandle) Pop() (task.Task, bool) {
	for attempts := 0; attempts < 2*len(h.mq.shards); attempts++ {
		s, ok := h.pickPop()
		if !ok {
			break // both sampled shards empty: scan
		}
		if !s.tryLock() {
			h.popLeft = 0
			continue
		}
		if s.dpos == len(s.dbuf) {
			// Emptied between the top read and the lock.
			s.unlock()
			h.popLeft = 0
			continue
		}
		t := s.pop(h.mq.cfg.BatchCap)
		s.unlock()
		h.popLeft--
		return t, true
	}
	return h.scanPop()
}

// pickPop chooses the shard to pop under the sticky pick-2 policy. False
// means both sampled shards look empty.
func (h *MQHandle) pickPop() (*mqShard, bool) {
	if h.popLeft <= 0 {
		h.popA = h.randShard()
		h.popB = h.randShard()
		h.popLeft = h.mq.cfg.Stickiness
	}
	ta := h.mq.shards[h.popA].top.Load()
	tb := h.mq.shards[h.popB].top.Load()
	if ta == mqEmptyTop && tb == mqEmptyTop {
		h.popLeft = 0
		return nil, false
	}
	if tb < ta {
		return &h.mq.shards[h.popB], true
	}
	return &h.mq.shards[h.popA], true
}

// scanPop walks every shard from a random offset and pops the first
// nonempty one it can lock. Reaching it means pick-2 saw only empty shards,
// so this is the slow path of an almost-drained queue.
func (h *MQHandle) scanPop() (task.Task, bool) {
	n := len(h.mq.shards)
	start := h.randShard()
	for i := 0; i < n; i++ {
		s := &h.mq.shards[(start+i)%n]
		if s.top.Load() == mqEmptyTop {
			continue
		}
		if !s.tryLock() {
			continue
		}
		if s.dpos == len(s.dbuf) {
			s.unlock()
			continue
		}
		t := s.pop(h.mq.cfg.BatchCap)
		s.unlock()
		return t, true
	}
	return task.Task{}, false
}

// Peek returns the better sampled shard's minimum without removing it —
// approximate by construction (another shard may hold a better task), and
// subject to the same spurious-empty caveat as Pop.
func (h *MQHandle) Peek() (task.Task, bool) {
	for attempts := 0; attempts < 2*len(h.mq.shards); attempts++ {
		s, ok := h.pickPop()
		if !ok {
			break
		}
		if !s.tryLock() {
			h.popLeft = 0
			continue
		}
		if s.dpos == len(s.dbuf) {
			s.unlock()
			h.popLeft = 0
			continue
		}
		t := s.dbuf[s.dpos]
		s.unlock()
		return t, true
	}
	n := len(h.mq.shards)
	start := h.randShard()
	for i := 0; i < n; i++ {
		s := &h.mq.shards[(start+i)%n]
		if s.top.Load() == mqEmptyTop || !s.tryLock() {
			continue
		}
		if s.dpos == len(s.dbuf) {
			s.unlock()
			continue
		}
		t := s.dbuf[s.dpos]
		s.unlock()
		return t, true
	}
	return task.Task{}, false
}

// Len reports the shared queue's total size (see MultiQueue.Len).
func (h *MQHandle) Len() int { return h.mq.Len() }
