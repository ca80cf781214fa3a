package runtime

// The local-queue layer is each worker's private priority queue (§III-A):
// tasks drained from the transport land here, and the worker always
// processes its locally-highest-priority task next. The queue is private to
// one goroutine, so any pq.Queue implementation works without locks; the
// policy knob is which shape backs it.

import (
	"hdcps/internal/pq"
	"hdcps/internal/task"
)

// LocalQueue is the per-worker private priority queue contract. It is
// exactly pq.Queue — single-owner, no internal synchronization.
type LocalQueue = pq.Queue

// Local-queue kinds accepted by Config.QueueKind (see QueueKinds).
const (
	// QueueTwoLevel is the default: a ring of per-priority FIFO buckets —
	// exact in Prio, FIFO among equal priorities, no comparison on push or
	// pop — falling back to a 4-ary heap only when the resident priority
	// span outgrows the ring (DESIGN.md §12).
	QueueTwoLevel = "twolevel"
	// QueueDHeap is the flat 4-ary heap.
	QueueDHeap = "dheap"
	// QueueHeap is the classic binary heap.
	QueueHeap = "heap"
	// QueueMultiQueue is the relaxed MultiQueue (PR 6): one shared pool of
	// c·P try-locked shards with pick-2 delete-min, accessed through a
	// per-worker pq.MQHandle. Unlike the strict kinds, the "local" queues of
	// a fleet are views of one structure, so work balances through the queue
	// itself at the cost of bounded priority inversion (tracked by the
	// engine's rank-error counters).
	QueueMultiQueue = "multiqueue"
)

// QueueKinds lists the valid Config.QueueKind values. The engine test
// matrix, the chaos soak, and the CLI flag validation all iterate this
// list, so a new kind registered here is automatically covered everywhere.
func QueueKinds() []string {
	return []string{QueueHeap, QueueDHeap, QueueTwoLevel, QueueMultiQueue}
}

// newLocalQueue builds one queue of the shape named by Config.QueueKind.
// The engine's hot path devirtualizes the twolevel and multiqueue shapes
// (workerJQ.tl / workerJQ.mq), so the interface boxing here is paid once
// per worker per job. A multiqueue built here is a single-worker instance;
// fleets share one structure per job via jobState.mq (see newWorkerJQ).
func newLocalQueue(cfg Config) LocalQueue {
	switch cfg.QueueKind {
	case QueueHeap:
		return pq.NewBinaryHeap(64)
	case QueueDHeap:
		return pq.NewDHeap(heapArity, 64)
	case QueueMultiQueue:
		return pq.NewMultiQueue(pq.MultiQueueConfig{Workers: 1, Seed: cfg.Seed}).Handle()
	default:
		return pq.NewTwoLevel(pq.TwoLevelConfig{Arity: heapArity})
	}
}

// workerJQ is one worker's queue for one job: the unit the job-level
// deficit-round-robin scheduler rotates over (engine.go). For the strict
// kinds the queue is private to the worker; for multiqueue it is a handle
// into the job's fleet-shared structure (jobState.mq), so relaxation and
// work balancing stay within the tenant. The d* fields are the worker's
// deferred per-job ledger deltas, settled by flushBatchAccts with the spawn
// and retirement terms ahead of the outstanding change, so the per-job ledger
// obeys the same publication contract as the global one.
type workerJQ struct {
	js    *jobState
	queue LocalQueue
	// tl/mq devirtualize the stock shapes exactly like the worker's old
	// single queue did — push/pop stay direct calls on the hot path.
	tl *pq.TwoLevel
	mq *pq.MQHandle

	// active marks membership in the worker's round-robin ring (worker.act).
	active bool
	// deficit is the job's deficit-round-robin balance on this worker, in
	// tasks: each fillBatch visit deposits weight*drrQuantum, each retired
	// task (including every task inside an opened bag — charged when the
	// bag is opened, so it can push the balance negative) withdraws one.
	// Debt carries across rounds, which is what makes the long-run task
	// shares weight-proportional even though bag sizes are unknown at pop
	// time. Reset to zero whenever the queue goes empty (no banking while
	// unbacklogged). Only the owning worker touches it.
	deficit int64

	// dirty marks pending deltas (worker.dirtyJQ holds the dirty set).
	dirty        bool
	dSpawned     int64
	dProcessed   int64
	dBagsRetired int64
	dCancelled   int64
	dOut         int64
}

func (q *workerJQ) push(t task.Task) {
	if q.tl != nil {
		q.tl.Push(t)
		return
	}
	if q.mq != nil {
		q.mq.Push(t)
		return
	}
	q.queue.Push(t)
}

func (q *workerJQ) pop() (task.Task, bool) {
	if q.tl != nil {
		return q.tl.Pop()
	}
	if q.mq != nil {
		return q.mq.Pop()
	}
	return q.queue.Pop()
}

func (q *workerJQ) peek() (task.Task, bool) {
	if q.tl != nil {
		return q.tl.Peek()
	}
	return q.queue.Peek()
}

// newWorkerJQ builds one worker's queue for one job: a private queue of the
// configured shape, or a handle into the job's shared MultiQueue.
func newWorkerJQ(cfg Config, js *jobState) *workerJQ {
	q := &workerJQ{js: js}
	if js.mq != nil {
		q.queue = js.mq.Handle()
	} else {
		q.queue = newLocalQueue(cfg)
	}
	q.tl, _ = q.queue.(*pq.TwoLevel)
	q.mq, _ = q.queue.(*pq.MQHandle)
	return q
}
