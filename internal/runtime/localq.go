package runtime

// The local-queue layer is each worker's private priority queue (§III-A):
// tasks drained from the transport land here, and the worker always
// processes its locally-highest-priority task next. A queue is touched by its
// worker alone or, in a fleet that steals, under that worker's lock
// (steal.go), so any pq.Queue implementation works without locks of its own;
// the policy knob is which shape backs it.

import (
	"fmt"
	"slices"
	"strings"

	"hdcps/internal/pq"
	"hdcps/internal/task"
)

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
// matrix, the chaos soak, and CheckQueueKind all iterate this list, so a new
// kind registered here is automatically covered everywhere.
func QueueKinds() []string {
	return []string{QueueHeap, QueueDHeap, QueueTwoLevel, QueueMultiQueue}
}

// CheckQueueKind is the one check for a queue kind that arrives from outside
// (a CLI flag, a server's Config): nil for a kind QueueKinds lists or for ""
// (the default), otherwise an error naming the valid kinds. NewEngine itself
// runs the default for a kind it does not know.
func CheckQueueKind(kind string) error {
	if kind == "" || slices.Contains(QueueKinds(), kind) {
		return nil
	}
	return fmt.Errorf("unknown queue kind %q (valid: %s)", kind, strings.Join(QueueKinds(), ", "))
}

// newLocalQueue builds one worker's private queue of the strict shape named
// by Config.QueueKind (pq.Queue: single-owner, no internal synchronization).
// The worker loop devirtualizes the twolevel shape (workerJQ.tl), so the
// interface boxing here is paid once per worker per job. A multiqueue
// fleet shares one structure per job instead (jobState.mq, newWorkerJQ).
func newLocalQueue(cfg Config) pq.Queue {
	switch cfg.QueueKind {
	case QueueHeap:
		return pq.NewBinaryHeap(64)
	case QueueDHeap:
		return pq.NewDHeap(heapArity, 64)
	default:
		return pq.NewTwoLevel(pq.TwoLevelConfig{Arity: heapArity})
	}
}

// workerJQ is one worker's queue for one job: the unit the job scheduler
// rotates over (jobsched.go) and the ledger keys its deltas by (ledger.go).
// For the strict kinds the queue is private to the worker; for multiqueue it
// is a handle into the job's fleet-shared structure (jobState.mq), so
// relaxation and work balancing stay within the tenant. Only the owning
// worker touches the record; a thief (steal.go) touches the strict queue
// itself, under the owner's lock, and reads active there.
type workerJQ struct {
	js    *jobState
	queue pq.Queue
	// tl/mq devirtualize the stock shapes exactly like the worker's old
	// single queue did — push/pop stay direct calls on the hot path.
	tl *pq.TwoLevel
	mq *pq.MQHandle

	// active marks membership in the job scheduler's rotation. deficit is
	// the job's deficit-round-robin balance on this worker, in tasks: credit
	// deposited per visit, one unit spent per retired task, negative while a
	// large bag is being paid off (jobSched says when each moves).
	active  bool
	deficit int64

	// delta is this worker's unsettled move on the job's ledger, and row the
	// worker's row of it, where settle stores the terms.
	delta jobDelta
	row   *jobRow

	// spare is what the dispatch gate reads during a batch: the queue's
	// length when the cycle start exposed it, plus the units the worker has
	// kept for the job since (steal.go). A thief may shorten the queue in
	// between; the gate does not look.
	spare int
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

func (q *workerJQ) len() int {
	if q.tl != nil {
		return q.tl.Len()
	}
	return q.queue.Len()
}

// newWorkerJQ builds worker self's queue for one job: a private queue of the
// configured shape, or a handle into the job's shared MultiQueue.
func newWorkerJQ(cfg Config, js *jobState, self int) *workerJQ {
	q := &workerJQ{js: js, row: &js.rows[self]}
	if js.mq != nil {
		q.queue = js.mq.Handle()
	} else {
		q.queue = newLocalQueue(cfg)
	}
	q.tl, _ = q.queue.(*pq.TwoLevel)
	q.mq, _ = q.queue.(*pq.MQHandle)
	return q
}
