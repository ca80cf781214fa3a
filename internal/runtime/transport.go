package runtime

// The transport layer realizes §III-A's decoupling of inter-worker task
// transfer from task processing. It owns everything a task touches between
// the moment a worker (or an external Submit) decides the task belongs to
// somebody else and the moment the destination drains it into its private
// queue: the per-worker MPSC receive ring, the lock-free overflow stack a
// full ring spills into, and the per-destination send buffers that turn
// many remote children into one claim-CAS per batch (rq.TryPushBatch).
//
// Flow control: the overflow stack is bounded (Config.OverflowCap). A
// destination whose ring AND overflow are saturated rejects further worker
// sends, and the rejected tasks flow back to the sender, which keeps them
// in its own local queue (spill-to-local) — graceful degradation instead of
// unbounded Treiber growth when one worker falls behind. External Inject
// bypasses the cap: a Submit must always land somewhere, and the submitting
// goroutine has no local queue to fall back to.
//
// The engine talks to the layer only through the Transport interface, so a
// test (or an alternative fabric: NUMA-aware rings, a cross-process shim, a
// chaos-injection wrapper) can replace the whole mechanism without touching
// the worker loop.

import (
	"sync/atomic"

	"hdcps/internal/obs"
	"hdcps/internal/rq"
	"hdcps/internal/task"
)

// Transport is the engine's view of inter-worker task transfer. Worker
// identity is an index in [0, workers); Send/Pending/Flush/Recv carry the
// calling worker's own id and are single-caller per id, while Inject may be
// called by any number of goroutines concurrently (the Engine.Submit path).
// A transport may delay, reorder or bounce any task, but must deliver a bag
// marker (IsBagMarker) exactly once.
type Transport interface {
	// Send queues t for delivery from worker src to worker dst (dst != src).
	// Delivery may be deferred until a batch fills or Flush runs. Tasks
	// rejected by destination flow control (bounded overflow) are returned
	// for the caller to keep local; nil means everything was accepted.
	Send(src, dst int, t task.Task) []task.Task
	// Pending reports how many tasks src has buffered but not yet shipped.
	Pending(src int) int
	// Flush ships every partial batch src has buffered, returning any tasks
	// rejected by destination flow control (as in Send).
	Flush(src int) []task.Task
	// Recv appends every task currently deliverable to worker id onto dst
	// and returns the extended slice. Owner-only, like a ring drain.
	Recv(id int, dst []task.Task) []task.Task
	// Inject delivers ts to worker id from outside the fleet, bypassing the
	// sender-side batching and the overflow cap (external work must always
	// land). Safe for concurrent use from any goroutine.
	Inject(id int, ts []task.Task)
	// Spills reports how many overflow spills have landed at worker id's
	// endpoint so far (full-ring flow-control events, for Snapshot).
	Spills(id int) int64
}

// IsBagMarker reports whether t is a bag marker: engine metadata naming a bag
// payload in its creator's store, not a workload task. The worker that pops
// the marker runs the payload and releases its slot, so a second copy would
// open a released (or reused) slot.
func IsBagMarker(t task.Task) bool { return t.Node == bagMarker }

// ringTransport is the production Transport: one endpoint per worker, each
// a Vyukov-style MPSC ring plus a bounded Treiber overflow stack, with
// sender-side per-destination batching.
type ringTransport struct {
	batch       int
	overflowCap int64         // max tasks parked in one endpoint's overflow; <=0 unbounded
	rec         *obs.Recorder // nil when observability is disabled
	eps         []endpoint
}

// endpoint is one worker's transport state. The receive side (ring,
// overflow, spills) is written by remote senders and drained only by the
// owner; the send side (out, pending) is owned exclusively by the worker.
type endpoint struct {
	ring        *rq.Ring
	overflow    overflowStack
	overflowLen atomic.Int64 // tasks currently parked in overflow
	spills      atomic.Int64

	// out accumulates remote tasks per destination; a buffer ships via
	// TryPushBatch when it reaches the batch size or on Flush.
	out     [][]task.Task
	pending int

	_pad [4]int64 // reduce false sharing between adjacent endpoints
}

// newRingTransport builds the fabric for `workers` endpoints with rings of
// ringSize slots, per-destination batches of `batch` tasks, and at most
// overflowCap tasks parked in any endpoint's overflow (<=0: unbounded). A
// non-nil rec records overflow-spill events at the destination endpoint.
func newRingTransport(workers, ringSize, batch, overflowCap int, rec *obs.Recorder) *ringTransport {
	tr := &ringTransport{
		batch:       batch,
		overflowCap: int64(overflowCap),
		rec:         rec,
		eps:         make([]endpoint, workers),
	}
	// All per-peer batch buffers come out of one slab: they are fixed-cap
	// (flushTo empties them in place, Send never grows them past batch), so
	// carving full-capacity sub-slices costs one allocation instead of
	// workers*(workers-1).
	slab := make([]task.Task, workers*(workers-1)*batch)
	for i := range tr.eps {
		ep := &tr.eps[i]
		ep.ring = rq.NewRing(ringSize)
		ep.out = make([][]task.Task, workers)
		for j := range ep.out {
			if j != i {
				ep.out[j], slab = slab[:0:batch], slab[batch:]
			}
		}
	}
	return tr
}

// NewDefaultTransport builds the stock ring transport for a fully defaulted
// Config — the fabric an engine constructs when Config.NewTransport is nil.
// Wrappers (fault injection, instrumentation) use it as their inner layer.
func NewDefaultTransport(cfg Config) Transport {
	cfg = cfg.withDefaults()
	return newRingTransport(cfg.Workers, cfg.RingSize, sendBatch, cfg.OverflowCap, cfg.Obs)
}

func (tr *ringTransport) Send(src, dst int, t task.Task) []task.Task {
	ep := &tr.eps[src]
	ep.out[dst] = append(ep.out[dst], t)
	ep.pending++
	if len(ep.out[dst]) >= tr.batch {
		return tr.flushTo(src, dst)
	}
	return nil
}

func (tr *ringTransport) Pending(src int) int { return tr.eps[src].pending }

func (tr *ringTransport) Flush(src int) []task.Task {
	var rejected []task.Task
	for dst := range tr.eps[src].out {
		if rej := tr.flushTo(src, dst); len(rej) > 0 {
			rejected = append(rejected, rej...)
		}
	}
	return rejected
}

// flushTo ships one destination's buffered batch: as much as fits through
// the ring in claim-CAS batches, the remainder spilled to the destination's
// bounded overflow stack. Tasks the destination rejects (overflow at cap)
// are copied out and returned for the sender to keep local.
func (tr *ringTransport) flushTo(src, dst int) []task.Task {
	ep := &tr.eps[src]
	buf := ep.out[dst]
	if len(buf) == 0 {
		return nil
	}
	rejected := tr.deliver(dst, buf, true)
	ep.pending -= len(buf)
	ep.out[dst] = buf[:0]
	return rejected
}

// deliver pushes ts into dst's ring, spilling whatever does not fit onto
// dst's overflow stack. With bounded set and the overflow at capacity, the
// spill is refused and the remainder returned instead (copied — the
// caller's buffer is reused); an unbounded deliver (Inject) always accepts.
func (tr *ringTransport) deliver(dst int, ts []task.Task, bounded bool) []task.Task {
	w := &tr.eps[dst]
	pushed := 0
	for pushed < len(ts) {
		n := w.ring.TryPushBatch(ts[pushed:])
		if n == 0 {
			break
		}
		pushed += n
	}
	rest := ts[pushed:]
	if len(rest) == 0 {
		return nil
	}
	if bounded && tr.overflowCap > 0 && w.overflowLen.Load() >= tr.overflowCap {
		// Destination saturated: bounce the remainder back to the sender.
		// The cap check races concurrent spills, so it is a soft bound —
		// overshoot is at most one in-flight batch per sender.
		return append([]task.Task(nil), rest...)
	}
	// Ring full: park the remainder at the destination. The node copies
	// the tasks because the caller's buffer is reused.
	w.overflow.push(&overflowNode{tasks: append([]task.Task(nil), rest...)})
	w.overflowLen.Add(int64(len(rest)))
	w.spills.Add(1)
	if rec := tr.rec; rec != nil {
		rec.Add(dst, obs.COverflowSpills, 1)
		rec.Event(dst, obs.EvSpill, int64(len(rest)), 0, 0)
	}
	return nil
}

func (tr *ringTransport) Recv(id int, dst []task.Task) []task.Task {
	ep := &tr.eps[id]
	dst = ep.ring.Drain(dst, 0)
	// A plain load gates the detach: the swap is an RMW on a line remote
	// senders write, and this runs on every worker-loop iteration.
	if ep.overflow.head.Load() != nil {
		var drained int64
		for node := ep.overflow.takeAll(); node != nil; node = node.next {
			dst = append(dst, node.tasks...)
			drained += int64(len(node.tasks))
		}
		if drained > 0 {
			ep.overflowLen.Add(-drained)
		}
	}
	return dst
}

func (tr *ringTransport) Inject(id int, ts []task.Task) { tr.deliver(id, ts, false) }

func (tr *ringTransport) Spills(id int) int64 { return tr.eps[id].spills.Load() }

// overflowStack is the receive-side flow-control fallback: when a
// destination's ring is full, the rejected batch is parked on this
// lock-free MPSC Treiber stack (any sender pushes; only the owner drains,
// by swapping the whole list out), so a full ring never serializes its
// senders behind a lock.
type overflowStack struct {
	head atomic.Pointer[overflowNode]
}

type overflowNode struct {
	tasks []task.Task
	next  *overflowNode
}

func (s *overflowStack) push(n *overflowNode) {
	for {
		old := s.head.Load()
		n.next = old
		if s.head.CompareAndSwap(old, n) {
			return
		}
	}
}

// takeAll detaches the whole stack in one swap; popping everything at once
// sidesteps the ABA hazard of per-node pops.
func (s *overflowStack) takeAll() *overflowNode { return s.head.Swap(nil) }
