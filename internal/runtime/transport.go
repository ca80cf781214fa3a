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
// There is one transport, and the engine owns it concretely, so the worker
// loop's calls into it are direct. Fault injection does not replace it: it
// is a FaultHook (Config.Faults) the ring transport consults at Send and at
// every drain of a receive side, nil in production.

import (
	"sync/atomic"

	"hdcps/internal/obs"
	"hdcps/internal/rq"
	"hdcps/internal/task"
)

// FaultHook is fault injection's seam in the ring transport (internal/chaos
// implements it). Config.Faults is nil in production, which costs one
// predictable branch at Send and one at each drain. Worker identity is an
// index in [0, workers).
type FaultHook interface {
	// Refuse is asked by src's owner before each Send: true bounces t back
	// to src as a saturated destination would (spill-to-local).
	Refuse(src, dst int, t task.Task) bool
	// Filter sees every drain of id's receive side, with the drained tasks at
	// ts[from:], and returns what is delivered now: it may hold tasks back
	// and deliver them on a later call, reorder them, or resubmit a copy of
	// one through Engine.Submit, but it delivers every task exactly once and
	// never copies a bag marker (IsBagMarker). id's owner calls it, or a
	// thief holding id's lock (steal.go), so calls for one id never overlap,
	// but consecutive ones may come from different goroutines.
	Filter(id int, ts []task.Task, from int) []task.Task
	// Holding reports whether id's Filter holds arrivals it has yet to
	// deliver. Any goroutine may ask: an idle worker's poll skips its
	// receive side only when this is false.
	Holding(id int) bool
}

// IsBagMarker reports whether t is a bag marker: engine metadata naming a bag
// payload in its creator's store, not a workload task. The worker that pops
// the marker runs the payload and releases its slot, so a second copy would
// open a released (or reused) slot.
func IsBagMarker(t task.Task) bool { return t.Node == bagMarker }

// ringTransport is the transport: one endpoint per worker, each a
// Vyukov-style MPSC ring plus a bounded Treiber overflow stack, with
// sender-side per-destination batching.
type ringTransport struct {
	batch       int
	overflowCap int64         // max tasks parked in one endpoint's overflow
	rec         *obs.Recorder // nil when observability is disabled
	hook        FaultHook     // nil unless faults are injected
	eps         []endpoint
	// shipped, when set, hears of every batch one worker has delivered to
	// another, once it is in the destination's ring or overflow: the engine
	// lowers the destination's published fronts with it (steal.go).
	shipped func(dst int, ts []task.Task)
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
// overflowCap tasks parked in any endpoint's overflow by worker sends. A
// non-nil rec records overflow-spill events at the destination endpoint.
func newRingTransport(workers, ringSize, batch, overflowCap int, rec *obs.Recorder, hook FaultHook) *ringTransport {
	tr := &ringTransport{
		batch:       batch,
		overflowCap: int64(overflowCap),
		rec:         rec,
		hook:        hook,
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

// Send queues t for delivery from worker src to worker dst (dst != src); the
// batch ships when it fills or on Flush. Tasks rejected by destination flow
// control, or refused by the fault hook, are returned for the caller to keep
// local; nil means everything was accepted.
func (tr *ringTransport) Send(src, dst int, t task.Task) []task.Task {
	if h := tr.hook; h != nil && h.Refuse(src, dst, t) {
		return []task.Task{t}
	}
	ep := &tr.eps[src]
	ep.out[dst] = append(ep.out[dst], t)
	ep.pending++
	if len(ep.out[dst]) >= tr.batch {
		return tr.flushTo(src, dst)
	}
	return nil
}

// Pending reports how many tasks src has buffered but not yet shipped.
func (tr *ringTransport) Pending(src int) int { return tr.eps[src].pending }

// Flush ships every partial batch src has buffered, returning any tasks
// rejected by destination flow control (as in Send).
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
	if tr.shipped != nil && len(rejected) < len(buf) {
		tr.shipped(dst, buf[:len(buf)-len(rejected)])
	}
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
	if bounded && w.overflowLen.Load() >= tr.overflowCap {
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

// Recv appends every task deliverable to worker id onto dst — its ring and
// its overflow, through the fault hook's Filter when one is set — and
// returns the extended slice. Calls for one id must not overlap: the owner
// drains under its lock in a stealing fleet, a thief under the same lock.
func (tr *ringTransport) Recv(id int, dst []task.Task) []task.Task {
	ep := &tr.eps[id]
	from := len(dst)
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
	if h := tr.hook; h != nil {
		dst = h.Filter(id, dst, from)
	}
	return dst
}

// Inject delivers ts to worker id from outside the fleet, bypassing the
// sender-side batching and the overflow cap (external work must always
// land). Safe for concurrent use from any goroutine.
func (tr *ringTransport) Inject(id int, ts []task.Task) { tr.deliver(id, ts, false) }

// empty reports that nothing waits on id's receive side: its ring and
// overflow, and arrivals the fault hook holds. Any goroutine may ask; a send
// in flight may make it read non-empty early, never empty late once the send
// has published.
func (tr *ringTransport) empty(id int) bool {
	ep := &tr.eps[id]
	return ep.ring.Len() == 0 && ep.overflow.head.Load() == nil &&
		(tr.hook == nil || !tr.hook.Holding(id))
}

// Spills reports how many overflow spills have landed at worker id's
// endpoint so far (full-ring flow-control events, for Snapshot).
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

// send and flush are the worker loop's ways into the transport (it calls
// Recv and Pending directly). Both absorb flow-control rejects: tasks a
// saturated destination bounced stay on the sending worker (spill-to-local).
// send also enforces the ledger's settle-before-ship rule; flush callers
// settle first.
func (e *Engine) send(me *worker, dst int, t task.Task) {
	tr := e.transport
	// Only the Send that completes the destination's batch hands tasks to
	// another worker.
	if len(tr.eps[me.id].out[dst])+1 >= tr.batch {
		e.settle(me)
	}
	if rej := tr.Send(me.id, dst, t); len(rej) > 0 {
		e.redirect(me, rej)
	}
}

func (e *Engine) flush(me *worker) {
	if rej := e.transport.Flush(me.id); len(rej) > 0 {
		e.redirect(me, rej)
	}
	me.flushedAt = me.tasks
}

// redirect keeps flow-control-rejected tasks on the sending worker (keep):
// they go into its own local queues instead of growing a saturated
// destination's overflow without bound. Outstanding accounting is untouched —
// the tasks were already counted when they were spawned (a cancelled job's
// bounce is discarded by push like any other arrival).
func (e *Engine) redirect(me *worker, ts []task.Task) {
	for _, t := range ts {
		e.keep(me, nil, t)
	}
	me.redirects += int64(len(ts))
	me.pub[obs.COverflowRedirects].Store(me.redirects)
	if rec := e.obs; rec != nil {
		rec.Event(me.id, obs.EvRedirect, int64(len(ts)), 0, 0)
	}
}
