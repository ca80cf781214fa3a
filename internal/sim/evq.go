package sim

// eventQueue is the machine's pending-event set: a 4-ary min-heap of small
// keys ordered by (at, seq), with message payloads held out of line.
//
// push stamps every key with a fresh seq, so (at, seq) is a strict total
// order: no two keys compare equal, the pop sequence is a function of the
// push sequence alone, and the heap's arity and shape are free to change
// without moving a simulated cycle. Sift steps move 24-byte keys; a Message
// (80 bytes, with a slice) waits in msgs under the key's ref until its event
// is popped.
//
// Run reads the earliest key with top and leaves it at the root while its
// handler runs: every push made meanwhile lands on a cycle no earlier than
// the root's, with a later seq, so it settles below the root. A core that
// re-arms then takes the root's place with replaceTop, one sift-down where
// pop plus push would be two sifts.
type eventQueue struct {
	keys []evKey
	seq  uint64

	msgs []Message // message payloads, indexed by evKey.ref
	free []int32   // recycled msgs slots
}

// evKey is one queued event. ref indexes eventQueue.msgs for evMessage and
// is unused otherwise.
type evKey struct {
	at   int64
	seq  uint64
	ref  int32
	core uint16 // Config.normalized bounds Cores to fit
	kind eventKind
}

type eventKind uint8

const (
	evReady eventKind = iota
	evMessage
	evDrift
)

// evArity is the heap's branching factor: a sift-down reads one or two cache
// lines of children per level and the tree is half as deep as a binary one.
const evArity = 4

func (a *evKey) before(b *evKey) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (q *eventQueue) len() int { return len(q.keys) }

// push queues a ready or drift event for core at cycle at.
func (q *eventQueue) push(at int64, core int, kind eventKind) {
	q.insert(evKey{at: at, core: uint16(core), kind: kind})
}

// pushMessage queues msg for delivery to msg.To at cycle at.
func (q *eventQueue) pushMessage(at int64, msg Message) {
	var ref int32
	if n := len(q.free); n > 0 {
		ref = q.free[n-1]
		q.free = q.free[:n-1]
		q.msgs[ref] = msg
	} else {
		ref = int32(len(q.msgs))
		q.msgs = append(q.msgs, msg)
	}
	q.insert(evKey{at: at, core: uint16(msg.To), kind: evMessage, ref: ref})
}

func (q *eventQueue) insert(k evKey) {
	k.seq = q.seq
	q.seq++
	h := append(q.keys, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / evArity
		// k carries the largest seq in the heap, so it goes before its
		// parent only on a strictly earlier cycle.
		if k.at >= h[p].at {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	q.keys = h
}

// top returns the earliest event without removing it; the queue must not be
// empty.
func (q *eventQueue) top() evKey { return q.keys[0] }

// pop removes and returns the earliest event; the queue must not be empty.
// For an evMessage key the caller collects the payload with takeMessage.
func (q *eventQueue) pop() evKey {
	h := q.keys
	top := h[0]
	n := len(h) - 1
	last := h[n]
	q.keys = h[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return top
}

// replaceTop removes the earliest event and queues a ready or drift event
// for core at cycle at in its place: pop then push, in one sift.
func (q *eventQueue) replaceTop(at int64, core int, kind eventKind) {
	k := evKey{at: at, seq: q.seq, core: uint16(core), kind: kind}
	q.seq++
	q.siftDown(k)
}

// siftDown places k, moving from the root down through the hole it leaves.
func (q *eventQueue) siftDown(k evKey) {
	h := q.keys
	n := len(h)
	i := 0
	for {
		c := evArity*i + 1
		if c >= n {
			break
		}
		end := c + evArity
		if end > n {
			end = n
		}
		best := c
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[best]) {
				best = j
			}
		}
		if !h[best].before(&k) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = k
}

// takeMessage returns the payload of a popped evMessage key and recycles its
// slot. The slot is zeroed so a delivered bag's Tasks can be collected while
// the slot waits for reuse.
func (q *eventQueue) takeMessage(ref int32) Message {
	msg := q.msgs[ref]
	q.msgs[ref] = Message{}
	q.free = append(q.free, ref)
	return msg
}
