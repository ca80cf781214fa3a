package pq

import "math/bits"

// window is the priority window under the three bucket queues (TwoLevel,
// BucketHeap and HPQ's cold store): which bucket of type B a priority lives
// in, and which bucket is the lowest occupied. What a bucket holds, and in
// what order it gives its tasks back, is the queue's.
//
// Invariant: while size > 0, every resident priority lies in [cur, hi],
// cur is at most the resident minimum, and hi-cur < W, the bucket count,
// so the ring index p & (W-1) is collision-free (two's-complement AND
// handles negative priorities) and a bucket's priority is cur plus its ring
// distance from cur's slot. A bucket's occupancy bit is set exactly while
// it holds a task.
//
// covers, index and front are inlined into the queues' pushes and pops, so
// the window costs the hot path no call; front sits at the inliner's budget
// (`go build -gcflags=-m` lists it at each Pop). widen and grow run out of
// line, only when the span outgrows the ring.
type window[B any] struct {
	buckets []B
	occ     []uint64
	cur     int64 // scan cursor: lower bound on the resident minimum
	hi      int64 // upper bound on the resident maximum
	size    int   // tasks in the buckets (0 once the queue has fallen back)
}

// windowStartW is the ring's initial bucket count and windowMaxW its cap.
const (
	windowStartW = 256
	windowMaxW   = 1 << 16
)

func newWindow[B any]() window[B] {
	return window[B]{buckets: make([]B, windowStartW), occ: make([]uint64, windowStartW/64)}
}

// covers reports whether priority p fits the ring as it stands, and
// stretches the span to take p in when it does. An empty window covers
// every p: its span becomes [p, p].
func (w *window[B]) covers(p int64) bool {
	if w.size == 0 {
		w.cur, w.hi = p, p
		return true
	}
	lo, hi := min(w.cur, p), max(w.hi, p)
	if uint64(hi-lo) >= uint64(len(w.buckets)) {
		return false
	}
	w.cur, w.hi = lo, hi
	return true
}

// index returns the ring index of priority p. Caller guarantees p is in
// the span.
func (w *window[B]) index(p int64) int { return int(p & int64(len(w.buckets)-1)) }

// at returns the priority of the bucket at ring index i.
func (w *window[B]) at(i int) int64 {
	return w.cur + int64((i-int(w.cur))&(len(w.buckets)-1))
}

func (w *window[B]) occupied(i int) bool { return w.occ[i>>6]>>uint(i&63)&1 != 0 }
func (w *window[B]) occupy(i int)        { w.occ[i>>6] |= 1 << uint(i&63) }
func (w *window[B]) vacate(i int)        { w.occ[i>>6] &^= 1 << uint(i&63) }

// widen takes in a p that covers refused, doubling the ring until the span
// fits. False means the span cannot fit in windowMaxW buckets; the window
// is then left as it was.
func (w *window[B]) widen(p int64) bool {
	lo, hi := min(w.cur, p), max(w.hi, p)
	if uint64(hi-lo) >= windowMaxW {
		return false
	}
	for uint64(hi-lo) >= uint64(len(w.buckets)) {
		w.grow()
	}
	w.cur, w.hi = lo, hi
	return true
}

// grow doubles the ring, moving each occupied bucket to its priority's
// index under the wider mask. A vacant bucket's storage is dropped.
func (w *window[B]) grow() {
	g := window[B]{make([]B, 2*len(w.buckets)), make([]uint64, 2*len(w.occ)), w.cur, w.hi, w.size}
	for i := range w.buckets {
		if w.occupied(i) {
			j := g.index(w.at(i))
			g.buckets[j] = w.buckets[i]
			g.occupy(j)
		}
	}
	*w = g
}

// front moves the cursor to the lowest occupied bucket and returns its
// ring index. Caller guarantees size > 0, so one lies within a lap.
func (w *window[B]) front() int {
	m := len(w.buckets) - 1
	w.cur += int64(occScan(w.occ, int(w.cur)&m, m))
	return int(w.cur) & m
}

// occScan returns the ring distance from idx to the first set bit of occ at
// or after it, scanning a word at a time and wrapping at the ring mask m.
// Caller guarantees a bit is set.
func occScan(occ []uint64, idx, m int) int {
	for steps := 0; steps <= m; {
		if word := occ[idx>>6] >> uint(idx&63); word != 0 {
			return steps + bits.TrailingZeros64(word)
		}
		adv := 64 - idx&63
		steps += adv
		idx = (idx + adv) & m
	}
	return 0
}
