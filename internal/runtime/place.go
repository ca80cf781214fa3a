package runtime

import "math/bits"

// place is the runtime's placement rule (the TDF draw of §III-C): where
// one unit a task emitted — a child or a bag marker — goes. It is a pure
// function of its arguments, so the same rule can be driven by a test table
// or by another executor.
//
// The frontier-width gate comes first: whatever the TDF, a unit stays on the
// sender (kept) while the sender's own queue for the job holds fewer than
// batchK tasks. A worker that cannot fill its next dequeue batch has nothing
// to spare, and splitting a narrow frontier only buys re-relaxations. A
// shared queue is visible to the fleet already and is not gated.
//
// Past the gate the unit is sent away with probability tdf percent, the
// controller's TDF. The TDF says how often, ownership says where: a unit sent away goes to
// owner, the worker whose home block of the job's node IDs holds the unit's
// node (ownerOf), so each worker relaxes its own region of the graph and the
// fleet's cores stop writing the same lines. A self-owned unit sent away
// simply stays, like any unit the draw keeps. A job without a graph has no
// owner (owner < 0): its unit lands on each of the other workers equally
// often, never on self. Both decisions come from the one 64-bit draw x: the
// low half takes the TDF test, the high half picks the ownerless
// destination, each scaled by multiply-shift, so a placement costs one draw
// and no division.
func place(x uint64, qlen, batchK int, tdf int64, self, owner, workers int, shared bool) (dst int, kept bool) {
	if workers < 2 {
		return self, false
	}
	if !shared && qlen < batchK {
		return self, true
	}
	if int64(uint64(uint32(x))*100>>32) >= tdf {
		return self, false
	}
	if owner >= 0 {
		return owner, false
	}
	dst = int((x >> 32) * uint64(workers-1) >> 32)
	if dst >= self {
		dst++
	}
	return dst, false
}

// ownerOf is the worker owning node v of a job whose ownerMul is mul:
// worker i's home block is the node IDs v with ⌊v·W/N⌋ = i, the job's N nodes
// split into W contiguous blocks. It is one multiply, no division: for
// mul = ⌊W·2⁶⁴/N⌋+1 the high word of v·mul is exactly ⌊v·W/N⌋ for every
// v < N < 2³² (the rounding adds less than v/2⁶⁴ < 1/N to v·W/N, never
// enough to cross the next integer). A job with no owner (mul 0) gets -1; a
// node past the graph, which only a bogus submission carries, folds into the
// last block.
func ownerOf(v uint32, mul uint64, workers int) int {
	if mul == 0 {
		return -1
	}
	hi, _ := bits.Mul64(uint64(v), mul)
	return int(min(hi, uint64(workers-1)))
}

// ownerMul is ownerOf's multiplier for a job of n nodes on a fleet of
// workers, or 0 where ownership routes nothing: a job without a graph, a
// lone worker, a graph with no more nodes than workers.
func ownerMul(n, workers int) uint64 {
	if workers < 2 || n <= workers {
		return 0
	}
	q, _ := bits.Div64(uint64(workers), 0, uint64(n))
	return q + 1
}
