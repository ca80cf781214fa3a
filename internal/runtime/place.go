package runtime

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
// Past the gate the unit leaves with probability tdf*bias/100 percent (the
// controller's global TDF scaled by the job's bias, capped at always) and
// lands on each of the other workers equally often, never on self. Both
// decisions come from the one 64-bit draw x: the low half takes the TDF test,
// the high half picks the destination, each scaled by multiply-shift, so a
// placement costs one draw and no division.
func place(x uint64, qlen, batchK int, tdf, bias int64, self, workers int, shared bool) (dst int, kept bool) {
	if workers < 2 {
		return self, false
	}
	if !shared && qlen < batchK {
		return self, true
	}
	if bias != 100 {
		tdf = min(tdf*bias/100, 100)
	}
	if int64(uint64(uint32(x))*100>>32) >= tdf {
		return self, false
	}
	dst = int((x >> 32) * uint64(workers-1) >> 32)
	if dst >= self {
		dst++
	}
	return dst, false
}
