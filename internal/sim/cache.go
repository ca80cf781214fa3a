package sim

import (
	"fmt"
	"math/bits"
)

// memory models the per-core private two-level cache hierarchy and the
// shared DRAM controllers of Table I. Caches are direct-mapped tag arrays
// over 64-byte lines — deliberately simple, but enough to expose the
// locality differences (banded CAGE vs random web accesses) the paper's
// analysis leans on. DRAM controllers serialize accesses with a minimum
// service gap, modeling bounded per-controller bandwidth.
//
// Each level is one core-major slab of 32-bit tags: core c's set s is slot
// c*n+s. A slot holds the line's quotient by the set count plus one (0 =
// empty); in a direct-mapped array the set and the quotient together give
// the line back, so the narrow tag compares exactly as the full line would.
type memory struct {
	cfg    Config
	l1, l2 []uint32 // core-major tag slabs; tag 0 = empty
	ctrls  []dramCtrl

	// Line-to-slot maps of the two tag arrays and the home controller.
	set1, set2, home modulus
	// lineLimit is the first line whose tag overflows 32 bits at either
	// level.
	lineLimit uint64
	// dramCap is the number of accesses one controller serves per window
	// before later ones queue.
	dramCap int64

	// Stats counters (exported through Machine.MemStats for diagnostics).
	hits1, hits2, misses int64
}

// dramCtrl models bounded per-controller bandwidth with a sliding window:
// accesses beyond the window's service capacity pay a queuing delay. The
// window formulation is insensitive to the issue order of accesses, which
// matters because handlers issue accesses at offsets within a macro-step.
type dramCtrl struct {
	window int64
	count  int64
}

const (
	lineShift      = 6  // 64-byte lines
	dramWindowBits = 10 // 1024-cycle bandwidth accounting windows
)

// maxTag is the largest quotient a 32-bit slot holds: one is added to it.
const maxTag = 1<<32 - 2

// modulus maps a line number onto n slots. Every size in both default
// machines is a power of two, where the remainder is a mask and the
// quotient a shift; other sizes keep the division, so the two paths index
// identically by construction.
type modulus struct {
	n, mask uint64
	shift   uint
	pow2    bool
}

func newModulus(n int) modulus {
	u := uint64(n)
	return modulus{n: u, mask: u - 1, shift: uint(bits.TrailingZeros64(u)), pow2: u&(u-1) == 0}
}

func (d modulus) of(line uint64) uint64 {
	if d.pow2 {
		return line & d.mask
	}
	return line % d.n
}

// split returns line's slot and its tag: the quotient plus one, so that no
// line's tag is the empty 0.
func (d modulus) split(line uint64) (slot uint64, tag uint32) {
	if d.pow2 {
		return line & d.mask, uint32(line>>d.shift) + 1
	}
	q := line / d.n
	return line - q*d.n, uint32(q) + 1
}

func newMemory(cfg Config) *memory {
	m := &memory{
		cfg:     cfg,
		ctrls:   make([]dramCtrl, cfg.DRAMControllers),
		set1:    newModulus(max(cfg.L1Lines, 1)),
		set2:    newModulus(max(cfg.L2Lines, 1)),
		home:    newModulus(cfg.DRAMControllers),
		dramCap: int64(1) << dramWindowBits / max(cfg.DRAMServiceGap, 1),
	}
	m.lineLimit = (maxTag + 1) * min(m.set1.n, m.set2.n)
	m.l1 = make([]uint32, uint64(cfg.Cores)*m.set1.n)
	m.l2 = make([]uint32, uint64(cfg.Cores)*m.set2.n)
	return m
}

// access returns the latency of touching bytes at addr from core at time
// now, updating cache state. Multi-line accesses pay per line. An address
// whose tag overflows 32 bits panics: only a scheduler's address map can
// produce one, and aliasing it onto another line would hide the bug.
func (m *memory) access(core int, addr uint64, bytes int, now int64) int64 {
	if bytes <= 0 {
		bytes = 1
	}
	first := addr >> lineShift
	last := (addr + uint64(bytes) - 1) >> lineShift
	if last >= m.lineLimit {
		panic(fmt.Sprintf("sim: address %#x (%d bytes) is past the 32-bit cache tags' range", addr, bytes))
	}
	if first == last {
		return m.accessLine(core, first, now)
	}
	var total int64
	for line := first; line <= last; line++ {
		total += m.accessLine(core, line, now+total)
	}
	return total
}

func (m *memory) accessLine(core int, line uint64, now int64) int64 {
	s1, tag1 := m.set1.split(line)
	s1 += uint64(core) * m.set1.n
	if m.l1[s1] == tag1 {
		m.hits1++
		return m.cfg.L1Hit
	}
	s2, tag2 := m.set2.split(line)
	s2 += uint64(core) * m.set2.n
	if m.l2[s2] == tag2 {
		m.hits2++
		m.l1[s1] = tag1
		return m.cfg.L2Hit
	}
	// Miss: fill from DRAM through the line's home controller.
	m.misses++
	m.l1[s1] = tag1
	m.l2[s2] = tag2
	c := &m.ctrls[m.home.of(line)]
	w := now >> dramWindowBits
	if c.window != w {
		c.window = w
		c.count = 0
	}
	c.count++
	var queue int64
	if c.count > m.dramCap {
		queue = (c.count - m.dramCap) * m.cfg.DRAMServiceGap
	}
	return queue + m.cfg.DRAMLatency
}
