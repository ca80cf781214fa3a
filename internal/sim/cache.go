package sim

// memory models the per-core private two-level cache hierarchy and the
// shared DRAM controllers of Table I. Caches are direct-mapped tag arrays
// over 64-byte lines — deliberately simple, but enough to expose the
// locality differences (banded CAGE vs random web accesses) the paper's
// analysis leans on. DRAM controllers serialize accesses with a minimum
// service gap, modeling bounded per-controller bandwidth.
type memory struct {
	cfg    Config
	l1, l2 [][]uint64 // per-core tag arrays; tag 0 = empty
	ctrls  []dramCtrl

	// Line-to-slot maps of the two tag arrays and the home controller.
	set1, set2, home modulus
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

// modulus maps a line number onto n slots. Every size in both default
// machines is a power of two, where the remainder is a mask; other sizes
// keep the division, so the two paths index identically by construction.
type modulus struct {
	n, mask uint64
	pow2    bool
}

func newModulus(n int) modulus {
	u := uint64(n)
	return modulus{n: u, mask: u - 1, pow2: u&(u-1) == 0}
}

func (d modulus) of(line uint64) uint64 {
	if d.pow2 {
		return line & d.mask
	}
	return line % d.n
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
	m.l1 = make([][]uint64, cfg.Cores)
	m.l2 = make([][]uint64, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		m.l1[i] = make([]uint64, m.set1.n)
		m.l2[i] = make([]uint64, m.set2.n)
	}
	return m
}

// access returns the latency of touching bytes at addr from core at time
// now, updating cache state. Multi-line accesses pay per line.
func (m *memory) access(core int, addr uint64, bytes int, now int64) int64 {
	if bytes <= 0 {
		bytes = 1
	}
	first := addr >> lineShift
	last := (addr + uint64(bytes) - 1) >> lineShift
	var total int64
	for line := first; line <= last; line++ {
		total += m.accessLine(core, line, now+total)
	}
	return total
}

func (m *memory) accessLine(core int, line uint64, now int64) int64 {
	tag := line + 1 // avoid the empty sentinel
	l1 := m.l1[core]
	s1 := m.set1.of(line)
	if l1[s1] == tag {
		m.hits1++
		return m.cfg.L1Hit
	}
	l2 := m.l2[core]
	s2 := m.set2.of(line)
	if l2[s2] == tag {
		m.hits2++
		l1[s1] = tag
		return m.cfg.L2Hit
	}
	// Miss: fill from DRAM through the line's home controller.
	m.misses++
	l1[s1] = tag
	l2[s2] = tag
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
