// Package sim is a deterministic discrete-event multicore simulator modeled
// after the paper's evaluation vehicles: the in-house RISC-V 64-core tiled
// multicore of Table I (hardware mode) and, with a software cost model, the
// 40-core Intel Xeon used for the software CPS comparisons. Cores are
// event-driven state machines; a scheduler (package sched) implements the
// Handler interface and charges cycle costs for every operation it models.
//
// Everything is deterministic: events are ordered by (cycle, sequence
// number) and all randomness comes from seeded generators, so a given
// (config, scheduler, workload, seed) always produces identical results.
package sim

import "fmt"

// Config holds the machine parameters. The defaults mirror Table I.
type Config struct {
	// Cores is the number of cores (Table I: 64; the Xeon experiments: 40).
	Cores int
	// MeshW and MeshH are the 2-D mesh dimensions. If zero they are derived
	// as the most square factorization of Cores.
	MeshW, MeshH int

	// HopCycles is the per-hop latency (1 router + 1 link = 2 cycles).
	HopCycles int64
	// FlitBits is the link width; a message of N bits serializes into
	// ceil(N/FlitBits) flits that occupy each traversed link.
	FlitBits int

	// HWQueueCycles is the access latency of the hardware queues (5).
	HWQueueCycles int64
	// HRQSize and HPQSize are the per-core hardware receive/priority queue
	// entries (32 and 48). Zero entries disable the queue: with both zero
	// the machine is the software-only configuration (§III-D).
	HRQSize, HPQSize int
	// EntryBits is the size of a task/bag hardware entry (128).
	EntryBits int

	// Cache model: private two-level hierarchy per core.
	L1Lines int   // 32KB / 64B = 512 lines
	L2Lines int   // 256KB / 64B = 4096 lines
	L1Hit   int64 // 1 cycle
	L2Hit   int64 // ~8 cycles
	// DRAM: controllers with a 100-cycle (100ns @ 1GHz) access latency and
	// per-controller serialization modeling bounded bandwidth.
	DRAMControllers int
	DRAMLatency     int64
	DRAMServiceGap  int64 // min cycles between accesses at one controller

	// Software cost model (cycles), calibrated to the relative costs the
	// paper attributes to software CPS designs: O(log n) priority-queue
	// rebalancing, cheap receive-ring atomics, and contended lock hand-off
	// for globally shared structures.
	SWPQBase   int64 // software PQ op fixed cost
	SWPQPerLog int64 // additional cost per log2(queue length)
	SWRQCost   int64 // receive-ring claim+publish (two atomics)
	SWLockCost int64 // uncontended lock acquire+release
	AtomicRMW  int64 // single remote atomic (CAS/fetch-add)
	// SWTransferCycles is the extra latency before a software task hand-off
	// becomes visible at the destination (coherence round trips through the
	// cache hierarchy). It is what hardware messaging eliminates: with
	// HRQSize > 0 transfers ride the NoC instead and skip this cost.
	SWTransferCycles int64
	// RemoteOpPenalty multiplies the cost of a data-structure operation
	// performed on *another* core's memory (e.g. RELD's remote insert into
	// the destination's priority queue): every sift step is a remote cache
	// miss rather than a local hit.
	RemoteOpPenalty int64

	// Task cost model.
	TaskBaseCycles int64 // fixed per-task work
	EdgeCycles     int64 // per examined edge, on top of memory costs

	// Bag handling costs (§III-B): creating a bag and packing each task.
	BagBaseCycles    int64
	BagPerTaskCycles int64
}

// DefaultHW returns the Table I configuration: 64 in-order cores at 1 GHz,
// 8x8 mesh, hardware queues enabled.
func DefaultHW() Config {
	c := baseCosts()
	c.Cores = 64
	c.HRQSize = 32
	c.HPQSize = 48
	return c
}

// DefaultSW returns the software-mode machine used for the Xeon-side
// experiments: the same fabric with the hardware queues disabled (§III-D:
// "if the size of both these queues is set to zero, then the system becomes
// a software-only solution").
func DefaultSW(cores int) Config {
	c := baseCosts()
	c.Cores = cores
	c.HRQSize = 0
	c.HPQSize = 0
	return c
}

func baseCosts() Config {
	return Config{
		HopCycles:       2,
		FlitBits:        64,
		HWQueueCycles:   5,
		EntryBits:       128,
		L1Lines:         512,
		L2Lines:         4096,
		L1Hit:           1,
		L2Hit:           8,
		DRAMControllers: 8,
		DRAMLatency:     100,
		DRAMServiceGap:  2,
		// Software costs are calibrated so scheduling dominates the tiny
		// tasks of graph workloads, as the paper measures on the Xeon:
		// a contended lock hand-off and a heap rebalance each cost a few
		// hundred cycles while a task's own compute is of the same order.
		SWPQBase:         120,
		SWPQPerLog:       20,
		SWRQCost:         90,
		SWLockCost:       150,
		AtomicRMW:        80,
		SWTransferCycles: 500,
		RemoteOpPenalty:  3,
		TaskBaseCycles:   60,
		EdgeCycles:       8,
		BagBaseCycles:    25,
		BagPerTaskCycles: 4,
	}
}

// normalized fills derived fields and validates; it panics on nonsense
// configurations because these are programmer errors in experiment setup.
func (c Config) normalized() Config {
	if c.Cores <= 0 {
		panic("sim: Config.Cores must be positive")
	}
	if c.Cores > 1<<16 {
		panic("sim: Config.Cores must fit the event key's 16-bit core field")
	}
	if c.MeshW == 0 || c.MeshH == 0 {
		c.MeshW, c.MeshH = squarest(c.Cores)
	}
	if c.MeshW*c.MeshH < c.Cores {
		panic(fmt.Sprintf("sim: mesh %dx%d too small for %d cores", c.MeshW, c.MeshH, c.Cores))
	}
	if c.FlitBits <= 0 {
		c.FlitBits = 64
	}
	if c.EntryBits <= 0 {
		c.EntryBits = 128
	}
	if c.DRAMControllers <= 0 {
		c.DRAMControllers = 1
	}
	return c
}

// squarest returns the factorization of n closest to a square, padding to
// the next rectangle when n is prime-ish.
func squarest(n int) (w, h int) {
	best := 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			best = f
		}
	}
	w, h = n/best, best
	// A degenerate 1-row mesh for a large core count is unrealistic; pad
	// the mesh instead (unused tiles are just never addressed).
	if h == 1 && n > 3 {
		for w = 2; w*w < n; w++ {
		}
		h = (n + w - 1) / w
	}
	return w, h
}

// Flits returns the number of flits a payload of bits occupies.
func (c Config) Flits(bits int) int64 {
	f := (bits + c.FlitBits - 1) / c.FlitBits
	if f < 1 {
		f = 1
	}
	return int64(f)
}
