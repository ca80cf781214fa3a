package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refMemory is the cache model written the slow way — every index a
// division — as the reference both index paths of memory must match.
type refMemory struct {
	cfg                  Config
	l1, l2               [][]uint64
	window, count        []int64
	hits1, hits2, misses int64
}

func newRefMemory(cfg Config) *refMemory {
	r := &refMemory{cfg: cfg, window: make([]int64, cfg.DRAMControllers), count: make([]int64, cfg.DRAMControllers)}
	for i := 0; i < cfg.Cores; i++ {
		r.l1 = append(r.l1, make([]uint64, cfg.L1Lines))
		r.l2 = append(r.l2, make([]uint64, cfg.L2Lines))
	}
	return r
}

func (r *refMemory) access(core int, addr uint64, bytes int, now int64) int64 {
	var total int64
	for line := addr >> lineShift; line <= (addr+uint64(bytes)-1)>>lineShift; line++ {
		at := now + total
		tag := line + 1
		s1, s2 := line%uint64(r.cfg.L1Lines), line%uint64(r.cfg.L2Lines)
		switch {
		case r.l1[core][s1] == tag:
			r.hits1++
			total += r.cfg.L1Hit
		case r.l2[core][s2] == tag:
			r.hits2++
			r.l1[core][s1] = tag
			total += r.cfg.L2Hit
		default:
			r.misses++
			r.l1[core][s1], r.l2[core][s2] = tag, tag
			c := line % uint64(r.cfg.DRAMControllers)
			if w := at >> dramWindowBits; r.window[c] != w {
				r.window[c], r.count[c] = w, 0
			}
			r.count[c]++
			total += r.cfg.DRAMLatency
			if capacity := int64(1) << dramWindowBits / r.cfg.DRAMServiceGap; r.count[c] > capacity {
				total += (r.count[c] - capacity) * r.cfg.DRAMServiceGap
			}
		}
	}
	return total
}

// TestCacheIndexPaths drives one address stream through a power-of-two
// machine (indexed by mask and shift) and through one whose sizes are not
// (indexed by % and /), each against the division-only reference with full
// 64-bit tags: latencies and hit/miss counts must agree access by access,
// up to the last line the 32-bit tags can hold.
func TestCacheIndexPaths(t *testing.T) {
	odd := DefaultSW(4)
	odd.L1Lines, odd.L2Lines, odd.DRAMControllers = 300, 3000, 3
	for name, cfg := range map[string]Config{"pow2": DefaultSW(4).normalized(), "odd": odd.normalized()} {
		mem, ref := newMemory(cfg), newRefMemory(cfg)
		if wantMask := name == "pow2"; mem.set1.pow2 != wantMask || mem.set2.pow2 != wantMask || mem.home.pow2 != wantMask {
			t.Fatalf("%s: mask paths %v %v %v, want all %v", name, mem.set1.pow2, mem.set2.pow2, mem.home.pow2, wantMask)
		}
		rng := rand.New(rand.NewSource(7))
		var now int64
		for i := 0; i < 200_000; i++ {
			core := rng.Intn(cfg.Cores)
			// A hot region that fits L1, a warm one that fits L2, a cold
			// one that fits neither, and bursts inside one DRAM window so
			// the controller queue fills.
			var addr uint64
			switch rng.Intn(5) {
			case 0:
				addr = uint64(rng.Intn(200)) << lineShift
			case 1:
				addr = 1<<20 + uint64(rng.Intn(2500))<<lineShift
			case 2:
				// The top of the 32-bit tag range, its last line included:
				// tags near 2^32 at the smaller level.
				addr = (mem.lineLimit - 1 - uint64(rng.Intn(4000))) << lineShift
			default:
				addr = 1<<28 + uint64(rng.Intn(1<<20))<<lineShift
			}
			addr += uint64(rng.Intn(64))
			bytes := 1 + rng.Intn(200)
			if end := mem.lineLimit << lineShift; addr+uint64(bytes) > end {
				bytes = int(end - addr)
			}
			if rng.Intn(4) == 0 {
				now += rng.Int63n(300)
			}
			if got, want := mem.access(core, addr, bytes, now), ref.access(core, addr, bytes, now); got != want {
				t.Fatalf("%s: access %d (core %d addr %#x bytes %d at %d) = %d cycles, reference %d",
					name, i, core, addr, bytes, now, got, want)
			}
		}
		if mem.hits1 != ref.hits1 || mem.hits2 != ref.hits2 || mem.misses != ref.misses {
			t.Errorf("%s: L1/L2/miss = %d/%d/%d, reference %d/%d/%d",
				name, mem.hits1, mem.hits2, mem.misses, ref.hits1, ref.hits2, ref.misses)
		}
		if ref.hits1 == 0 || ref.hits2 == 0 || ref.misses == 0 {
			t.Errorf("%s: stream did not reach every level: %d/%d/%d", name, ref.hits1, ref.hits2, ref.misses)
		}
	}
}

// TestCacheTagRangePanics holds the 32-bit tags' range: the last line whose
// tag fits is cached with tag 2^32-1, and an access reaching one line
// further panics instead of aliasing onto a lower line.
func TestCacheTagRangePanics(t *testing.T) {
	odd := DefaultSW(2)
	odd.L1Lines, odd.L2Lines, odd.DRAMControllers = 300, 3000, 3
	for name, cfg := range map[string]Config{"pow2": DefaultSW(2).normalized(), "odd": odd.normalized()} {
		mem := newMemory(cfg)
		last := mem.lineLimit - 1
		mem.access(1, last<<lineShift, 64, 0)
		if s, tag := mem.set1.split(last); tag != math.MaxUint32 || mem.l1[mem.set1.n+s] != tag {
			t.Fatalf("%s: last line's L1 tag %#x (slot holds %#x), want %#x", name, tag, mem.l1[mem.set1.n+s], uint32(math.MaxUint32))
		}
		for _, a := range []struct {
			addr  uint64
			bytes int
		}{{mem.lineLimit << lineShift, 8}, {last<<lineShift + 60, 8}} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "32-bit") {
						t.Errorf("%s: access %#x (%d bytes) recovered %v, want a tag-range panic", name, a.addr, a.bytes, r)
					}
				}()
				mem.access(0, a.addr, a.bytes, 0)
			}()
		}
	}
}

var sinkLatency int64

// BenchmarkMemAccess measures one 8-byte access on the default software
// machine: a stream that stays in L1, one that misses to DRAM every time
// (both cycle their lines over 32 cores), and one that spreads: 40 cores in
// turn over random lines of a web-sized footprint (Web(5000)'s node and edge
// arrays, ~8k lines), so every core's L1 and L2 sets are touched and the tag
// slabs' own host footprint shows, as it does in a simulated pagerank run.
func BenchmarkMemAccess(b *testing.B) {
	cfg := DefaultSW(40).normalized()
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 16
	hit, miss, spread := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := range n {
		hit[i] = uint64(i) * 7919 & 255
		miss[i] = uint64(i) * 7919 & (n - 1)
		spread[i] = uint64(rng.Intn(1 << 13))
	}
	for _, bc := range []struct {
		name  string
		cores int
		lines []uint64 // the stream, cycled
	}{{"hit", 32, hit}, {"miss", 32, miss}, {"spread", 40, spread}} {
		b.Run(bc.name, func(b *testing.B) {
			mem := newMemory(cfg)
			var total int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total += mem.access(i%bc.cores, bc.lines[i&(n-1)]<<lineShift, 8, int64(i)*4)
			}
			sinkLatency = total
			b.ReportMetric(float64(mem.misses)/float64(b.N), "dram/op")
		})
	}
}
