package sim

import (
	"fmt"
	"strings"
	"testing"

	"hdcps/internal/stats"
)

func TestSquarest(t *testing.T) {
	for _, tc := range []struct{ n, w, h int }{
		{64, 8, 8}, {40, 8, 5}, {16, 4, 4}, {12, 4, 3}, {1, 1, 1}, {2, 2, 1},
	} {
		w, h := squarest(tc.n)
		if w*h < tc.n {
			t.Errorf("squarest(%d) = %dx%d too small", tc.n, w, h)
		}
		if tc.n >= 4 && (w == tc.n || h == tc.n) {
			t.Errorf("squarest(%d) = %dx%d degenerate", tc.n, w, h)
		}
	}
	// Prime core count pads the mesh.
	w, h := squarest(7)
	if w*h < 7 {
		t.Errorf("squarest(7) = %dx%d", w, h)
	}
}

func TestConfigFlits(t *testing.T) {
	c := DefaultHW()
	if c.Flits(128) != 2 || c.Flits(64) != 1 || c.Flits(65) != 2 || c.Flits(0) != 1 {
		t.Fatalf("flit math wrong: %d %d %d %d",
			c.Flits(128), c.Flits(64), c.Flits(65), c.Flits(0))
	}
}

func TestDefaultConfigsMatchTable1(t *testing.T) {
	hw := DefaultHW()
	if hw.Cores != 64 || hw.HRQSize != 32 || hw.HPQSize != 48 ||
		hw.HWQueueCycles != 5 || hw.HopCycles != 2 || hw.DRAMControllers != 8 ||
		hw.DRAMLatency != 100 || hw.EntryBits != 128 {
		t.Fatalf("DefaultHW diverges from Table I: %+v", hw)
	}
	sw := DefaultSW(40)
	if sw.Cores != 40 || sw.HRQSize != 0 || sw.HPQSize != 0 {
		t.Fatalf("DefaultSW wrong: %+v", sw)
	}
}

func TestNoCXYRouting(t *testing.T) {
	cfg := DefaultHW().normalized() // 8x8
	n := newNoC(cfg)
	// Same tile: loopback costs one hop.
	if got := n.route(5, 5, 1, 100) - 100; got != cfg.HopCycles {
		t.Fatalf("loopback latency = %d", got)
	}
	// Corner to corner on 8x8: 14 hops, no contention, 1 flit.
	lat := n.route(0, 63, 1, 0)
	want := 14*cfg.HopCycles + 0 // +flits-1 = 0
	if lat != want {
		t.Fatalf("corner-to-corner latency = %d, want %d", lat, want)
	}
	if n.hops(0, 63) != 14 {
		t.Fatalf("hops(0,63) = %d", n.hops(0, 63))
	}
}

func TestNoCLinkContention(t *testing.T) {
	cfg := DefaultHW().normalized()
	n := newNoC(cfg)
	// Two simultaneous 8-flit messages over the same first link: the second
	// must wait for the first's flits to serialize.
	a := n.route(0, 1, 8, 0)
	b := n.route(0, 1, 8, 0)
	if b <= a {
		t.Fatalf("no contention: first %d, second %d", a, b)
	}
	// Disjoint routes do not interfere.
	n2 := newNoC(cfg)
	c1 := n2.route(0, 1, 8, 0)
	c2 := n2.route(16, 17, 8, 0) // different row
	if c2-0 != c1-0 {
		t.Fatalf("disjoint routes interfered: %d vs %d", c1, c2)
	}
}

func TestNoCDeterminism(t *testing.T) {
	cfg := DefaultHW().normalized()
	run := func() []int64 {
		n := newNoC(cfg)
		var out []int64
		for i := 0; i < 100; i++ {
			out = append(out, n.route(i%64, (i*7)%64, int64(1+i%4), int64(i)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func TestCacheHierarchy(t *testing.T) {
	cfg := DefaultHW().normalized()
	mem := newMemory(cfg)
	// First touch: DRAM.
	if lat := mem.access(0, 0x1000, 8, 0); lat < cfg.DRAMLatency {
		t.Fatalf("cold access latency %d < DRAM %d", lat, cfg.DRAMLatency)
	}
	// Second touch: L1.
	if lat := mem.access(0, 0x1000, 8, 200); lat != cfg.L1Hit {
		t.Fatalf("warm access latency %d, want L1 %d", lat, cfg.L1Hit)
	}
	// Another core does not share the private cache.
	if lat := mem.access(1, 0x1000, 8, 300); lat < cfg.DRAMLatency {
		t.Fatalf("other core got a private hit: %d", lat)
	}
}

func TestCacheL2Catch(t *testing.T) {
	cfg := DefaultHW().normalized()
	mem := newMemory(cfg)
	mem.access(0, 0x2000, 8, 0)
	// Evict from L1 by touching a conflicting line (same L1 set, different
	// L2 set): L1 is 512 lines, L2 4096, so +512 lines conflicts in L1 only.
	conflict := uint64(0x2000) + uint64(cfg.L1Lines)<<lineShift
	mem.access(0, conflict, 8, 200)
	if lat := mem.access(0, 0x2000, 8, 400); lat != cfg.L2Hit {
		t.Fatalf("expected L2 hit (%d), got %d", cfg.L2Hit, lat)
	}
}

func TestCacheMultiLine(t *testing.T) {
	cfg := DefaultHW().normalized()
	mem := newMemory(cfg)
	// 128 bytes spanning two lines costs two accesses.
	cold := mem.access(0, 0, 128, 0)
	if cold < 2*cfg.DRAMLatency {
		t.Fatalf("two-line cold access %d < %d", cold, 2*cfg.DRAMLatency)
	}
	warm := mem.access(0, 0, 128, 1000)
	if warm != 2*cfg.L1Hit {
		t.Fatalf("two-line warm access %d, want %d", warm, 2*cfg.L1Hit)
	}
}

func TestDRAMQueuing(t *testing.T) {
	cfg := DefaultHW().normalized()
	mem := newMemory(cfg)
	// Hammer one controller past its per-window service capacity: lines 8
	// controllers apart map to the same one, and the window holds
	// 1024/DRAMServiceGap accesses before queuing kicks in.
	overload := int(int64(1)<<dramWindowBits/cfg.DRAMServiceGap) + 64
	var last int64
	for i := 0; i < overload; i++ {
		addr := uint64(i) * uint64(cfg.DRAMControllers) << lineShift
		last = mem.access(0, addr, 8, 0)
	}
	if last <= cfg.DRAMLatency {
		t.Fatalf("no queuing delay after %d same-window accesses: %d", overload, last)
	}
	// A fresh window resets the bandwidth accounting.
	lat := mem.access(0, uint64(overload+1)*uint64(cfg.DRAMControllers)<<lineShift, 8, 1<<20)
	if lat != cfg.DRAMLatency {
		t.Fatalf("fresh window access latency %d, want %d", lat, cfg.DRAMLatency)
	}
}

// pingPong is a minimal handler: core 0 sends a token to core 1 and back N
// times, then both idle. It exercises Ready/Receive/Wake/idle accounting.
type pingPong struct {
	remaining int
	started   bool
}

func (p *pingPong) Start(m *Machine) { m.Wake(0) }

func (p *pingPong) Ready(m *Machine, core int) (int64, bool) {
	if core == 0 && !p.started {
		p.started = true
		m.Charge(core, Compute, 10)
		m.Send(Message{From: 0, To: 1, Aux: int64(p.remaining)}, 128, 10)
		return 10, true
	}
	return 0, true
}

func (p *pingPong) Receive(m *Machine, core int, msg Message) int64 {
	m.Charge(core, Comm, 5)
	if msg.Aux > 0 {
		m.Send(Message{From: core, To: msg.From, Aux: msg.Aux - 1}, 128, 5)
	}
	return 5
}

func TestMachinePingPong(t *testing.T) {
	m := New(Config{Cores: 2, HopCycles: 2, FlitBits: 64})
	h := &pingPong{remaining: 10}
	total, bds := m.Run(h)
	if total <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if m.MessagesSent() != 11 {
		t.Fatalf("messages = %d, want 11", m.MessagesSent())
	}
	var sum stats.Breakdown
	for _, b := range bds {
		sum.Add(b)
	}
	if sum.Compute != 10 {
		t.Fatalf("compute = %d, want 10", sum.Compute)
	}
	if sum.Comm == 0 {
		t.Fatal("no comm/idle time accounted")
	}
}

func TestMachineDeterminism(t *testing.T) {
	run := func() int64 {
		m := New(Config{Cores: 2, HopCycles: 2, FlitBits: 64})
		total, _ := m.Run(&pingPong{remaining: 50})
		return total
	}
	if run() != run() {
		t.Fatal("machine not deterministic")
	}
}

func TestMachineRunTwicePanics(t *testing.T) {
	m := New(Config{Cores: 1})
	m.Run(&busyLoop{steps: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("second Run should panic")
		}
	}()
	m.Run(&busyLoop{steps: 1})
}

// TestSendNegativeDelayPanics holds the guard the event loop's in-place top
// rests on: a message may not depart before the step that sends it, or it
// could be queued ahead of the event Run holds at the root.
func TestSendNegativeDelayPanics(t *testing.T) {
	m := New(Config{Cores: 2})
	m.Send(Message{From: 0, To: 1}, 64, 0) // departing now is fine
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "negative sender delay") {
			t.Fatalf("Send with delay -1 recovered %v, want a negative-sender-delay panic", r)
		}
	}()
	m.Send(Message{From: 0, To: 1}, 64, -1)
}

// busyLoop runs core 0 for a fixed number of steps charging compute.
type busyLoop struct{ steps int }

func (b *busyLoop) Start(m *Machine) { m.Wake(0) }
func (b *busyLoop) Ready(m *Machine, core int) (int64, bool) {
	if b.steps == 0 {
		return 0, true
	}
	b.steps--
	m.Charge(core, Compute, 100)
	return 100, false
}
func (b *busyLoop) Receive(m *Machine, core int, msg Message) int64 { return 0 }

func TestMachineTimeAdvances(t *testing.T) {
	m := New(Config{Cores: 1})
	total, bds := m.Run(&busyLoop{steps: 7})
	if total != 700 {
		t.Fatalf("completion = %d, want 700", total)
	}
	if bds[0].Compute != 700 {
		t.Fatalf("compute = %d", bds[0].Compute)
	}
}

func TestDriftProbe(t *testing.T) {
	m := New(Config{Cores: 1})
	calls := 0
	m.SetDriftProbe(func() []int64 {
		calls++
		return []int64{10, 14}
	}, 100)
	m.Run(&busyLoop{steps: 7})
	trace := m.DriftTrace()
	if len(trace) == 0 {
		t.Fatal("no drift samples")
	}
	for _, d := range trace {
		if d != 2 { // eq1 over {10, 14}: ref 10, mean |diff| = (0+4)/2
			t.Fatalf("drift sample = %v, want 2", d)
		}
	}
}

// TestDriftProbeNonPositiveInterval: a probe that re-arms at now+0 used to
// keep Run at cycle 0 for ever, its trace growing without bound. It is now
// "no probe".
func TestDriftProbeNonPositiveInterval(t *testing.T) {
	for _, interval := range []int64{0, -5} {
		m := New(Config{Cores: 2, HopCycles: 2, FlitBits: 64})
		calls := 0
		m.SetDriftProbe(func() []int64 {
			if calls++; calls > 1000 {
				panic("drift probe is spinning at one cycle")
			}
			return []int64{1, 2}
		}, interval)
		total, _ := m.Run(&pingPong{remaining: 10})
		if total <= 0 || m.MessagesSent() != 11 {
			t.Fatalf("interval %d: run did not finish: %d cycles, %d messages", interval, total, m.MessagesSent())
		}
		if len(m.DriftTrace()) != 0 || calls != 0 {
			t.Fatalf("interval %d: %d samples from %d probe calls, want none", interval, len(m.DriftTrace()), calls)
		}
	}
}

func TestEq1(t *testing.T) {
	if eq1(nil) != 0 {
		t.Fatal("empty eq1 should be 0")
	}
	if got := eq1([]int64{5, 5, 5}); got != 0 {
		t.Fatalf("uniform eq1 = %v", got)
	}
	if got := eq1([]int64{1, 3, 5}); got != 2 {
		t.Fatalf("eq1 = %v, want 2", got)
	}
}
