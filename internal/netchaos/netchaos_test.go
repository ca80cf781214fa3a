package netchaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "seed=7,latency=0.1,latms=3,throttle=4096,rst=0.02,shortread=0.25,partialwrite=0.05,stall=0.01,stallms=20"
	cfg, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Latency != 0.1 || cfg.LatencyDur != 3*time.Millisecond ||
		cfg.Throttle != 4096 || cfg.RST != 0.02 || cfg.ShortRead != 0.25 ||
		cfg.PartialWrite != 0.05 || cfg.Stall != 0.01 || cfg.StallDur != 20*time.Millisecond {
		t.Fatalf("parsed %+v", cfg)
	}
	re, err := ParseSpec(cfg.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", cfg.String(), err)
	}
	if re.Seed != cfg.Seed || re.RST != cfg.RST || re.ShortRead != cfg.ShortRead ||
		re.Throttle != cfg.Throttle {
		t.Fatalf("round trip lost fields: %+v vs %+v", re, cfg)
	}
}

func TestParseSpecDefaultAndErrors(t *testing.T) {
	def, err := ParseSpec("")
	if err != nil || def != DefaultMix(1) {
		t.Fatalf("empty spec: %+v, %v", def, err)
	}
	seeded, err := ParseSpec("seed=9,default")
	if err != nil || seeded.Seed != 9 || seeded.RST != DefaultMix(9).RST {
		t.Fatalf("seed+default: %+v, %v", seeded, err)
	}
	for _, bad := range []string{"nope", "rst=2", "rst=x", "wat=1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q should fail", bad)
		}
	}
}

// pair dials one wrapped loopback connection and returns both ends.
func pair(t *testing.T, cfg Config) (server net.Conn, client net.Conn, lis *Listener) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis = Wrap(inner, cfg)
	t.Cleanup(func() { lis.Close() })
	type acc struct {
		c   net.Conn
		err error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := lis.Accept()
		ch <- acc{c, err}
	}()
	client, err = net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	got := <-ch
	if got.err != nil {
		t.Fatal(got.err)
	}
	t.Cleanup(func() { got.c.Close() })
	return got.c, client, lis
}

// TestTransparentWhenZero: the zero mix must be a byte-exact pass-through.
func TestTransparentWhenZero(t *testing.T) {
	server, client, lis := pair(t, Config{Seed: 1})
	msg := bytes.Repeat([]byte("abcdefgh"), 1024)
	go func() {
		_, _ = client.Write(msg)
		client.Close()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("zero mix corrupted the stream: %d bytes vs %d", len(got), len(msg))
	}
	st := lis.Stats()
	if st.Resets.Load()+st.ShortReads.Load()+st.PartialWrites.Load()+
		st.Latencies.Load()+st.Stalls.Load() != 0 {
		t.Fatalf("zero mix injected faults: %s", st)
	}
	if st.Conns.Load() != 1 {
		t.Fatalf("conns %d, want 1", st.Conns.Load())
	}
}

// TestShortReadLosesNothing: truncated reads fragment delivery but every
// byte still arrives, in order.
func TestShortReadLosesNothing(t *testing.T) {
	server, client, lis := pair(t, Config{Seed: 3, ShortRead: 0.9})
	msg := bytes.Repeat([]byte("0123456789abcdef"), 512)
	go func() {
		_, _ = client.Write(msg)
		client.Close()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("short reads corrupted the stream (%d bytes vs %d)", len(got), len(msg))
	}
	if lis.Stats().ShortReads.Load() == 0 {
		t.Fatal("shortread mix injected nothing")
	}
}

// TestRSTResetsBothEnds: an injected reset errors locally and cuts the peer.
func TestRSTResetsBothEnds(t *testing.T) {
	server, client, lis := pair(t, Config{Seed: 5, RST: 1})
	if _, err := server.Write([]byte("doomed")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("write on rst=1 conn: %v, want ErrInjectedReset", err)
	}
	if lis.Stats().Resets.Load() == 0 {
		t.Fatal("no reset counted")
	}
	// The peer sees the cut on read: RST (connection reset) or EOF depending
	// on what the kernel delivered first — never a clean payload.
	_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if n, err := client.Read(buf); err == nil && n > 0 {
		t.Fatalf("peer read %d bytes (%q) from a reset conn", n, buf[:n])
	}
}

// TestPartialWriteDeliversStrictPrefix: the peer receives some prefix, never
// the full buffer, and the writer learns the stream died.
func TestPartialWriteDeliversStrictPrefix(t *testing.T) {
	server, client, lis := pair(t, Config{Seed: 11, PartialWrite: 1})
	msg := bytes.Repeat([]byte("x"), 8192)
	n, err := server.Write(msg)
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("partial write err %v, want ErrInjectedReset", err)
	}
	if n <= 0 || n >= len(msg) {
		t.Fatalf("partial write delivered %d of %d, want a strict prefix", n, len(msg))
	}
	if lis.Stats().PartialWrites.Load() == 0 {
		t.Fatal("no partial write counted")
	}
	_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, _ := io.ReadAll(client)
	if len(got) > n {
		t.Fatalf("peer got %d bytes, writer reported %d", len(got), n)
	}
}

// TestThrottlePacesWrites: a throttled stream takes at least size/bps.
func TestThrottlePacesWrites(t *testing.T) {
	server, client, lis := pair(t, Config{Seed: 13, Throttle: 64 << 10})
	msg := bytes.Repeat([]byte("y"), 32<<10)
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := server.Write(msg)
		server.Close()
		done <- err
	}()
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("throttle corrupted the stream (%d vs %d bytes)", len(got), len(msg))
	}
	// 32KiB at 64KiB/s ≈ 500ms minus the unthrottled first chunk; generous
	// floor to dodge scheduler noise.
	if el := time.Since(start); el < 200*time.Millisecond {
		t.Fatalf("throttled 32KiB at 64KiB/s finished in %s", el)
	}
	_ = lis
}

// TestDeterministicDecisionStream: same seed, same per-connection faults.
// Non-fatal faults only, so the op count (and thus the decision stream
// consumed) is identical across runs.
func TestDeterministicDecisionStream(t *testing.T) {
	run := func() (lat int64, short int64) {
		server, client, lis := pair(t, Config{Seed: 17, ShortRead: 0.3, Latency: 0.2, LatencyDur: time.Microsecond})
		go func() {
			for {
				if _, err := client.Write(bytes.Repeat([]byte("z"), 256)); err != nil {
					return
				}
			}
		}()
		buf := make([]byte, 256)
		for i := 0; i < 200; i++ {
			if _, err := server.Read(buf); err != nil {
				break
			}
		}
		server.Close()
		return lis.Stats().Latencies.Load(), lis.Stats().ShortReads.Load()
	}
	l1, s1 := run()
	l2, s2 := run()
	if l1 != l2 || s1 != s2 {
		t.Fatalf("decision stream not deterministic: (%d,%d) vs (%d,%d)", l1, s1, l2, s2)
	}
	if s1 == 0 || l1 == 0 {
		t.Fatal("mix injected nothing")
	}
}

func TestStatsString(t *testing.T) {
	var s Stats
	s.Conns.Store(2)
	s.Resets.Store(1)
	if got := s.String(); !strings.Contains(got, "conns 2") || !strings.Contains(got, "reset 1") {
		t.Fatalf("stats string %q", got)
	}
}
