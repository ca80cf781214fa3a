// Package netchaos is the network-boundary sibling of internal/chaos: a
// seeded, deterministic fault-injecting net.Listener / net.Conn wrapper that
// perturbs the byte streams a serving front-end actually fails on — injected
// latency, bandwidth throttling, mid-stream connection resets, short reads,
// partial writes, and stalls (transient blackholes). Where the chaos
// package's fault hook on the ring transport (chaos.Engine) exercises the
// engine's inter-worker transfer, netchaos exercises the HTTP layer above it:
// half-written NDJSON submit streams, responses that never arrive, clients
// that trickle bytes, connections cut between request and response. Running
// hdcps-serve with both layers active (the engine built by chaos.Engine, the
// socket behind a netchaos.Listener) is how one soak drives faults at the
// transport boundary and the network boundary at once.
//
// Determinism follows the chaos package's contract: every fault decision
// comes from a per-connection seeded RNG (connection index striding the mix
// seed), so a seed reproduces the same fault decision stream per connection
// in accept order. The OS still schedules goroutines and segments TCP
// differently run to run — the faults are reproducible, not the whole
// execution.
//
// Faults are bounded by construction so a retrying client always makes
// progress: latency and stall injections sleep for a fixed configured
// duration (never forever), resets kill one connection (a redial gets a
// fresh decision stream), and the throttle paces bytes without dropping any.
// The termination story therefore lives with the client's retry budget, not
// with wall-clock luck — which is exactly what the serve netchaos soak
// asserts.
package netchaos

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdcps/internal/graph"
)

// Config is one connection-fault mix. Probabilities are per I/O operation
// (one Read or Write call) in [0, 1]; the zero value injects nothing.
type Config struct {
	// Seed drives every fault decision; each accepted connection derives its
	// own stream from it.
	Seed uint64
	// Latency is the probability that an I/O op is delayed by LatencyDur
	// before touching the socket (network propagation delay).
	Latency float64
	// LatencyDur is the injected delay. 0 defaults to 2ms.
	LatencyDur time.Duration
	// Throttle caps write bandwidth in bytes/second by chunking and pacing
	// large writes (a slow client or congested path). 0 disables.
	Throttle int64
	// RST is the probability that an op hard-resets the connection instead
	// of performing the I/O: the peer sees a TCP RST (SetLinger(0) close),
	// the local caller an immediate error — a mid-stream connection cut.
	RST float64
	// ShortRead is the probability that a Read is truncated to a random
	// prefix of the caller's buffer (fragmented delivery; no data is lost,
	// the rest arrives on later reads).
	ShortRead float64
	// PartialWrite is the probability that a Write delivers only a random
	// prefix and then resets the connection — a half-written stream whose
	// tail never arrives.
	PartialWrite float64
	// Stall is the probability that an op blackholes for StallDur before
	// proceeding (a dead NAT entry, a paused VM: bytes neither flow nor
	// fail).
	Stall float64
	// StallDur is how long a stall lasts. 0 defaults to 100ms.
	StallDur time.Duration
}

func (c Config) withDefaults() Config {
	if c.LatencyDur <= 0 {
		c.LatencyDur = 2 * time.Millisecond
	}
	if c.StallDur <= 0 {
		c.StallDur = 100 * time.Millisecond
	}
	return c
}

// DefaultMix is a moderate everything-on mix: every connection fault class
// fires often enough to be exercised by a short soak without making
// progress hopeless for a retrying client.
func DefaultMix(seed uint64) Config {
	return Config{
		Seed:         seed,
		Latency:      0.05,
		LatencyDur:   2 * time.Millisecond,
		RST:          0.01,
		ShortRead:    0.10,
		PartialWrite: 0.01,
		Stall:        0.005,
		StallDur:     50 * time.Millisecond,
	}
}

// ParseSpec parses a "key=value,key=value" connection-fault spec, e.g.
//
//	seed=42,rst=0.01,shortread=0.1,latency=0.05,latms=2,stall=0.005,stallms=50
//
// Keys: seed, latency, latms, throttle (bytes/second), rst, shortread,
// partialwrite, stall, stallms. The spec "default" applies DefaultMix
// (an explicit seed=N element survives it); an empty spec returns
// DefaultMix(1).
func ParseSpec(spec string) (Config, error) {
	cfg := Config{Seed: 1}
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "default" {
		return DefaultMix(1), nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		if kv == "default" {
			base := DefaultMix(cfg.Seed)
			base.Seed = cfg.Seed
			cfg = base
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Config{}, fmt.Errorf("netchaos: bad spec element %q (want key=value)", kv)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		switch k {
		case "seed", "latms", "stallms", "throttle":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("netchaos: bad %s %q: %v", k, v, err)
			}
			switch k {
			case "seed":
				cfg.Seed = n
			case "latms":
				cfg.LatencyDur = time.Duration(n) * time.Millisecond
			case "stallms":
				cfg.StallDur = time.Duration(n) * time.Millisecond
			case "throttle":
				cfg.Throttle = int64(n)
			}
		case "latency", "rst", "shortread", "partialwrite", "stall":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 0 || p > 1 {
				return Config{}, fmt.Errorf("netchaos: bad probability %s=%q (want [0,1])", k, v)
			}
			switch k {
			case "latency":
				cfg.Latency = p
			case "rst":
				cfg.RST = p
			case "shortread":
				cfg.ShortRead = p
			case "partialwrite":
				cfg.PartialWrite = p
			case "stall":
				cfg.Stall = p
			}
		default:
			return Config{}, fmt.Errorf("netchaos: unknown spec key %q", k)
		}
	}
	return cfg, nil
}

// String renders the mix back in ParseSpec's syntax.
func (c Config) String() string {
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	add := func(k string, p float64) {
		if p > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, p))
		}
	}
	add("latency", c.Latency)
	add("rst", c.RST)
	add("shortread", c.ShortRead)
	add("partialwrite", c.PartialWrite)
	add("stall", c.Stall)
	if c.Throttle > 0 {
		parts = append(parts, fmt.Sprintf("throttle=%d", c.Throttle))
	}
	return strings.Join(parts, ",")
}

// Stats counts injected connection faults (atomics: read while serving).
type Stats struct {
	Conns         atomic.Int64 // connections accepted through the wrapper
	Latencies     atomic.Int64 // ops delayed
	Resets        atomic.Int64 // injected hard resets
	ShortReads    atomic.Int64 // reads truncated
	PartialWrites atomic.Int64 // writes cut mid-buffer (then reset)
	Stalls        atomic.Int64 // ops blackholed for StallDur
}

func (s *Stats) String() string {
	return fmt.Sprintf(
		"conns %d, delayed %d ops, reset %d, short-read %d, partial-write %d, stalled %d",
		s.Conns.Load(), s.Latencies.Load(), s.Resets.Load(),
		s.ShortReads.Load(), s.PartialWrites.Load(), s.Stalls.Load())
}

// ErrInjectedReset is returned by a Conn whose operation was converted into
// a connection reset (the peer sees a TCP RST).
var ErrInjectedReset = errors.New("netchaos: injected connection reset")

// Listener wraps an inner net.Listener so every accepted connection carries
// the fault mix. Each connection derives its own decision stream from the
// mix seed and its accept index.
type Listener struct {
	net.Listener
	cfg   Config
	stats Stats
	nconn atomic.Uint64
}

// Wrap layers the fault mix over lis.
func Wrap(lis net.Listener, cfg Config) *Listener {
	return &Listener{Listener: lis, cfg: cfg.withDefaults()}
}

// Stats exposes the live fault counters.
func (l *Listener) Stats() *Stats { return &l.stats }

// Accept wraps the next inner connection with a per-connection fault stream.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	idx := l.nconn.Add(1)
	l.stats.Conns.Add(1)
	return &Conn{
		Conn:  c,
		cfg:   &l.cfg,
		stats: &l.stats,
		// Same odd-constant stride per connection the chaos package uses per
		// endpoint: nearby indices get unrelated decision streams.
		rng: graph.NewRNG((l.cfg.Seed ^ 0x9e3779b97f4a7c15) + idx*0xc2b2ae3d27d4eb4f),
	}, nil
}

// Conn is one fault-injected connection. Read and Write may be called
// concurrently (the HTTP server does); the RNG is mutex-guarded and sleeps
// happen outside the lock so a read stall cannot serialize writes.
type Conn struct {
	net.Conn
	cfg   *Config
	stats *Stats
	mu    sync.Mutex
	rng   *graph.RNG
}

// decide draws every probability for one op under the lock, returning the
// injected sleep (0 for none), whether to reset, and the fraction in (0,1)
// to truncate to (0 for whole buffer).
func (c *Conn) decide(truncP float64) (sleep time.Duration, reset bool, frac float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.cfg.Stall; p > 0 && c.rng.Float64() < p {
		sleep += c.cfg.StallDur
		c.stats.Stalls.Add(1)
	}
	if p := c.cfg.Latency; p > 0 && c.rng.Float64() < p {
		sleep += c.cfg.LatencyDur
		c.stats.Latencies.Add(1)
	}
	if p := c.cfg.RST; p > 0 && c.rng.Float64() < p {
		return sleep, true, 0
	}
	if truncP > 0 && c.rng.Float64() < truncP {
		// At least one byte so callers still progress; Float64 < 1 keeps the
		// fraction a strict prefix for len >= 2.
		frac = c.rng.Float64()
	}
	return sleep, false, frac
}

// reset force-closes the connection so the peer observes a hard RST rather
// than a graceful FIN (SetLinger(0) on TCP; plain Close otherwise).
func (c *Conn) reset() {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Conn.Close()
	c.stats.Resets.Add(1)
}

func truncate(n int, frac float64) int {
	if n <= 1 || frac <= 0 {
		return n
	}
	k := 1 + int(frac*float64(n-1))
	if k >= n {
		k = n - 1
	}
	return k
}

func (c *Conn) Read(p []byte) (int, error) {
	sleep, reset, frac := c.decide(c.cfg.ShortRead)
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if reset {
		c.reset()
		return 0, ErrInjectedReset
	}
	if k := truncate(len(p), frac); k < len(p) {
		c.stats.ShortReads.Add(1)
		p = p[:k]
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	sleep, reset, frac := c.decide(c.cfg.PartialWrite)
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if reset {
		c.reset()
		return 0, ErrInjectedReset
	}
	if k := truncate(len(p), frac); k < len(p) {
		// Deliver a strict prefix, then cut the stream: the peer gets a
		// half-written payload it can never complete.
		c.stats.PartialWrites.Add(1)
		n, _ := c.write(p[:k])
		c.reset()
		return n, ErrInjectedReset
	}
	return c.write(p)
}

// write paces p at cfg.Throttle bytes/second in bounded chunks (plain write
// when unthrottled).
func (c *Conn) write(p []byte) (int, error) {
	bps := c.cfg.Throttle
	if bps <= 0 {
		return c.Conn.Write(p)
	}
	const chunk = 4 << 10
	var total int
	for len(p) > 0 {
		n := len(p)
		if n > chunk {
			n = chunk
		}
		w, err := c.Conn.Write(p[:n])
		total += w
		if err != nil {
			return total, err
		}
		p = p[n:]
		if len(p) > 0 {
			time.Sleep(time.Duration(float64(n) / float64(bps) * float64(time.Second)))
		}
	}
	return total, nil
}
