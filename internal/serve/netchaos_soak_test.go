package serve

// The netchaos soak: a real serve.Server behind a fault-injecting listener,
// driven by the persistent-stream client in both its shapes — one long-lived
// stream fed batch by batch, and many short streams of one batch each (open,
// Submit, Close: the one-shot submission) — with engine-layer chaos composed
// in for the final mix. The proof obligation is three-way ledger agreement at
// quiescence under every fault mix:
//
//	client-confirmed admissions == server accepted == engine Submitted (mod
//	chaos duplicates), and the conservation ledger balances to zero.
//
// Zero loss: every task the client was told is admitted really entered the
// engine. Zero duplication: no retry re-admitted work whose response was
// lost. CHAOS_SOAK=1 (nightly CI) lengthens the run.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"hdcps/internal/chaos"
	"hdcps/internal/netchaos"
)

func soakStreams() int {
	if os.Getenv("CHAOS_SOAK") != "" {
		return 16
	}
	return 5
}

// netchaosMix is one soak scenario: connection-layer faults, optionally
// composed with engine-layer transport faults.
type netchaosMix struct {
	name   string
	net    netchaos.Config
	engine *chaos.Config
	// wantFault reads the counters that this mix must have actually fired —
	// a soak whose faults never trigger proves nothing.
	wantFault func(st *netchaos.Stats) int64
	// wantRetry requires the client to have actually retried: the mix is
	// aggressive enough that sailing through untouched means the fault layer
	// is not reaching in-flight requests.
	wantRetry bool
}

func TestNetchaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("netchaos soak skipped in -short")
	}
	mixes := []netchaosMix{
		{
			name: "rst",
			net:  netchaos.Config{Seed: 101, RST: 0.15},
			wantFault: func(st *netchaos.Stats) int64 {
				return st.Resets.Load()
			},
			wantRetry: true,
		},
		{
			name: "stall",
			net:  netchaos.Config{Seed: 103, Stall: 0.05, StallDur: 50 * time.Millisecond},
			wantFault: func(st *netchaos.Stats) int64 {
				return st.Stalls.Load()
			},
		},
		{
			name: "shortwrite",
			net:  netchaos.Config{Seed: 107, ShortRead: 0.2, PartialWrite: 0.04},
			wantFault: func(st *netchaos.Stats) int64 {
				return st.ShortReads.Load() + st.PartialWrites.Load()
			},
		},
		{
			name: "latency-throttle",
			net:  netchaos.Config{Seed: 109, Latency: 0.2, LatencyDur: 2 * time.Millisecond, Throttle: 256 << 10},
			wantFault: func(st *netchaos.Stats) int64 {
				return st.Latencies.Load()
			},
		},
		{
			name: "combined+engine",
			net:  netchaos.Config{Seed: 113, RST: 0.03, ShortRead: 0.1, Latency: 0.05, LatencyDur: time.Millisecond, Stall: 0.01, StallDur: 20 * time.Millisecond},
			engine: &chaos.Config{
				Seed: 127, Delay: 0.05, Duplicate: 0.02, Reorder: 0.10, RingFull: 0.05, Stall: 0.01,
			},
			wantFault: func(st *netchaos.Stats) int64 {
				return st.Resets.Load() + st.ShortReads.Load() + st.Latencies.Load() + st.Stalls.Load()
			},
		},
	}
	for _, mix := range mixes {
		mix := mix
		t.Run(mix.name, func(t *testing.T) { runNetchaosMix(t, mix) })
	}
}

func runNetchaosMix(t *testing.T, mix netchaosMix) {
	const (
		goroutines = 3
		// 32 flushes per stream, and a body (~115KB) bigger than the
		// server's 64KB scan buffer: faults land between flushes, so retries
		// exercise the partial-admission resume path, not just full replays.
		tasksPerStream = 8192
	)
	streams := soakStreams()

	s, err := New(Config{
		Workload: "sssp", Input: "road", Scale: "tiny", Seed: 42,
		Workers: 2, SeedInitial: false,
		SubmitStallTimeout: 2 * time.Second,
		Chaos:              mix.engine,
	})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := netchaos.Wrap(inner, mix.net)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(lis) }()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl := &Client{
		Base: "http://" + inner.Addr().String(),
		HC:   &http.Client{Timeout: 10 * time.Second},
	}
	if err := cl.WaitReady(ctx, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	pol := RetryPolicy{
		MaxAttempts:    30,
		BaseBackoff:    2 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Budget:         60 * time.Second,
		RequestTimeout: 5 * time.Second,
		Seed:           mix.net.Seed,
	}
	var st RetryStats

	// Deterministic per-goroutine task streams; no shared generator state.
	nodes := s.g.NumNodes()
	gen := func(g, round, i int) TaskSpec {
		h := uint64(g)*0x9e3779b97f4a7c15 + uint64(round)*0xc2b2ae3d27d4eb4f + uint64(i)*0x165667b19e3779f9
		return TaskSpec{Node: uint32(h % uint64(nodes))}
	}

	var wg sync.WaitGroup
	var confirmed int64
	var mu sync.Mutex
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 0 {
				// One goroutine holds a single long-lived stream open across
				// every round (pooled pre-encoded line buffers, per-flush
				// acks), reconnected and resumed through the exactly-once
				// protocol when the fault layer kills it.
				const batch = 512
				ps := cl.PersistentStream(0, pol, &st)
				defer ps.Close()
				for round := 0; round < streams; round++ {
					for off := 0; off < tasksPerStream; off += batch {
						specs := make([]TaskSpec, batch)
						for i := range specs {
							specs[i] = gen(g, round, off+i)
						}
						admitted, err := ps.Submit(ctx, specs)
						mu.Lock()
						confirmed += admitted
						mu.Unlock()
						if err != nil {
							errCh <- fmt.Errorf("goroutine %d persistent stream round %d off %d: %w", g, round, off, err)
							return
						}
					}
				}
				if err := ps.Close(); err != nil {
					errCh <- fmt.Errorf("goroutine %d persistent stream close: %w", g, err)
				}
				return
			}
			// The others submit one-shot: a fresh stream per round carrying the
			// whole round as one batch, so many short stream ids hit the
			// server's tracker and a fault lands inside a batch — the resume
			// must slice it at the confirmed line. Their confirmations enter
			// the same three-way ledger proof.
			for round := 0; round < streams; round++ {
				specs := make([]TaskSpec, tasksPerStream)
				for i := range specs {
					specs[i] = gen(g, round, i)
				}
				ps := cl.PersistentStream(0, pol, &st)
				admitted, err := ps.Submit(ctx, specs)
				if cerr := ps.Close(); err == nil {
					err = cerr
				}
				mu.Lock()
				confirmed += admitted
				mu.Unlock()
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d stream %d: %w", g, round, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		// A stream failure under a bounded fault mix means the retry loop or
		// the resume protocol broke — the policy is generous enough that
		// probabilistic faults cannot exhaust it.
		t.Fatal(err)
	}

	total := int64(goroutines * streams * tasksPerStream)
	if confirmed != total {
		t.Fatalf("client confirmed %d admissions, want %d", confirmed, total)
	}
	if got := mix.wantFault(lis.Stats()); got == 0 {
		t.Fatalf("mix %+v injected no faults (%s) — the soak proved nothing", mix.net, lis.Stats())
	}
	if mix.wantRetry && st.Retries.Load() == 0 {
		t.Fatalf("mix %s never forced a retry (%s) — the resume path went unexercised", mix.name, st.String())
	}
	if mix.wantRetry && s.resil.resumes.Load() == 0 {
		t.Fatalf("mix %s never resumed a partially-admitted stream server-side — exactly-once went untested", mix.name)
	}

	// Shutdown runs the full proof: HTTP quiesced, engine drained, the
	// conservation ledger balanced, and Submitted == accepted (+ chaos
	// duplicates). On top of that: the server admitted exactly what the
	// client believes — exactly-once across every fault.
	rep, err := s.Shutdown(ctx)
	if err != nil {
		t.Fatalf("shutdown under %s faults: %v\nclient: %s\nnet: %s", mix.name, err, st.String(), lis.Stats())
	}
	if !rep.LedgerExact {
		t.Fatalf("ledger not exact: %+v", rep)
	}
	if rep.Accepted != total {
		t.Fatalf("server accepted %d, client confirmed %d — exactly-once violated", rep.Accepted, total)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if mix.engine != nil && s.ChaosStats() == nil {
		t.Fatal("engine chaos configured but no fault hook attached")
	}
	t.Logf("mix %-16s client[%s] net[%s] server[resumes %d aborts %d shed %d deadline %d] accepted %d",
		mix.name, st.String(), lis.Stats(),
		s.resil.resumes.Load(), s.resil.connAborts.Load(), s.resil.shed.Load(), s.resil.deadlineHits.Load(),
		rep.Accepted)
}
