package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"
)

// BenchmarkSubmitIngest measures the ingest hot path at two depths:
//
//   - parse: the engine-free framer+parser+batch loop over a pre-built NDJSON
//     body — the pure per-line server cost, with allocs/line reported.
//   - loopback: full client→HTTP→handler→engine admission over a loopback
//     listener via the persistent-stream submitter, with lines/s reported.
//
// bench-smoke runs every variant; the allocs/line gate is
// TestIngestAllocsPerLine / TestEncodeAllocsPerLine in ingest_test.go.
func BenchmarkSubmitIngest(b *testing.B) {
	b.Run("parse", func(b *testing.B) {
		const lines = 4096
		body := IngestBenchBody(lines, 1<<20)
		// Warm the pools so steady state is measured, not pool growth.
		if _, err := IngestBenchLoop(body); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			n, err := IngestBenchLoop(body)
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
		b.StopTimer()
		if total != b.N*lines {
			b.Fatalf("parsed %d lines, want %d", total, b.N*lines)
		}
		b.ReportMetric(float64(b.N*lines)/b.Elapsed().Seconds(), "lines/s")
	})

	b.Run("encode", func(b *testing.B) {
		specs := make([]TaskSpec, 4096)
		for i := range specs {
			specs[i] = TaskSpec{Node: uint32(i * 2654435761), Prio: int64(i) - 2048, Data: uint64(i)}
		}
		EncodeBenchLoop(specs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			EncodeBenchLoop(specs)
		}
		b.ReportMetric(float64(b.N*len(specs))/b.Elapsed().Seconds(), "lines/s")
	})

	b.Run("loopback", func(b *testing.B) {
		srv, err := New(Config{
			Workload: "sssp", Input: "road", Scale: "tiny", Seed: 42,
			Workers: 2, MaxOutstanding: -1, DefaultQuota: 1 << 40,
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.mux)
		defer ts.Close()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if _, err := srv.Shutdown(ctx); err != nil {
				b.Errorf("shutdown: %v", err)
			}
		}()
		cl := &Client{Base: ts.URL}
		ps := cl.PersistentStream(0, RetryPolicy{
			MaxAttempts: 4, BaseBackoff: 2 * time.Millisecond, RequestTimeout: 10 * time.Second, Seed: 1,
		}, nil)
		const batch = 256
		specs := make([]TaskSpec, batch)
		for i := range specs {
			specs[i] = TaskSpec{Node: uint32(i * 31 % srv.g.NumNodes())}
		}
		ctx := context.Background()
		if _, err := ps.Submit(ctx, specs); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ps.Submit(ctx, specs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
		if err := ps.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// Guard the bench-body builder itself: it must round-trip through the real
// parser, or the parse benchmark would measure fallback paths.
func TestIngestBenchBodyParses(t *testing.T) {
	body := IngestBenchBody(100, 999)
	n, err := IngestBenchLoop(body)
	if err != nil || n != 100 {
		t.Fatalf("bench body: parsed %d err %v", n, err)
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		if _, ok := parseTaskSpecFast(line); !ok {
			t.Fatalf("line %d not on the fast path: %s", i+1, line)
		}
	}
	if _, err := IngestBenchLoop([]byte(fmt.Sprintf(`{"node":%d}`+"\n", uint64(1)<<40))); err == nil {
		t.Fatal("out-of-range node must error")
	}
}
