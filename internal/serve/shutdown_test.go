package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestGracefulShutdownUnderTraffic proves the tentpole invariant: a server
// torn down in the middle of live submit traffic loses no accepted task —
// every client-visible 200's tasks appear in the engine's quiescent ledger,
// and the chaos Checker's conservation equation balances exactly.
func TestGracefulShutdownUnderTraffic(t *testing.T) {
	s, err := New(Config{
		Workload: "sssp", Input: "road", Scale: "tiny", Seed: 7,
		Workers: 2, SeedInitial: true, DrainTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(lis) }()

	cl := &Client{Base: "http://" + lis.Addr().String(), HC: &http.Client{Timeout: 10 * time.Second}}
	ctx := context.Background()
	info, err := cl.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gen := RefreshGen(info.Nodes, 7)

	// Hammer submits from several goroutines, a stream each, while the
	// shutdown fires. One attempt per outage: the drain's in-band 503 (or the
	// closed listener behind it) ends the stream instead of being retried.
	var clientAccepted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps := cl.PersistentStream(0, RetryPolicy{MaxAttempts: 1}, nil)
			defer ps.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				acc, err := ps.Submit(ctx, gen(32))
				// Accepted work counts whatever the outcome: a shed stream
				// reports its admitted prefix, and those tasks are in the
				// engine.
				clientAccepted.Add(acc)
				if errors.Is(err, errTerminal) {
					// Anything but 200/429/503(/408) in-band while the server
					// drains: a submit error mapped to the wrong status.
					t.Errorf("unexpected submit outcome during shutdown: %v", err)
				}
				if err != nil {
					return // shed by the drain (ErrRetriesExhausted) or cut by the teardown: expected
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond) // let traffic land mid-flight

	sctx, cancel := context.WithTimeout(ctx, 90*time.Second)
	defer cancel()
	rep, err := s.Shutdown(sctx)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if !rep.LedgerExact {
		t.Fatalf("shutdown ledger not exact: %+v", rep)
	}
	if rep.Snapshot.Outstanding != 0 {
		t.Fatalf("post-shutdown outstanding %d", rep.Snapshot.Outstanding)
	}
	// The server-side accepted count must cover every task a client saw
	// admitted (the server may have admitted more: responses cut by the
	// HTTP teardown still submitted their flushes).
	if got := clientAccepted.Load() + 1; rep.Accepted < got { // +1 initial seed
		t.Fatalf("accepted-task loss: clients saw %d admitted, server ledger has %d", got, rep.Accepted)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestSigtermPathDrainsExactly exercises the exact signal flow hdcps-serve
// wires: SIGTERM → Shutdown → ledger-exact report.
func TestSigtermPathDrainsExactly(t *testing.T) {
	s, err := New(Config{
		Workload: "sssp", Input: "road", Scale: "tiny", Seed: 11,
		Workers: 2, SeedInitial: true, DrainTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Land some work through the HTTP handler so the drain has something
	// to prove.
	ts := httptest.NewServer(s.mux)
	defer ts.Close()
	cl := &Client{Base: ts.URL}
	gen := RefreshGen(s.g.NumNodes(), 11)
	ps := cl.PersistentStream(0, RetryPolicy{}, nil)
	for i := 0; i < 4; i++ {
		if n, err := ps.Submit(context.Background(), gen(64)); err != nil || n != 64 {
			t.Fatalf("seed submit: admitted %d err %v", n, err)
		}
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	defer signal.Stop(sig)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sig:
	case <-time.After(10 * time.Second):
		t.Fatal("SIGTERM never delivered")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := s.Shutdown(ctx)
	if err != nil {
		t.Fatalf("shutdown after SIGTERM: %v", err)
	}
	if !rep.LedgerExact || rep.Snapshot.Submitted != rep.Accepted {
		t.Fatalf("SIGTERM drain not ledger-exact: %+v", rep)
	}
}
