// Command hdcps-serve is the long-lived network front-end over the native
// engine: an HTTP/JSON API for streaming task submission, per-job
// create/snapshot/drain/cancel, and an ops plane (expvar, pprof, the obs
// recorder) on the same port.
//
// Usage:
//
//	hdcps-serve -addr :8080 -workload sssp -input road -scale small -workers 4
//	hdcps-serve -addr 127.0.0.1:0 -addr-file /tmp/addr -queue multiqueue -quota 16384
//
// Endpoints:
//
//	GET  /healthz                  200 while the process lives (pure liveness)
//	GET  /readyz                   200 ready / 503 draining or overloaded
//	GET  /v1/info                  workload, input, node range, fleet shape
//	GET  /v1/snapshot              full engine snapshot (ledger, quality)
//	GET  /v1/jobs                  per-job ledger rows
//	POST /v1/jobs                  create a tenant {name, weight, max_outstanding}; an unknown key is a 400
//	GET  /v1/jobs/{id}             one job's ledger row
//	POST /v1/jobs/{id}/submit      NDJSON {"node","prio","data"} lines
//	POST /v1/jobs/{id}/drain       block until the job quiesces (?timeout=)
//	POST /v1/jobs/{id}/cancel      cancel the job, return its final ledger
//	GET  /debug/vars|pprof/|obs    ops plane
//
// Backpressure is explicit: per-job quota exhaustion answers 429, a global
// overload shed or draining server 503 — both with Retry-After — and a
// cancelled job 409. SIGTERM/SIGINT trigger the graceful drain: stop
// admitting, finish in-flight requests, drain the engine, and exit 0 only
// if the conservation ledger proves no accepted task was lost.
//
// Fault injection (soak tooling): -netchaos wraps the listener with the
// connection-level fault mix (latency, throttle, RST, short reads, partial
// writes, stalls — see internal/netchaos), and -chaos wraps the engine
// transport with the scheduler-level mix (see internal/chaos). Both print
// their fault counters on exit, and the ledger proof must still pass.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hdcps/internal/chaos"
	"hdcps/internal/netchaos"
	"hdcps/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		wl       = flag.String("workload", "sssp", "workload name (sssp, astar, bfs, mst, color, pagerank)")
		input    = flag.String("input", "road", "builtin input graph: road, cage, web, lj, grid")
		scale    = flag.String("scale", "small", "input scale: tiny, small, large")
		seed     = flag.Uint64("seed", 42, "deterministic seed")
		workers  = flag.Int("workers", 4, "engine worker goroutines")
		queue    = flag.String("queue", "", "local-queue kind (default twolevel; see hdcps-run -list)")
		quota    = flag.Int64("quota", 1<<16, "job-0 admission quota (outstanding tasks before 429); 0 = unlimited")
		maxOut   = flag.Int64("max-outstanding", 1<<20, "global outstanding limit before 503 shed; <0 disables")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown engine drain budget")
		obsOn    = flag.Bool("obs", true, "attach the observability recorder (/debug/obs serves the engine's trace)")
		seedInit = flag.Bool("seed-initial", true, "submit the workload's initial tasks at startup")
		stallT   = flag.Duration("submit-stall", 0, "slow-client stall guard for submit bodies (0 = 15s default, <0 disables)")
		ncSpec   = flag.String("netchaos", "", "connection-fault mix, e.g. seed=7,rst=0.02,shortread=0.1 or 'default' (empty disables)")
		ecSpec   = flag.String("chaos", "", "engine-transport fault mix, e.g. seed=7,delay=0.1,dup=0.02 or 'default' (empty disables)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "hdcps-serve: ", log.LstdFlags|log.Lmicroseconds)

	var engineChaos *chaos.Config
	if *ecSpec != "" {
		ccfg, err := chaos.ParseSpec(*ecSpec)
		if err != nil {
			logger.Fatal(err)
		}
		engineChaos = &ccfg
	}

	s, err := serve.New(serve.Config{
		Workload:           *wl,
		Input:              *input,
		Scale:              *scale,
		Seed:               *seed,
		Workers:            *workers,
		QueueKind:          *queue,
		MaxOutstanding:     *maxOut,
		DefaultQuota:       *quota,
		DrainTimeout:       *drainT,
		Obs:                *obsOn,
		SeedInitial:        *seedInit,
		SubmitStallTimeout: *stallT,
		Chaos:              engineChaos,
	})
	if err != nil {
		logger.Fatal(err)
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	var ncLis *netchaos.Listener
	if *ncSpec != "" {
		nccfg, err := netchaos.ParseSpec(*ncSpec)
		if err != nil {
			logger.Fatal(err)
		}
		ncLis = netchaos.Wrap(lis, nccfg)
		lis = ncLis
		logger.Printf("netchaos enabled: %s", nccfg.String())
	}
	bound := lis.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			logger.Fatal(err)
		}
	}
	logger.Printf("serving %s/%s (%s) on %s: %d workers, queue %q, quota %d",
		*wl, *input, *scale, bound, *workers, *queue, *quota)

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(lis) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case got := <-sig:
		logger.Printf("received %s, draining (budget %s)", got, *drainT)
	case err := <-serveErr:
		logger.Fatalf("http serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainT+30*time.Second)
	defer cancel()
	rep, err := s.Shutdown(ctx)
	snap := rep.Snapshot
	logger.Printf("ledger: accepted %d | submitted %d + spawned %d = processed %d + bagsRetired %d + quarantined %d + cancelled %d (outstanding %d)",
		rep.Accepted, snap.Submitted, snap.Spawned, snap.TasksProcessed,
		snap.BagsRetired, snap.Quarantined, snap.Cancelled, snap.Outstanding)
	if ncLis != nil {
		logger.Printf("netchaos: %s", ncLis.Stats())
	}
	if st := s.ChaosStats(); st != nil {
		logger.Printf("chaos: %s", st)
	}
	if err != nil {
		logger.Printf("graceful drain FAILED: %v", err)
		os.Exit(1)
	}
	if !rep.LedgerExact {
		logger.Print("graceful drain FAILED: ledger not exact")
		os.Exit(1)
	}
	if err := <-serveErr; err != nil {
		logger.Printf("http serve: %v", err)
		os.Exit(1)
	}
	fmt.Println("drain clean: no accepted task lost")
}
