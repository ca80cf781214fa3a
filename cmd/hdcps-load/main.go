// Command hdcps-load is the open-loop traffic driver for hdcps-serve: it
// offers refresh tasks on a Poisson arrival schedule regardless of how fast
// the server absorbs them, and reports the latency quantiles plus the
// accept/backpressure/error accounting. Each batch's latency runs from its
// scheduled arrival, so the clock's own lag and the wait behind a busy
// stream count.
//
// There is one submit path: -streams persistent NDJSON streams held open for
// the run, one sender each, which is also the run's concurrency bound.
// Arrivals go to the streams in turn, and an arrival whose stream is already
// far behind is shed and counted. Batches are confirmed by the server's
// per-flush acks. Transport faults and 429/503/408 answers are retried with
// capped exponential backoff plus full jitter, honoring the server's
// Retry-After hints, and an interrupted stream resumes exactly-once via
// X-Stream-Id (no accepted task is ever re-admitted). A stream whose retry
// policy runs out is replaced on its next batch. Batches refused while the
// server kept answering 429/503/408 count as backpressure; a terminal answer,
// or running out of retries on transport errors, is a server error and the
// run exits nonzero. -retries 1 is the CI gate's stance: no second attempt,
// so saturation must surface as backpressure and never as a server failure.
//
// Usage:
//
//	hdcps-load -url http://127.0.0.1:8080 -rate 4000 -duration 5s
//	hdcps-load -url http://$(cat /tmp/addr) -rate 20000 -streams 8 -hist hist.json
//	hdcps-load -url http://$(cat /tmp/addr) -wait-ready 10s -retries 1 -rate 2000
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"hdcps/internal/load"
	"hdcps/internal/serve"
)

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "hdcps-serve base URL")
		jobID    = flag.Uint("job", 0, "target job ID")
		rate     = flag.Float64("rate", 4000, "offered task rate, tasks/second")
		duration = flag.Duration("duration", 5*time.Second, "how long to generate arrivals")
		batch    = flag.Int("batch", 16, "tasks per submit request")
		seed     = flag.Int64("seed", 1, "arrival-schedule seed")
		histOut  = flag.String("hist", "", "write the latency histogram JSON here")
		waitRdy  = flag.Duration("wait-ready", 0, "poll /readyz this long before driving load (0 skips the wait)")
		retries  = flag.Int("retries", 8, "max consecutive failed attempts before a stream gives up (1: never retry)")
		backoff  = flag.Duration("backoff", 25*time.Millisecond, "base backoff between retries (capped exponential, full jitter)")
		streams  = flag.Int("streams", 4, "persistent NDJSON streams held open, one sender each: the concurrency bound (>= 1)")
	)
	flag.Parse()
	if *streams < 1 {
		fatal(fmt.Errorf("-streams %d: want at least 1", *streams))
	}
	base := strings.TrimSuffix(*url, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	ctx := context.Background()
	cl := &serve.Client{Base: base, HC: &http.Client{Timeout: 30 * time.Second}}
	if *waitRdy > 0 {
		if err := cl.WaitReady(ctx, *waitRdy); err != nil {
			fatal(err)
		}
	}
	info, err := cl.Info(ctx)
	if err != nil {
		fatal(fmt.Errorf("fetching /v1/info: %w", err))
	}
	fmt.Printf("target: %s %s/%s (%d nodes), %d workers, queue %s\n",
		base, info.Workload, info.Input, info.Nodes, info.Workers, info.Queue)

	gen := serve.RefreshGen(info.Nodes, *seed)
	var retryStats serve.RetryStats
	pol := serve.RetryPolicy{
		MaxAttempts:    *retries,
		BaseBackoff:    *backoff,
		RequestTimeout: 10 * time.Second,
		Seed:           uint64(*seed),
	}
	senders, closer := cl.StreamSenders(ctx, uint32(*jobID), gen, *streams, pol, &retryStats)
	fmt.Printf("streams:  %d persistent\n", *streams)
	res := load.Run(ctx, senders, load.Options{Rate: *rate, Batch: *batch, Duration: *duration, Seed: *seed})
	// Every batch's outcome is already in res; Close only releases the
	// streams, and its error would repeat one of them.
	_ = closer.Close()

	sum := res.Hist.Summary()
	fmt.Printf("offered:  %d tasks (%.0f/s target %.0f/s, poisson arrivals, %s)\n",
		res.Offered, res.OfferedRate(), *rate, res.Window.Round(time.Millisecond))
	fmt.Printf("accepted: %d (%.0f/s)  rejected: %d  shed: %d  requests: %d\n",
		res.Accepted, res.AcceptedRate(), res.Rejected, res.Shed, res.Requests)
	fmt.Printf("latency:  p50 %.2fms  p90 %.2fms  p99 %.2fms  p99.9 %.2fms  max %.2fms\n",
		sum.P50Ms, sum.P90Ms, sum.P99Ms, sum.P999Ms, sum.MaxMs)
	fmt.Printf("outcomes: %d ok, %d backpressure, %d server-error batches\n",
		res.BatchesByOut[load.Accepted], res.BatchesByOut[load.Backpressure], res.BatchesByOut[load.ServerError])
	fmt.Printf("retrying: %s\n", retryStats.String())
	if res.GenSlipped > 0 || res.GeneratorBound {
		fmt.Printf("clock:    %d arrivals slipped, max lag %s%s\n",
			res.GenSlipped, res.GenLagMax.Round(time.Microsecond),
			map[bool]string{true: "  ** GENERATOR-BOUND: results measure the generator, not the server **", false: ""}[res.GeneratorBound])
	}

	if *histOut != "" {
		buf, err := json.MarshalIndent(res.Hist, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*histOut, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("histogram: %s\n", *histOut)
	}

	if n := res.BatchesByOut[load.ServerError]; n > 0 {
		fatal(fmt.Errorf("%d server errors (last: %v)", n, res.LastErr))
	}
	if res.Offered == 0 || res.Accepted == 0 {
		fatal(fmt.Errorf("no traffic landed (offered %d, accepted %d)", res.Offered, res.Accepted))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hdcps-load:", err)
	os.Exit(1)
}
