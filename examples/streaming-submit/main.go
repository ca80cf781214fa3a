// Streaming work into a running engine: where the one-shot hdcps.RunNative
// spins a fleet up and tears it down around a single task set, the Engine
// lifecycle (Start → Submit/Drain → Stop) keeps the workers, their heaps,
// and the drift controller alive across waves of work — the fleet parks
// when it quiesces and wakes when the next Submit lands.
//
// The demo streams residual PageRank: the per-node seed tasks arrive in
// waves (think: a crawl delivering pages in batches), each wave drained to
// quiescence before the next, with Snapshot showing the fleet mid-flight.
// The converged ranks are identical to a one-shot run — residual PageRank
// reaches the same fixpoint whatever order the residuals are injected in.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hdcps"
)

func main() {
	g := hdcps.Web(20000, 9)
	w, err := hdcps.NewWorkload("pagerank", g)
	if err != nil {
		log.Fatal(err)
	}

	e := hdcps.NewEngine(w, hdcps.DefaultNativeConfig(4))
	started := time.Now()
	if err := e.Start(); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	seeds := w.InitialTasks()
	const waves = 8
	chunk := (len(seeds) + waves - 1) / waves
	for start := 0; start < len(seeds); start += chunk {
		end := min(start+chunk, len(seeds))
		if err := e.Submit(seeds[start:end]...); err != nil {
			log.Fatal(err)
		}
		if err := e.Drain(ctx); err != nil {
			log.Fatal(err)
		}
		s := e.Snapshot()
		fmt.Printf("wave %d/%d: %6d tasks processed so far, %3d bags, TDF %d\n",
			s.Epoch, waves, s.TasksProcessed, s.BagsCreated, s.TDF)
	}

	elapsed := time.Since(started)
	if err := e.Stop(ctx); err != nil {
		log.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		log.Fatalf("ranks failed verification: %v", err)
	}

	// Once Stop has returned, every worker has published: the counters are
	// exact.
	final := e.Snapshot()
	fmt.Printf("\nconverged in %v: %d tasks, %d edges examined\n",
		elapsed, final.TasksProcessed, final.EdgesExamined)
	var parks int64
	for _, ws := range final.Workers {
		parks += ws.IdleParks
	}
	fmt.Printf("fleet parked %d times across %d waves — workers outlive the work\n",
		parks, waves)
}
