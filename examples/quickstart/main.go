// Quickstart: run single-source shortest paths under the HD-CPS scheduler,
// both natively (goroutines, real time) and on the deterministic simulator
// (cycles, reproducible), and verify the result.
package main

import (
	"fmt"
	"log"
	"time"

	"hdcps"
)

func main() {
	// A 100x100 road-network-like graph (see cmd/graphgen for more).
	g := hdcps.Road(100, 100, 42)
	fmt.Printf("input: %s with %d nodes, %d edges\n", g.Name, g.NumNodes(), g.NumEdges())

	// 1. Native execution: the goroutine-based HD-CPS runtime.
	w, err := hdcps.NewWorkload("sssp", g)
	if err != nil {
		log.Fatal(err)
	}
	nat, err := hdcps.RunNative(w, hdcps.DefaultNativeConfig(4))
	if err != nil {
		log.Fatalf("native run failed: %v", err)
	}
	if err := w.Verify(); err != nil {
		log.Fatalf("native result wrong: %v", err)
	}
	fmt.Printf("native:    %v for %d tasks on 4 workers (verified)\n",
		time.Duration(nat.CompletionTime), nat.TasksProcessed)

	// 2. Simulated execution: the paper's 40-core software-mode machine.
	w2, err := hdcps.NewWorkload("sssp", g)
	if err != nil {
		log.Fatal(err)
	}
	s, err := hdcps.NewScheduler("hdcps-sw")
	if err != nil {
		log.Fatal(err)
	}
	run := hdcps.RunSim(s, w2, hdcps.SoftwareMachine(40), 42)
	if err := w2.Verify(); err != nil {
		log.Fatalf("simulated result wrong: %v", err)
	}
	run.SeqTasks = hdcps.SequentialTasks(w2)
	fmt.Printf("simulated: %d cycles on 40 cores, work efficiency %.2f, drift %.2f\n",
		run.CompletionTime, run.WorkEfficiency(), run.AvgDrift())
	fmt.Printf("breakdown: %s\n", run.Breakdown)
}
