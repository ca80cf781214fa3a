// Web-graph ranking: residual PageRank on a power-law web graph using the
// native HD-CPS runtime, with priority order (largest residuals first)
// doing the heavy lifting — and a look at the adaptive TDF controller's
// trace while it balances drift against communication.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"hdcps"
)

func main() {
	g := hdcps.Web(20000, 9)
	fmt.Printf("web graph: %d pages, %d links\n", g.NumNodes(), g.NumEdges())

	w, err := hdcps.NewWorkload("pagerank", g)
	if err != nil {
		log.Fatal(err)
	}
	cfg := hdcps.DefaultNativeConfig(4)
	cfg.Drift = hdcps.DriftConfig{SampleInterval: 500} // more controller action to look at
	res, err := hdcps.RunNative(w, cfg)
	if err != nil {
		log.Fatalf("native run failed: %v", err)
	}
	if err := w.Verify(); err != nil {
		log.Fatalf("ranks failed verification: %v", err)
	}
	fmt.Printf("converged in %v, %d tasks, %d bags\n",
		time.Duration(res.CompletionTime), res.TasksProcessed, res.BagsCreated)

	// The workload interface is intentionally minimal; concrete types give
	// access to results. Rank() returns 2^30 fixed-point values.
	type pr interface{ Rank() []int64 }
	ranks := w.(pr).Rank()
	type page struct {
		id   int
		rank float64
	}
	pages := make([]page, len(ranks))
	for i, r := range ranks {
		pages[i] = page{i, float64(r) / (1 << 30)}
	}
	sort.Slice(pages, func(a, b int) bool { return pages[a].rank > pages[b].rank })
	fmt.Println("\ntop pages:")
	for _, p := range pages[:10] {
		fmt.Printf("  page %-6d rank %.4f\n", p.id, p.rank)
	}

	if len(res.TDFTrace) > 0 {
		fmt.Printf("\nTDF controller trace (first intervals): %v\n", head(res.TDFTrace, 12))
		fmt.Printf("drift trace:                            %v\n", headF(res.DriftTrace, 6))
	}
}

func head(xs []int, n int) []int {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

func headF(xs []float64, n int) []float64 {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}
