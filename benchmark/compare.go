package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Verdicts of -compare for one (workload, end-to-end metric) pairing.
const (
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func loadResults(list string) ([]resultDoc, error) {
	var docs []resultDoc
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var d resultDoc
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if d.Schema != resultSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, resultSchema)
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// valuesOf gathers one metric of one workload across the runs of a side.
func valuesOf(docs []resultDoc, workload, metric string, perLayer bool) []float64 {
	var xs []float64
	for _, d := range docs {
		for _, w := range d.Workloads {
			if w.Name != workload {
				continue
			}
			m := w.EndToEnd.Metrics
			if perLayer {
				m = w.PerLayer.Metrics
			}
			if v, ok := m[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// judge compares the medians of side a (the parent) and side b (the change)
// of one metric: worse when b's median is worse than a's by more than the
// bound; unresolved when either side's own spread is wider than the bound,
// unless every run of b reads better than every run of a; within otherwise.
// worsening is b's loss as a share of a's median, negative for a gain.
func judge(a, b []float64, better string, bound float64) (verdict string, worsening float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worsening = (mb - ma) / ma
	}
	allBetter := func() bool {
		sa, sb := sorted(a), sorted(b)
		return sb[len(sb)-1] < sa[0]
	}
	if better == "higher" {
		worsening = -worsening
		allBetter = func() bool {
			sa, sb := sorted(a), sorted(b)
			return sb[0] > sa[len(sa)-1]
		}
	}
	switch {
	case max(spread(a), spread(b)) > bound && !allBetter():
		return verdictUnresolved, worsening
	case worsening > bound:
		return verdictWorse, worsening
	}
	return verdictWithin, worsening
}

// runCompare prints one row per (workload, end-to-end metric) and checks
// that the simulator's exact counts did not move. It returns 1 when any row
// is worse or an exact count differs between runs of the same seed.
func runCompare(out io.Writer, listA, listB string) int {
	a, err := loadResults(listA)
	if err == nil {
		var b []resultDoc
		if b, err = loadResults(listB); err == nil {
			return compare(out, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

func compare(out io.Writer, a, b []resultDoc) int {
	code := 0
	fmt.Fprintf(out, "%-14s %-16s %14s %14s %9s %7s %8s  %s\n",
		"workload", "metric", "median A", "median B", "worse by", "bound", "spread", "verdict")
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			xa, xb := valuesOf(a, w, d.Name, false), valuesOf(b, w, d.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(out, "%-14s %-16s missing on one side\n", w, d.Name)
				code = 1
				continue
			}
			verdict, worsening := judge(xa, xb, d.Better, d.Bound)
			if verdict == verdictWorse {
				code = 1
			}
			fmt.Fprintf(out, "%-14s %-16s %14.6g %14.6g %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				w, d.Name, median(xa), median(xb), 100*worsening, 100*d.Bound, 100*max(spread(xa), spread(xb)), verdict)
		}
	}
	if a[0].Seed != b[0].Seed {
		fmt.Fprintf(out, "simulated cycles not compared: seeds differ (%d, %d)\n", a[0].Seed, b[0].Seed)
		return code
	}
	moved := 0
	for _, d := range perLayer {
		if !strings.HasPrefix(d.Name, "sched.") {
			continue
		}
		all := append(valuesOf(a, wSimSweep, d.Name, true), valuesOf(b, wSimSweep, d.Name, true)...)
		for _, v := range all {
			if v != all[0] {
				fmt.Fprintf(out, "%-14s %-40s DIFFERS: %v\n", wSimSweep, d.Name, all)
				moved++
				break
			}
		}
	}
	if moved > 0 {
		return 1
	}
	fmt.Fprintf(out, "%-14s every sched.* count is bit-identical across the runs\n", wSimSweep)
	return code
}
