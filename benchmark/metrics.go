package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Workload names, in the order the full run executes them.
const (
	wSSSPRoad     = "sssp-road"
	wPageRankWeb  = "pagerank-web"
	wTenantsMixed = "tenants-mixed"
	wServeIngest  = "serve-ingest"
	wSimSweep     = "sim-sweep"
)

// nominalTasks is the oracle task count operation times are scaled to, per
// workload whose input's size varies with the seed: about the mean over
// seeds, so that the scaled times read like real ones.
var nominalTasks = map[string]int64{wSSSPRoad: 80_000, wPageRankWeb: 1_150_000, wTenantsMixed: 265_000}

var workloadNames = []string{wSSSPRoad, wPageRankWeb, wTenantsMixed, wServeIngest, wSimSweep}

var (
	onAll    = workloadNames
	onSolve  = []string{wSSSPRoad, wPageRankWeb, wTenantsMixed}
	onSingle = []string{wSSSPRoad, wPageRankWeb}
	onTenant = []string{wTenantsMixed}
	onServe  = []string{wServeIngest}
	onSim    = []string{wSimSweep}
	onNative = []string{wSSSPRoad, wPageRankWeb, wTenantsMixed, wServeIngest}
	onGraphs = []string{wSSSPRoad, wPageRankWeb, wTenantsMixed, wSimSweep}
)

// metricDef declares one metric. On lists the workloads that measure it; a
// run of any other workload reports it as 0, meaning the layer was not
// entered. Bound is set on end-to-end metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	On     []string
}

func (d metricDef) on(workload string) bool {
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd is what a user of the stack sees. Every workload measures every
// one of them; README.md says what the operation ("op") of each workload is.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, On: onAll},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, On: onAll},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25, On: onAll},
	{Name: "tasks_per_s", Unit: "tasks/s", Better: "higher", Bound: 0.25, On: onAll},
	{Name: "work_efficiency", Unit: "ratio", Better: "higher", Bound: 0.25, On: onAll},
	{Name: "cpu_us_per_task", Unit: "us", Better: "lower", Bound: 0.25, On: onAll},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, On: onAll},
}

var simSchedulers = []string{"reld", "obim", "pmod", "hdcps-sw", "hdcps-hw", "swarm"}
var simPairs = []string{"sssp-road", "pagerank-web"}

// perLayer is the ledger: one row per layer number, prefix = package.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		{Name: "graph.build_ms", Unit: "ms", Better: "lower", On: onGraphs},

		{Name: "workload.seq_tasks", Unit: "count", Better: "lower", On: onGraphs},
		{Name: "workload.seq_ms", Unit: "ms", Better: "lower", On: onGraphs},
		{Name: "workload.process_ns_per_task", Unit: "ns", Better: "lower", On: onSolve},
		{Name: "workload.edges_per_task", Unit: "count", Better: "lower", On: onSolve},

		{Name: "pq.push_pop_ns.twolevel", Unit: "ns", Better: "lower", On: onSolve},
		{Name: "pq.push_pop_ns.dheap", Unit: "ns", Better: "lower", On: onSolve},
		{Name: "pq.push_pop_ns.heap", Unit: "ns", Better: "lower", On: onSolve},
		{Name: "pq.push_pop_ns.multiqueue", Unit: "ns", Better: "lower", On: onSolve},
		{Name: "pq.allocs_per_task", Unit: "count", Better: "lower", On: onSolve},
		{Name: "pq.max_len", Unit: "count", Better: "lower", On: onSolve},

		{Name: "rq.push_drain_ns", Unit: "ns", Better: "lower", On: onSolve},
		{Name: "rq.push_drain_ns_contended", Unit: "ns", Better: "lower", On: onSolve},
		{Name: "rq.push_fail_share", Unit: "ratio", Better: "lower", On: onSolve},

		{Name: "bag.partition_ns_per_child", Unit: "ns", Better: "lower", On: onSolve},
		{Name: "bag.bagged_share", Unit: "ratio", Better: "higher", On: onSolve},
		{Name: "bag.mean_size", Unit: "count", Better: "higher", On: onSolve},

		{Name: "drift.update_ns", Unit: "ns", Better: "lower", On: onSolve},
		{Name: "drift.intervals", Unit: "count", Better: "lower", On: onSolve},
		{Name: "drift.tdf_mean", Unit: "%", Better: "lower", On: onSolve},
		{Name: "drift.mean", Unit: "prio", Better: "lower", On: onSolve},

		{Name: "runtime.new_engine_ms", Unit: "ms", Better: "lower", On: onSolve},
		{Name: "runtime.submit_ns_per_task", Unit: "ns", Better: "lower", On: onSolve},
		{Name: "runtime.start_ms", Unit: "ms", Better: "lower", On: onSolve},
		{Name: "runtime.drain_ms", Unit: "ms", Better: "lower", On: onSolve},
		{Name: "runtime.stop_ms", Unit: "ms", Better: "lower", On: onSolve},
		{Name: "runtime.tasks_per_solve", Unit: "count", Better: "lower", On: onSolve},
		{Name: "runtime.tasks_per_s", Unit: "tasks/s", Better: "higher", On: onSolve},
		{Name: "runtime.work_efficiency", Unit: "ratio", Better: "higher", On: onSolve},
		{Name: "runtime.worker_ns_per_task", Unit: "ns", Better: "lower", On: onSolve},
		{Name: "runtime.cpu_ms_per_solve", Unit: "ms", Better: "lower", On: onSolve},
		{Name: "runtime.allocs_per_task", Unit: "count", Better: "lower", On: onSolve},
		{Name: "runtime.bags_per_ktask", Unit: "1/ktask", Better: "higher", On: onSolve},
		{Name: "runtime.spills_per_ktask", Unit: "1/ktask", Better: "lower", On: onSolve},
		{Name: "runtime.redirects_per_ktask", Unit: "1/ktask", Better: "lower", On: onSolve},
		{Name: "runtime.hot_spills_per_ktask", Unit: "1/ktask", Better: "lower", On: onSolve},
		{Name: "runtime.queue_fallbacks", Unit: "count", Better: "lower", On: onSolve},
		{Name: "runtime.idle_parks_per_solve", Unit: "count", Better: "lower", On: onSolve},
		{Name: "runtime.solve_ms_1w", Unit: "ms", Better: "lower", On: onSingle},
		{Name: "runtime.speedup_vs_1w", Unit: "ratio", Better: "higher", On: onSingle},
		{Name: "runtime.rank_err_mean", Unit: "count", Better: "lower", On: onSolve},
		{Name: "runtime.inversions_per_ksample", Unit: "1/ksample", Better: "lower", On: onSolve},
		{Name: "runtime.share_err_pp", Unit: "pp", Better: "lower", On: onTenant},
		{Name: "runtime.share_window_missed", Unit: "count", Better: "lower", On: onTenant},
		{Name: "runtime.job_done_ms.w4", Unit: "ms", Better: "lower", On: onTenant},
		{Name: "runtime.job_done_ms.w2", Unit: "ms", Better: "lower", On: onTenant},
		{Name: "runtime.job_done_ms.w1", Unit: "ms", Better: "lower", On: onTenant},
		{Name: "runtime.submit_stream_tasks_per_s", Unit: "tasks/s", Better: "higher", On: onServe},
		{Name: "runtime.backlog_p99_tasks", Unit: "count", Better: "lower", On: onServe},
		{Name: "runtime.drain_after_ms", Unit: "ms", Better: "lower", On: onServe},
		{Name: "runtime.unattributed_share", Unit: "ratio", Better: "lower", On: onSolve},

		{Name: "obs.overhead_pct", Unit: "%", Better: "lower", On: onNative},
		{Name: "obs.events_recorded", Unit: "count", Better: "lower", On: onNative},

		{Name: "serve.boot_ms", Unit: "ms", Better: "lower", On: onServe},
		{Name: "serve.shutdown_ms", Unit: "ms", Better: "lower", On: onServe},
		{Name: "serve.parse_ns_per_line", Unit: "ns", Better: "lower", On: onServe},
		{Name: "serve.parse_allocs_per_line", Unit: "count", Better: "lower", On: onServe},
		{Name: "serve.encode_ns_per_line", Unit: "ns", Better: "lower", On: onServe},
		{Name: "serve.encode_allocs_per_line", Unit: "count", Better: "lower", On: onServe},
		{Name: "serve.wire_share", Unit: "ratio", Better: "lower", On: onServe},
		{Name: "serve.ack_ms_p99", Unit: "ms", Better: "lower", On: onServe},
		{Name: "serve.ack_ms_p999", Unit: "ms", Better: "lower", On: onServe},
		{Name: "serve.limit_met", Unit: "bool", Better: "higher", On: onServe},
		{Name: "serve.shed_share", Unit: "ratio", Better: "lower", On: onServe},
		{Name: "serve.rejected_share", Unit: "ratio", Better: "lower", On: onServe},
		{Name: "serve.retries", Unit: "count", Better: "lower", On: onServe},
		{Name: "serve.resumes", Unit: "count", Better: "lower", On: onServe},

		{Name: "load.offered_tasks_per_s", Unit: "tasks/s", Better: "higher", On: onServe},
		{Name: "load.gen_lag_max_ms", Unit: "ms", Better: "lower", On: onServe},
		{Name: "load.gen_slipped", Unit: "count", Better: "lower", On: onServe},
	}
	for _, s := range simSchedulers {
		for _, p := range simPairs {
			d = append(d, metricDef{Name: "sched.cycles." + s + "." + p, Unit: "cycles", Better: "lower", On: onSim})
		}
	}
	for _, s := range []string{"hdcps-sw", "hdcps-hw"} {
		for _, p := range simPairs {
			d = append(d, metricDef{Name: "sched.work_eff." + s + "." + p, Unit: "ratio", Better: "higher", On: onSim})
		}
	}
	return append(d,
		metricDef{Name: "sched.cycles_hdcps_geomean", Unit: "cycles", Better: "lower", On: onSim},

		metricDef{Name: "sim.host_ns_per_task", Unit: "ns", Better: "lower", On: onSim},
		metricDef{Name: "sim.allocs_per_task", Unit: "count", Better: "lower", On: onSim},
		metricDef{Name: "sim.enqueue_share", Unit: "ratio", Better: "lower", On: onSim},
		metricDef{Name: "sim.dequeue_share", Unit: "ratio", Better: "lower", On: onSim},
		metricDef{Name: "sim.compute_share", Unit: "ratio", Better: "higher", On: onSim},
		metricDef{Name: "sim.comm_share", Unit: "ratio", Better: "lower", On: onSim},
		metricDef{Name: "sim.messages_per_task", Unit: "count", Better: "lower", On: onSim},
		metricDef{Name: "sim.l1_hit_share", Unit: "ratio", Better: "higher", On: onSim},

		metricDef{Name: "host.calib_ms", Unit: "ms", Better: "lower", On: onAll},
		metricDef{Name: "host.unsteady", Unit: "bool", Better: "lower", On: onAll},
	)
}

// metricValue is one reported number, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a single-workload run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// values collects a run's measurements by metric name.
type values map[string]float64

// report checks vals against defs for one workload — every metric the
// workload measures must be set, nothing undeclared may be set — prints one
// "name value unit" line per metric and returns them in the driver's shape.
func report(out io.Writer, workload string, defs []metricDef, vals values) (map[string]metricValue, error) {
	declared := make(map[string]bool, len(defs))
	res := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		declared[d.Name] = true
		v, set := vals[d.Name]
		switch {
		case d.on(workload) && !set:
			return nil, fmt.Errorf("%s: metric %s was not measured", workload, d.Name)
		case !d.on(workload) && set:
			return nil, fmt.Errorf("%s: metric %s is not declared for this workload", workload, d.Name)
		case !set:
			fmt.Fprintf(out, "%-40s %16s %-9s (layer not entered by %s)\n", d.Name, "0", d.Unit, workload)
		default:
			fmt.Fprintf(out, "%-40s %16.6g %-9s\n", d.Name, v, d.Unit)
		}
		res[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var stray []string
	for name := range vals {
		if !declared[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("%s: undeclared metrics %v", workload, stray)
	}
	return res, nil
}

// printResult writes the driver's last line.
func printResult(out io.Writer, r runResult) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
