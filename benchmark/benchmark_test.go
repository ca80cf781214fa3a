package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"hdcps/internal/runtime"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {99, 0.75}, {100, 0.90},
		{999, 0.90}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileAndSpread(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := quantile(sorted(xs), 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 = %g, want 9.1", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one sample = %g, want 0", got)
	}
}

func TestSelfTimeIsSpanMinusWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50}, // overlaps a: the overlap counts once
		{ID: 4, Parent: 1, Name: "c", StartNs: 60, EndNs: 70},
		{ID: 5, Parent: 2, Name: "a1", StartNs: 12, EndNs: 18}, // a grandchild leaves the root alone
		{ID: 6, Parent: 1, Name: "d", StartNs: 90, EndNs: 120}, // clipped to the parent's end
	}
	want := map[int64]int64{1: 100 - 40 - 10 - 10, 2: 14, 3: 30, 4: 10, 5: 6, 6: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byName := selfByName(spans)
	if got := byName["root"]; got != 40e-6 {
		t.Errorf("root self = %g ms, want 40e-6", got)
	}
}

func TestAddSeqMakesOneRootAndNamedChildren(t *testing.T) {
	r := newSpanRecorder()
	t0 := r.t0
	r.addSeq(7, "solve", []string{"x", "", "y"}, []time.Time{t0, t0.Add(1), t0.Add(3), t0.Add(6)})
	got := r.all()
	if len(got) != 3 || got[0].Name != "solve" || got[0].Parent != 0 || got[0].EndNs != 6 {
		t.Fatalf("spans = %+v", got)
	}
	for _, s := range got[1:] {
		if s.Parent != got[0].ID || s.Rep != 7 {
			t.Errorf("child %+v does not hang off the root with the shared rep", s)
		}
	}
	if got[2].Name != "y" || got[2].StartNs != 3 || got[2].EndNs != 6 {
		t.Errorf("second child = %+v", got[2])
	}
	var none *spanRecorder
	none.addSeq(1, "solve", []string{"x"}, []time.Time{t0, t0.Add(1)})
	if none.add(0, 0, "x", t0, t0) != 0 || none.all() != nil {
		t.Error("a nil recorder must record nothing")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogueNamesAreUniqueAndWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload name %q malformed or repeated", w)
		}
		seen[w] = true
		if runners[w] == nil {
			t.Errorf("workload %q has no runner", w)
		}
	}
	if n := len(workloadNames); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]{1,64}", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q malformed", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if len(d.On) == 0 {
			t.Errorf("%s: measured on no workload", d.Name)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if len(d.On) != len(workloadNames) {
			t.Errorf("%s: every workload must measure every end-to-end metric", d.Name)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s missing or malformed: %+v", d)
	}
}

func TestBenchmarkJSONDeclaresExactlyTheCatalogue(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command = %v", doc.Command)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, catalogue has %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s[%d] = %+v, catalogue says %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestQueueReplayCoversEveryRuntimeQueueKind(t *testing.T) {
	for _, kind := range runtime.QueueKinds() {
		mk := queueKinds[kind]
		if mk == nil {
			t.Errorf("no replay queue for runtime queue kind %q", kind)
			continue
		}
		if mk(1) == nil {
			t.Errorf("replay queue for %q is nil", kind)
		}
		if !nameRE.MatchString("pq.push_pop_ns." + kind) {
			t.Errorf("queue kind %q does not make a metric name", kind)
		}
	}
	if len(queueKinds) != len(runtime.QueueKinds()) {
		t.Errorf("replay has %d queue kinds, runtime %d", len(queueKinds), len(runtime.QueueKinds()))
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		bound  float64
		want   string
	}{
		{"same", base, "lower", 0.10, verdictWithin},
		{"slower past the bound", []float64{115, 116, 114, 115, 117}, "lower", 0.10, verdictWorse},
		{"slower inside the bound", []float64{105, 106, 104, 105, 107}, "lower", 0.10, verdictWithin},
		{"faster", []float64{50, 51, 49, 50, 52}, "lower", 0.10, verdictWithin},
		{"lower throughput", []float64{80, 81, 79, 80, 82}, "higher", 0.10, verdictWorse},
		{"higher throughput", []float64{130, 131, 129, 130, 132}, "higher", 0.10, verdictWithin},
		{"too noisy to tell", []float64{60, 140, 100, 90, 120}, "lower", 0.10, verdictUnresolved},
		{"noisy, but every run better than every parent run", []float64{40, 80, 60, 50, 70}, "lower", 0.10, verdictWithin},
	} {
		if got, _ := judge(base, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if _, w := judge([]float64{100}, []float64{80}, "higher", 0.1); math.Abs(w-0.2) > 1e-12 {
		t.Errorf("worsening of a throughput drop from 100 to 80 = %g, want 0.2", w)
	}
}

// TestSmokeEveryWorkloadEmitsEveryMetric runs both passes of every workload
// on tiny inputs for a fraction of a second and holds each to the contract:
// exit 0, the last line is the result object, its metrics are exactly the
// declared ones, no operation failed, nothing the workload measures is zero
// end to end, and the traced pass left its span file.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			dir := t.TempDir()
			e := &env{workload: w, seed: 7, seconds: 0.3, trace: trace, smoke: true, outDir: dir, out: &out}
			if code := runOne(e); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", w, trace, code, out.String())
			}
			var last string
			for sc := bufio.NewScanner(&out); sc.Scan(); {
				last = sc.Text()
			}
			var res runResult
			dec := json.NewDecoder(strings.NewReader(last))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%v: last line %q: %v", w, trace, last, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s unit %q, declared %q", w, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w, trace, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w, d.Name, m.Value)
				case trace && !d.on(w) && m.Value != 0:
					t.Errorf("%s: %s = %v from a layer the workload does not enter", w, d.Name, m.Value)
				}
			}
			if !trace {
				continue
			}
			f, err := os.ReadFile(filepath.Join(dir, w+".trace.jsonl"))
			if err != nil {
				t.Fatalf("%s: span file: %v", w, err)
			}
			roots := 0
			for _, line := range bytes.Split(bytes.TrimSpace(f), []byte("\n")) {
				var s span
				if err := json.Unmarshal(line, &s); err != nil {
					t.Fatalf("%s: span line %q: %v", w, line, err)
				}
				if s.EndNs < s.StartNs || s.Name == "" {
					t.Errorf("%s: malformed span %+v", w, s)
				}
				if s.Parent == 0 && s.Rep != 0 {
					roots++
				}
			}
			if roots == 0 {
				t.Errorf("%s: no per-request root span in the trace", w)
			}
		}
	}
}
