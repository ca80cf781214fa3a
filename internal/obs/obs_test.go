package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCountersAddStoreTotal(t *testing.T) {
	r := New(Config{Workers: 3})
	r.Row(0)[CBagsCreated].Add(2)
	r.Row(1)[CBagsCreated].Add(3)
	r.Row(2)[CTasksProcessed].Store(41)
	r.Row(2)[CTasksProcessed].Store(42) // the owner's row: stores are absolute
	r.Row(External)[CTasksSubmitted].Add(7)

	if got := r.Total(CBagsCreated); got != 5 {
		t.Errorf("Total(bags) = %d, want 5", got)
	}
	if got := r.Value(2, CTasksProcessed); got != 42 {
		t.Errorf("Value(2, processed) = %d, want 42", got)
	}
	if got := r.Total(CTasksSubmitted); got != 7 {
		t.Errorf("Total(submitted) = %d, want 7", got)
	}
	rows := r.Counters()
	if len(rows) != 4 { // 3 workers + external
		t.Fatalf("Counters() returned %d rows, want 4", len(rows))
	}
	if rows[3].Worker != External || rows[3].Values[CTasksSubmitted] != 7 {
		t.Errorf("external row = %+v", rows[3])
	}
}

// Out-of-range worker indices never panic: their events fold into the
// external row's ring, but Row lends them no counter row — two workers
// sharing one would Store over each other's totals — while External is the
// one row every caller shares.
func TestOutOfRangeWorkerFolds(t *testing.T) {
	r := New(Config{Workers: 2})
	for _, w := range []int{2, 99, -5} {
		if r.Row(w) != nil {
			t.Errorf("Row(%d) lent a counter row past the recorder's 2 workers", w)
		}
	}
	if r.Row(External) != r.Row(External) || r.Row(External) == r.Row(1) {
		t.Error("Row(External) is not the one shared external row")
	}
	r.Row(External)[CIdleParks].Add(1)
	r.Event(99, EvPark, 0, 0, 0)
	if got := r.Total(CIdleParks); got != 1 {
		t.Errorf("Total(parks) = %d, want 1", got)
	}
	if evs := r.Events(); len(evs) != 1 || evs[0].Worker != 99 {
		t.Errorf("events = %+v, want the one park event of worker 99", evs)
	}
}

func TestEventRingOverwritesOldest(t *testing.T) {
	r := New(Config{Workers: 1, RingSize: 8})
	for i := int64(0); i < 20; i++ {
		r.Event(0, EvSubmit, i, 0, 0)
	}
	if got := r.EventCount(); got != 20 {
		t.Errorf("EventCount = %d, want 20", got)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want ring size 8", len(evs))
	}
	// The ring keeps the newest entries: A values 12..19.
	for i, ev := range evs {
		if want := int64(12 + i); ev.A != want {
			t.Errorf("event %d: A = %d, want %d", i, ev.A, want)
		}
	}
}

func TestEventsMergedSorted(t *testing.T) {
	r := New(Config{Workers: 4})
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			r.Event(i, EvDriftReport, int64(j), 0, 0)
		}
	}
	evs := r.Events()
	if len(evs) != 20 {
		t.Fatalf("got %d events, want 20", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events out of order at %d: %d < %d", i, evs[i].TS, evs[i-1].TS)
		}
	}
}

// processTasks records n task retirements the way the engine's worker loop
// does: the processed total stored into the worker's own row every task, the
// edge total and a task event on the boundaries SampleMask names.
func processTasks(r *Recorder, n int64) {
	row := r.Row(0)
	for i := int64(1); i <= n; i++ {
		row[CTasksProcessed].Store(i)
		if m := r.SampleMask(); m >= 0 && i&m == 0 {
			row[CEdgesExamined].Store(i * 3)
			r.Event(0, EvTask, 100-i, i, i*3)
		}
	}
}

func TestTaskProcessedSampling(t *testing.T) {
	r := New(Config{Workers: 1, SampleEvery: 4})
	processTasks(r, 64)
	if got := r.Value(0, CTasksProcessed); got != 64 {
		t.Errorf("processed = %d, want 64 (Store semantics)", got)
	}
	if got := r.Value(0, CEdgesExamined); got != 192 {
		t.Errorf("edges = %d, want 192", got)
	}
	evs := r.Events()
	if len(evs) != 16 { // every 4th of 64
		t.Errorf("sampled %d task events, want 16", len(evs))
	}
	// Negative SampleEvery disables task events but keeps counters exact.
	r2 := New(Config{Workers: 1, SampleEvery: -1})
	processTasks(r2, 64)
	if got := len(r2.Events()); got != 0 {
		t.Errorf("disabled sampling still recorded %d events", got)
	}
	if got := r2.Value(0, CTasksProcessed); got != 64 {
		t.Errorf("disabled sampling lost counters: %d", got)
	}
}

func TestSampleEveryRoundsToPow2(t *testing.T) {
	r := New(Config{Workers: 1, SampleEvery: 100})
	if r.cfg.SampleEvery != 128 {
		t.Errorf("SampleEvery 100 rounded to %d, want 128", r.cfg.SampleEvery)
	}
}

// Concurrent writers across counters and rings must be race-clean (run
// under -race in the race tier).
func TestConcurrentWriters(t *testing.T) {
	r := New(Config{Workers: 4, RingSize: 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 500; i++ {
				r.Row(w % 4)[CBagsCreated].Add(1)
				r.Event(w%4, EvBagCreated, i, 2, 0)
				if i%50 == 0 {
					_ = r.Events()
					_ = r.Counters()
					_ = r.Total(CBagsCreated)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Total(CBagsCreated); got != 8*500 {
		t.Errorf("Total = %d, want %d", got, 8*500)
	}
}

func TestWriteJSONL(t *testing.T) {
	r := New(Config{Workers: 2, SampleEvery: 1})
	r.Event(0, EvTask, 9, 1, 4)
	r.Row(1)[COverflowSpills].Add(1)
	r.Event(1, EvSpill, 3, 0, 0)
	r.Event(0, EvTDFStep, 60, int64(floatBits(12.5)), 7)

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// 1 meta + 3 counter rows (2 workers + external) + 3 events.
	if len(lines) != 7 {
		t.Fatalf("got %d JSONL lines, want 7:\n%s", len(lines), buf.String())
	}
	var meta map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatalf("meta line: %v", err)
	}
	if meta["schema"] != TraceSchema || meta["type"] != "meta" {
		t.Errorf("meta = %v", meta)
	}
	for _, line := range lines[1:] {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
		if m["type"] != "counters" && m["type"] != "event" {
			t.Errorf("unexpected line type %v", m["type"])
		}
	}
	if !strings.Contains(buf.String(), `"kind":"tdf-step"`) {
		t.Error("tdf-step event missing from trace")
	}
	if !strings.Contains(buf.String(), `"drift":12.5`) {
		t.Error("tdf-step drift not decoded to float")
	}
	// The v5 counter set: tasks_stolen, tasks_bagged and units_kept_local
	// are in, the retired slots are out.
	for _, in := range []string{`"tasks_stolen":0`, `"tasks_bagged":0`, `"units_kept_local":0`} {
		if !strings.Contains(lines[1], in) {
			t.Errorf("counters line lacks %s: %s", in, lines[1])
		}
	}
	for _, gone := range []string{"task_panics", "task_retries", "hot_spills"} {
		if strings.Contains(buf.String(), gone) {
			t.Errorf("retired counter %s still exported", gone)
		}
	}
}

// The job and control appendices come from one writer, WriteLines, which
// tags each row's own JSON fields with its line type: the bytes are pinned
// here, the schema's wire shape for both line kinds.
func TestWriteControlJSONL(t *testing.T) {
	pts := []ControlPoint{{Interval: 0, Drift: 1.5, Ref: 10, TDF: 50}, {Interval: 1, Drift: 2.5, Ref: 11, TDF: 60}}
	var buf bytes.Buffer
	if err := WriteLines(&buf, "control", pts); err != nil {
		t.Fatal(err)
	}
	want := `{"type":"control","interval":0,"drift":1.5,"ref":10,"tdf":50}` + "\n" +
		`{"type":"control","interval":1,"drift":2.5,"ref":11,"tdf":60}` + "\n"
	if buf.String() != want {
		t.Errorf("control lines:\ngot  %s\nwant %s", buf.String(), want)
	}
	buf.Reset()
	if err := WriteLines(&buf, "job", []JobRow{{Job: 1, Name: "a", Weight: 2, Processed: 3}}); err != nil {
		t.Fatal(err)
	}
	want = `{"type":"job","job":1,"name":"a","weight":2,"cancelled":false,"outstanding":0,"submitted":0,` +
		`"spawned":0,"processed":3,"bags_retired":0,"quarantined":0,"cancelled_tasks":0,"quota_rejected":0,` +
		`"rank_samples":0,"prio_inversions":0,"rank_err_sum":0,"rank_err_max":0}` + "\n"
	if buf.String() != want {
		t.Errorf("job line:\ngot  %s\nwant %s", buf.String(), want)
	}
}

func TestHandler(t *testing.T) {
	r := New(Config{Workers: 1})
	r.Row(0)[CIdleParks].Store(3)
	r.Event(0, EvPark, 0, 0, 0)

	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/obs", nil))
	var snap map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	totals := snap["totals"].(map[string]any)
	if totals["idle_parks"] != float64(3) {
		t.Errorf("totals = %v", totals)
	}

	rr = httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/obs?trace=1", nil))
	if !strings.Contains(rr.Body.String(), `"type":"meta"`) {
		t.Error("?trace=1 did not stream JSONL")
	}
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
