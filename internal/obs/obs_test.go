package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// The counters lines are the rows WriteJSONL is handed, whatever the
// recorder's size: one per worker in order, then the external row, whose line
// says worker External, each slot by its counter name. The recorder keeps no
// count of its own.
func TestCountersAddStoreTotal(t *testing.T) {
	r := New(Config{Workers: 1})
	rows := []*Row{new(Row), new(Row), new(Row), new(Row)} // 3 workers + external
	rows[0][CBagsCreated].Add(2)
	rows[1][CBagsCreated].Add(3)
	rows[2][CEdgesExamined].Store(41)
	rows[2][CEdgesExamined].Store(42) // the owner's row: stores are absolute
	rows[3][CServeShed].Add(7)

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, rows); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.Workers != 3 || len(tr.Counters) != 4 {
		t.Fatalf("meta says %d workers, %d counters lines; want 3 and 4", tr.Meta.Workers, len(tr.Counters))
	}
	var bags int64
	for i, line := range tr.Counters {
		want := int64(i)
		if i == 3 {
			want = External
		}
		if line["worker"] != want {
			t.Errorf("counters line %d says worker %d, want %d", i, line["worker"], want)
		}
		bags += line["bags_created"]
	}
	if bags != 5 || tr.Counters[2]["edges_examined"] != 42 || tr.Counters[3]["serve_shed"] != 7 {
		t.Errorf("counters lines did not carry the rows: %v", tr.Counters)
	}
}

// Out-of-range worker indices never panic: their events fold into the
// external ring.
func TestOutOfRangeWorkerFolds(t *testing.T) {
	r := New(Config{Workers: 2})
	for _, w := range []int{2, 99, -5, External} {
		r.Event(w, EvPark, 0, 0, 0)
	}
	if evs := r.Events(); len(evs) != 4 || evs[1].Worker != 99 {
		t.Errorf("events = %+v, want the four park events, worker 99's second", evs)
	}
	if got := r.rings[2].next; got != 4 {
		t.Errorf("external ring holds %d events, want all 4", got)
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
// does: a task event, carrying the edge total, on the boundaries SampleMask
// names.
func processTasks(r *Recorder, n int64) {
	for i := int64(1); i <= n; i++ {
		if m := r.SampleMask(); m >= 0 && i&m == 0 {
			r.Event(0, EvTask, 100-i, i, i*3)
		}
	}
}

func TestTaskProcessedSampling(t *testing.T) {
	r := New(Config{Workers: 1, SampleEvery: 4})
	processTasks(r, 64)
	evs := r.Events()
	if len(evs) != 16 { // every 4th of 64
		t.Fatalf("sampled %d task events, want 16", len(evs))
	}
	if last := evs[15]; last.B != 64 || last.C != 192 {
		t.Errorf("last task event: processed %d, edges %d; want 64 and 192", last.B, last.C)
	}
	// Negative SampleEvery disables task events.
	r2 := New(Config{Workers: 1, SampleEvery: -1})
	processTasks(r2, 64)
	if got := len(r2.Events()); got != 0 {
		t.Errorf("disabled sampling still recorded %d events", got)
	}
}

func TestSampleEveryRoundsToPow2(t *testing.T) {
	r := New(Config{Workers: 1, SampleEvery: 100})
	if r.cfg.SampleEvery != 128 {
		t.Errorf("SampleEvery 100 rounded to %d, want 128", r.cfg.SampleEvery)
	}
}

// Concurrent writers across rings must be race-clean (run under -race in the
// race tier).
func TestConcurrentWriters(t *testing.T) {
	r := New(Config{Workers: 4, RingSize: 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 500; i++ {
				r.Event(w%4, EvBagCreated, i, 2, 0)
				if i%50 == 0 {
					_ = r.Events()
					_ = r.EventCount()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.EventCount(); got != 8*500 {
		t.Errorf("EventCount = %d, want %d", got, 8*500)
	}
}

func TestWriteJSONL(t *testing.T) {
	r := New(Config{Workers: 2, SampleEvery: 1})
	rows := []*Row{new(Row), new(Row), new(Row)}
	r.Event(0, EvTask, 9, 1, 4)
	rows[1][COverflowSpills].Add(1)
	r.Event(1, EvSpill, 3, 0, 0)
	r.Event(0, EvTDFStep, 60, int64(floatBits(12.5)), 7)

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, rows); err != nil {
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
	// The v5 counter set: tasks_stolen, units_kept_off_block, tasks_bagged
	// and units_kept_local are in, the retired slots are out.
	for _, in := range []string{`"tasks_stolen":0`, `"units_kept_off_block":0`, `"tasks_bagged":0`, `"units_kept_local":0`} {
		if !strings.Contains(lines[1], in) {
			t.Errorf("counters line lacks %s: %s", in, lines[1])
		}
	}
	// v7 drops the ledger terms the job lines carry.
	for _, gone := range []string{"task_panics", "task_retries", "hot_spills",
		"tasks_processed", "tasks_submitted", "tasks_spawned", "bags_retired",
		"tasks_quarantined", "tasks_cancelled", "quota_rejects"} {
		if strings.Contains(buf.String(), gone) {
			t.Errorf("retired counter %s still exported", gone)
		}
	}
}

// The job and control appendices come from one writer, WriteLines, which
// tags each row's own JSON fields with its line type: the control bytes are
// pinned here (the job line's are runtime.JobStats', pinned in
// internal/runtime's TestEngineWriteTrace).
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
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
