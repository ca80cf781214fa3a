package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestReadTraceV2RoundTrip writes a full trace — counters, events, job
// ledger rows, control series — and reads it back, pinning the fields a
// post-processor depends on. A job row is any JSON object: the reader
// decodes it by the writer's names.
func TestReadTraceV2RoundTrip(t *testing.T) {
	r := New(Config{Workers: 2, SampleEvery: 1})
	rows := []*Row{new(Row), new(Row), new(Row)} // 2 workers + the external row
	r.Event(0, EvTask, 9, 1, 4)
	rows[0][CIdleParks].Store(3)
	rows[1][COverflowSpills].Add(1)
	r.Event(1, EvSpill, 3, 0, 0)

	type jobRow struct {
		Name      string `json:"name"`
		Cancelled bool   `json:"cancelled"`
		Processed int64  `json:"processed"`
	}
	jobs := []jobRow{{Name: "keeper", Processed: 95}, {Name: "victim", Cancelled: true, Processed: 4}}
	ctrl := []ControlPoint{{Interval: 0, Drift: 1.5, Ref: 10, TDF: 50}, {Interval: 1, Drift: 2.5, Ref: 11, TDF: 60}}

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if err := WriteLines(&buf, "job", jobs); err != nil {
		t.Fatal(err)
	}
	if err := WriteLines(&buf, "control", ctrl); err != nil {
		t.Fatal(err)
	}

	tr, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.Schema != TraceSchema {
		t.Errorf("schema %q, want %q", tr.Meta.Schema, TraceSchema)
	}
	if tr.Meta.Workers != 2 {
		t.Errorf("workers %d, want 2", tr.Meta.Workers)
	}
	if len(tr.Counters) != 3 { // 2 workers + the external row
		t.Fatalf("%d counter rows, want 3", len(tr.Counters))
	}
	if c := tr.Counters; c[0]["idle_parks"] != 3 || c[1]["worker"] != 1 || c[1]["overflow_spills"] != 1 {
		t.Errorf("counter rows did not round-trip: %v", c)
	}
	// The task sample is an event of its own.
	if len(tr.Events) != 2 || tr.Events[1]["kind"] != "spill" || tr.Events[1]["worker"] != 1.0 || tr.Events[1]["tasks"] != 3.0 {
		t.Errorf("events = %v, want [task, spill by worker 1 of 3 tasks]", tr.Events)
	}
	want := []map[string]any{
		{"name": "keeper", "cancelled": false, "processed": 95.0},
		{"name": "victim", "cancelled": true, "processed": 4.0},
	}
	if !reflect.DeepEqual(tr.Jobs, want) {
		t.Errorf("job rows did not round-trip:\ngot  %v\nwant %v", tr.Jobs, want)
	}
	if len(tr.Control) != 2 || tr.Control[0] != ctrl[0] || tr.Control[1] != ctrl[1] {
		t.Errorf("control = %+v, want the 2-point series back", tr.Control)
	}
}

// TestReadTraceRejectsUnknownSchema: versioning has teeth — a trace from a
// future incompatible layout, or from a retired one, fails loudly instead of
// decoding garbage.
func TestReadTraceRejectsUnknownSchema(t *testing.T) {
	for _, schema := range []string{"hdcps-obs/v99", "hdcps-obs/v1", "hdcps-obs/v3", "hdcps-obs/v4", "hdcps-obs/v5", "hdcps-obs/v6"} {
		meta := `{"type":"meta","schema":"` + schema + `","workers":1}` + "\n"
		if _, err := ReadTrace(strings.NewReader(meta)); err == nil {
			t.Fatalf("schema %s accepted", schema)
		}
	}
	if _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Fatal("empty trace accepted")
	}
}
