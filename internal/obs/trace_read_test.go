package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestReadTraceV2RoundTrip writes a full trace — counters, events, job
// ledger rows, control series — and reads it back, pinning the fields a
// post-processor depends on.
func TestReadTraceV2RoundTrip(t *testing.T) {
	r := New(Config{Workers: 2, SampleEvery: 1})
	r.Event(0, EvTask, 9, 1, 4)
	r.Row(1)[COverflowSpills].Add(1)
	r.Event(1, EvSpill, 3, 0, 0)

	jobs := []JobRow{
		{Job: 0, Name: "keeper", Weight: 4, Submitted: 10, Spawned: 90,
			Processed: 95, BagsRetired: 5, RankSamples: 12},
		{Job: 1, Name: "victim", Weight: 1, Cancelled: true, Submitted: 3,
			Spawned: 7, Processed: 4, CancelledTasks: 6, QuotaRejected: 2},
	}
	ctrl := ControlSeries([]float64{1.5, 2.5}, []int64{10, 11}, []int{50, 60})

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := WriteJobsJSONL(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	if err := WriteControlJSONL(&buf, ctrl); err != nil {
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
		t.Errorf("%d counter rows, want 3", len(tr.Counters))
	}
	// The task sample is an event of its own.
	if len(tr.Events) != 2 || tr.Events[1].Kind != "spill" {
		t.Errorf("events = %+v, want [task, spill]", tr.Events)
	}
	if len(tr.Jobs) != 2 {
		t.Fatalf("%d job rows, want 2", len(tr.Jobs))
	}
	if tr.Jobs[0] != jobs[0] || tr.Jobs[1] != jobs[1] {
		t.Errorf("job rows did not round-trip:\ngot  %+v\nwant %+v", tr.Jobs, jobs)
	}
	if len(tr.Control) != 2 || tr.Control[1].TDF != 60 {
		t.Errorf("control = %+v, want the 2-point series back", tr.Control)
	}
}

// TestReadTraceRejectsUnknownSchema: versioning has teeth — a trace from a
// future incompatible layout, or from a retired one, fails loudly instead of
// decoding garbage.
func TestReadTraceRejectsUnknownSchema(t *testing.T) {
	for _, schema := range []string{"hdcps-obs/v99", "hdcps-obs/v1", "hdcps-obs/v3"} {
		meta := `{"type":"meta","schema":"` + schema + `","workers":1}` + "\n"
		if _, err := ReadTrace(strings.NewReader(meta)); err == nil {
			t.Fatalf("schema %s accepted", schema)
		}
	}
	if _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Fatal("empty trace accepted")
	}
}
