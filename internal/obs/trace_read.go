package obs

// Trace read-back: the inverse of WriteJSONL and the WriteLines appendices.
// Only tests consume a trace through it: the round-trip check that what the
// writers emit decodes to what they were given (trace_read_test.go), the
// check that a native run's trace accounts for the run (internal/exec), and
// the check that /debug/obs agrees with the /v1 endpoints (internal/serve).
// It reads the current schema only and skips line types it does not know.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// TraceMeta is the decoded {"type":"meta"} line.
type TraceMeta struct {
	Schema      string `json:"schema"`
	Workers     int    `json:"workers"`
	RingSize    int    `json:"ring_size"`
	SampleEvery int    `json:"sample_every"`
	EventsTotal uint64 `json:"events_total"`
}

// Trace is a fully decoded JSONL trace. The counters, job and event lines
// decode to name→value maps without their "type" tag: the writers own the
// field names (runtime.JobStats names the job line's), so the reader needs no
// second declaration of any row. Numbers in Jobs and Events are float64s, as
// encoding/json decodes them.
type Trace struct {
	Meta     TraceMeta
	Counters []map[string]int64 // one map per counters line, "worker" included
	Jobs     []map[string]any   // one map per job line
	Events   []map[string]any   // one map per event line: "ts_ns", "worker", "kind" and the payload
	Control  []ControlPoint
}

// ReadTrace decodes a JSONL trace written by WriteJSONL (plus the job and
// control appendices). A meta line naming any schema but TraceSchema is an
// error; unknown line types are skipped.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	sawMeta := false
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		typ, _ := m["type"].(string)
		delete(m, "type")
		switch typ {
		case "meta":
			if err := json.Unmarshal(raw, &tr.Meta); err != nil {
				return nil, fmt.Errorf("obs: trace line %d (meta): %w", line, err)
			}
			if tr.Meta.Schema != TraceSchema {
				return nil, fmt.Errorf("obs: unknown trace schema %q", tr.Meta.Schema)
			}
			sawMeta = true
		case "counters":
			row := make(map[string]int64, len(m))
			for k, v := range m {
				if f, ok := v.(float64); ok {
					row[k] = int64(f)
				}
			}
			tr.Counters = append(tr.Counters, row)
		case "job":
			tr.Jobs = append(tr.Jobs, m)
		case "event":
			tr.Events = append(tr.Events, m)
		case "control":
			var p ControlPoint
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, fmt.Errorf("obs: trace line %d (control): %w", line, err)
			}
			tr.Control = append(tr.Control, p)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawMeta && len(tr.Counters) == 0 && len(tr.Control) == 0 &&
		len(tr.Events) == 0 && len(tr.Jobs) == 0 {
		return nil, fmt.Errorf("obs: empty trace")
	}
	return tr, nil
}
