package obs

// Trace read-back: the inverse of WriteJSONL, WriteJobsJSONL and
// WriteControlJSONL. Nothing in the tree consumes a trace through it yet; it
// is the round-trip check that what the writers emit decodes to what they
// were given (trace_read_test.go). It reads the current schema only and
// skips line types and fields it does not know.

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

// TraceEvent is one decoded {"type":"event"} line. The kind-specific payload
// stays in Fields (the writer flattens it into the object), so the reader
// does not need the full event vocabulary to round-trip a trace.
type TraceEvent struct {
	TS     int64
	Worker int
	Kind   string
	Fields map[string]any
}

// Trace is a fully decoded JSONL trace.
type Trace struct {
	Meta     TraceMeta
	Counters []map[string]int64 // one map per counters line, "worker" included
	Jobs     []JobRow
	Events   []TraceEvent
	Control  []ControlPoint
}

// ReadTrace decodes a JSONL trace written by WriteJSONL (plus the job and
// control appendices). A meta line naming any schema but TraceSchema is an
// error; unknown line types and fields are skipped.
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
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		switch head.Type {
		case "meta":
			if err := json.Unmarshal(raw, &tr.Meta); err != nil {
				return nil, fmt.Errorf("obs: trace line %d (meta): %w", line, err)
			}
			if tr.Meta.Schema != TraceSchema {
				return nil, fmt.Errorf("obs: unknown trace schema %q", tr.Meta.Schema)
			}
			sawMeta = true
		case "counters":
			var m map[string]any
			if err := json.Unmarshal(raw, &m); err != nil {
				return nil, fmt.Errorf("obs: trace line %d (counters): %w", line, err)
			}
			row := make(map[string]int64, len(m))
			for k, v := range m {
				if f, ok := v.(float64); ok {
					row[k] = int64(f)
				}
			}
			tr.Counters = append(tr.Counters, row)
		case "job":
			var jr JobRow
			if err := json.Unmarshal(raw, &jr); err != nil {
				return nil, fmt.Errorf("obs: trace line %d (job): %w", line, err)
			}
			tr.Jobs = append(tr.Jobs, jr)
		case "event":
			var m map[string]any
			if err := json.Unmarshal(raw, &m); err != nil {
				return nil, fmt.Errorf("obs: trace line %d (event): %w", line, err)
			}
			ev := TraceEvent{Fields: m}
			if v, ok := m["ts_ns"].(float64); ok {
				ev.TS = int64(v)
			}
			if v, ok := m["worker"].(float64); ok {
				ev.Worker = int(v)
			}
			if v, ok := m["kind"].(string); ok {
				ev.Kind = v
			}
			delete(m, "type")
			delete(m, "ts_ns")
			delete(m, "worker")
			delete(m, "kind")
			tr.Events = append(tr.Events, ev)
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
