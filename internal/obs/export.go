package obs

// Export paths for the recorder: a JSONL trace stream (one self-describing
// JSON object per line, schema TraceSchema, "hdcps-obs/v5") and an
// http.Handler serving a point-in-time JSON snapshot. The JSONL layout is
// deliberately grep/jq-friendly:
//
//	{"type":"meta","schema":"hdcps-obs/v5","workers":4,...}
//	{"type":"counters","worker":0,"tasks_processed":123,...}
//	{"type":"job","job":0,"name":"job-0","weight":1,"processed":123,...}
//	{"type":"event","ts_ns":52100,"worker":1,"kind":"tdf-step","tdf":60,...}
//	{"type":"control","interval":3,"drift":41.5,"ref":12,"tdf":70}
//
// v2 extends v1 with the per-job ledger rows ("job" lines), two counters
// (tasks_cancelled, quota_rejects), and the cancel/quota-reject event kinds.
// v3 extends v2 with the serving front-end's resilience counters
// (serve_shed, serve_deadline_hits, serve_conn_aborts, serve_resumes) on the
// counter lines. v4 follows the engine's one failure rule (a handler panic
// quarantines its task at once) and its stealing: it removes the counters
// task_panics, task_retries (the retry policy is gone; panics equal
// tasks_quarantined) and hot_spills (always 0), and the "panic" event kind
// with its "attempt" field; the "quarantine" event carries "job" in place of
// "attempts"; and it adds the tasks_stolen counter. Counters are written by
// name, so no other field moves. ReadTrace (trace_read.go) reads the current
// schema only.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"
)

// TraceSchema identifies the JSONL trace layout: the one the writers below
// emit and the only one ReadTrace accepts.
const TraceSchema = "hdcps-obs/v5"

// jsonFields renders an event's kind-specific payload. Keeping the mapping
// here (not on Event) makes the wire names the single source of truth.
func (e Event) jsonFields() map[string]any {
	switch e.Kind {
	case EvTask:
		return map[string]any{"prio": e.A, "processed": e.B, "edges": e.C}
	case EvSubmit:
		return map[string]any{"count": e.A, "job": e.B}
	case EvBagCreated:
		return map[string]any{"prio": e.A, "size": e.B}
	case EvBagOpened:
		return map[string]any{"size": e.A}
	case EvSpill:
		return map[string]any{"tasks": e.A}
	case EvDriftReport:
		return map[string]any{"prio": e.A, "job": e.B}
	case EvTDFStep:
		return map[string]any{"tdf": e.A, "drift": math.Float64frombits(uint64(e.B)), "ref": e.C}
	case EvQuarantine:
		return map[string]any{"prio": e.A, "job": e.B}
	case EvRedirect:
		return map[string]any{"tasks": e.A}
	case EvRankSample:
		return map[string]any{"rank": e.A, "prio": e.B, "job": e.C}
	case EvCancel:
		return map[string]any{"tasks": e.A, "job": e.B}
	case EvQuotaReject:
		return map[string]any{"tasks": e.A, "job": e.B}
	default: // park, wake, worker-restart: no payload
		return nil
	}
}

// MarshalJSON renders the event with its kind-specific field names.
func (e Event) MarshalJSON() ([]byte, error) {
	m := map[string]any{
		"ts_ns":  e.TS,
		"worker": e.Worker,
		"kind":   e.Kind.String(),
	}
	for k, v := range e.jsonFields() {
		m[k] = v
	}
	return json.Marshal(m)
}

// WriteJSONL streams the recorder's state as JSONL: one meta line, one
// counters line per row, then every retained event in timestamp order.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	meta := map[string]any{
		"type":         "meta",
		"schema":       TraceSchema,
		"workers":      r.cfg.Workers,
		"ring_size":    r.cfg.RingSize,
		"sample_every": r.cfg.SampleEvery,
		"start":        r.start.Format(time.RFC3339Nano),
		"elapsed_ns":   time.Since(r.start).Nanoseconds(),
		"events_total": r.EventCount(),
	}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, row := range r.Counters() {
		line := map[string]any{"type": "counters", "worker": row.Worker}
		for c := Counter(0); c < numCounters; c++ {
			line[c.String()] = row.Values[c]
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	if err := WriteLines(bw, "event", r.Events()); err != nil {
		return err
	}
	return bw.Flush()
}

// JobRow is one job's ledger line in a trace: the per-tenant conservation
// equation (submitted+spawned == processed+bags_retired+quarantined+
// cancelled_tasks+outstanding) plus scheduling-quality counters. The obs
// layer does not depend on the runtime, so the engine maps its JobStats into
// this wire shape when writing a trace.
type JobRow struct {
	Job       uint32 `json:"job"`
	Name      string `json:"name"`
	Weight    int    `json:"weight"`
	Cancelled bool   `json:"cancelled"`

	Outstanding    int64 `json:"outstanding"`
	Submitted      int64 `json:"submitted"`
	Spawned        int64 `json:"spawned"`
	Processed      int64 `json:"processed"`
	BagsRetired    int64 `json:"bags_retired"`
	Quarantined    int64 `json:"quarantined"`
	CancelledTasks int64 `json:"cancelled_tasks"`
	QuotaRejected  int64 `json:"quota_rejected"`

	RankSamples    int64 `json:"rank_samples"`
	PrioInversions int64 `json:"prio_inversions"`
	RankErrorSum   int64 `json:"rank_err_sum"`
	RankErrorMax   int64 `json:"rank_err_max"`
}

// WriteLines appends rows to a JSONL trace, one {"type":typ,...} line per
// row with the row's own JSON fields after the tag: the "event", "job"
// (JobRow) and "control" (ControlPoint) lines are all written here.
func WriteLines[T any](w io.Writer, typ string, rows []T) error {
	bw := bufio.NewWriter(w)
	for _, r := range rows {
		buf, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, `{"type":%q,%s`+"\n", typ, buf[1:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// snapshot is the structure Handler serves.
type snapshot struct {
	Schema  string           `json:"schema"`
	Workers int              `json:"workers"`
	Totals  map[string]int64 `json:"totals"`
	Rows    []map[string]any `json:"rows"`
	Events  uint64           `json:"events_total"`
}

func (r *Recorder) snapshot() snapshot {
	s := snapshot{
		Schema:  TraceSchema,
		Workers: r.cfg.Workers,
		Totals:  make(map[string]int64, int(numCounters)),
		Events:  r.EventCount(),
	}
	for _, row := range r.Counters() {
		line := map[string]any{"worker": row.Worker}
		for c := Counter(0); c < numCounters; c++ {
			line[c.String()] = row.Values[c]
			s.Totals[c.String()] += row.Values[c]
		}
		s.Rows = append(s.Rows, line)
	}
	return s
}

// Handler serves the recorder over HTTP: a JSON counter snapshot by
// default, or the full JSONL trace with ?trace=1.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("trace") != "" {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = r.WriteJSONL(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.snapshot())
	})
}
