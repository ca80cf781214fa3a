package obs

// The export path: a JSONL trace stream (one self-describing JSON object per
// line, schema TraceSchema, "hdcps-obs/v7").
// The JSONL layout is deliberately grep/jq-friendly:
//
//	{"type":"meta","schema":"hdcps-obs/v7","workers":4,...}
//	{"type":"counters","worker":0,"edges_examined":1234,...}
//	{"type":"event","ts_ns":52100,"worker":1,"kind":"tdf-step","tdf":60,...}
//	{"type":"job","job":0,"name":"job-0","weight":1,"processed":123,...}
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
// "attempts"; and it adds the tasks_stolen counter. v5 adds the counters
// tasks_bagged and units_kept_local. v6 makes the job line the engine's own
// runtime.JobStats row and drops its four rank fields (rank_samples,
// prio_inversions, rank_err_sum, rank_err_max: the sampled rank error is
// counted per worker, on the counter lines); the serving front-end's /v1
// JSON takes the same names, and its /debug/obs serves this whole trace.
// v7 drops the seven counters that repeated a term of the conservation
// ledger (tasks_processed, tasks_submitted, tasks_spawned, bags_retired,
// tasks_quarantined, tasks_cancelled, quota_rejects): the engine keeps those
// per job only, and the job lines carry them (processed, submitted, spawned,
// bags_retired, quarantined, cancelled_tasks, quota_rejected).
// Counters are written by name, so no other field moves.
// ReadTrace (trace_read.go) reads the current schema only.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// TraceSchema identifies the JSONL trace layout: the one the writers below
// emit and the only one ReadTrace accepts.
const TraceSchema = "hdcps-obs/v7"

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

// WriteJSONL streams a trace's head as JSONL: one meta line, one counters
// line per row — rows are the fleet's workers in order, then the external
// row, whose line says worker External — then every retained event in
// timestamp order. The counters are the caller's (the engine's own rows):
// the recorder keeps none.
func (r *Recorder) WriteJSONL(w io.Writer, rows []*Row) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	meta := map[string]any{
		"type":         "meta",
		"schema":       TraceSchema,
		"workers":      len(rows) - 1,
		"ring_size":    r.cfg.RingSize,
		"sample_every": r.cfg.SampleEvery,
		"start":        r.start.Format(time.RFC3339Nano),
		"elapsed_ns":   time.Since(r.start).Nanoseconds(),
		"events_total": r.EventCount(),
	}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for i, row := range rows {
		worker := i
		if i == len(rows)-1 {
			worker = External
		}
		line := map[string]any{"type": "counters", "worker": worker}
		for c := Counter(0); c < numCounters; c++ {
			line[c.String()] = row[c].Load()
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

// WriteLines appends rows to a JSONL trace, one {"type":typ,...} line per
// row with the row's own JSON fields after the tag: the "event", "job"
// (runtime.JobStats) and "control" (ControlPoint) lines are all written here.
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
