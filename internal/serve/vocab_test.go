package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"hdcps/internal/obs"
)

// httpGet returns the body of a 200 answer to GET url.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return b
}

func decode(t *testing.T, b []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("%v: %s", err, b)
	}
}

// TestOneVocabulary: /v1/jobs/{id}, /v1/snapshot and the /debug/obs trace
// name every count alike and agree on it. A drained job's "processed" is one
// number in all three; each engine-wide ledger term /v1/snapshot serves is
// the sum of its field over the trace's job lines (the ledger's one home),
// and so is the workers' tasks_processed; every other count it serves,
// engine-wide or per worker, is named as a trace counter.
func TestOneVocabulary(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Obs = true; c.SeedInitial = false })
	cl := &Client{Base: ts.URL}
	id, err := cl.CreateJob(context.Background(), JobSpec{Name: "vocab", Weight: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/submit", ts.URL, id), "application/x-ndjson",
		ndjson(TaskSpec{Node: 1}, TaskSpec{Node: 2}, TaskSpec{Node: 3}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	d, err := http.Post(fmt.Sprintf("%s/v1/jobs/%d/drain?timeout=20s", ts.URL, id), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Body.Close()
	if d.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", d.StatusCode)
	}

	// Only this job had work, so nothing moves between the three reads.
	var job map[string]any
	decode(t, httpGet(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id)), &job)
	var snap struct {
		TasksProcessed float64          `json:"tasks_processed"`
		Jobs           []map[string]any `json:"jobs"`
		Workers        []map[string]any `json:"workers"`
	}
	var raw map[string]any
	b := httpGet(t, ts.URL+"/v1/snapshot")
	decode(t, b, &snap)
	decode(t, b, &raw)
	tr, err := obs.ReadTrace(bytes.NewReader(httpGet(t, ts.URL+"/debug/obs")))
	if err != nil {
		t.Fatal(err)
	}

	processed, ok := job["processed"].(float64)
	if !ok || processed < 3 {
		t.Fatalf("/v1/jobs/%d processed = %v, want >= 3 (job %v)", id, job["processed"], job)
	}
	if int(id) >= len(snap.Jobs) || int(id) >= len(tr.Jobs) {
		t.Fatalf("job %d missing: %d rows in /v1/snapshot, %d in the trace", id, len(snap.Jobs), len(tr.Jobs))
	}
	if got := snap.Jobs[id]["processed"]; got != processed {
		t.Errorf("/v1/snapshot jobs[%d].processed = %v, /v1/jobs says %v", id, got, processed)
	}
	if got := tr.Jobs[id]["processed"]; got != processed {
		t.Errorf("/debug/obs job %d processed = %v, /v1/jobs says %v", id, got, processed)
	}
	if tr.Jobs[id]["name"] != "vocab" || snap.Jobs[id]["name"] != "vocab" {
		t.Errorf("job names: trace %v, snapshot %v, want vocab", tr.Jobs[id]["name"], snap.Jobs[id]["name"])
	}
	// The engine-wide ledger keys and their job-line names.
	ledger := map[string]string{
		"tasks_submitted":   "submitted",
		"tasks_spawned":     "spawned",
		"tasks_processed":   "processed",
		"bags_retired":      "bags_retired",
		"tasks_quarantined": "quarantined",
		"tasks_cancelled":   "cancelled_tasks",
	}
	counters := tr.Counters[0]
	for k, v := range raw {
		switch k {
		case "epoch", "outstanding", "tdf", "workers", "jobs": // state, not counts
			continue
		}
		field, ok := ledger[k]
		if !ok {
			if _, ok := counters[k]; !ok {
				t.Errorf("/v1/snapshot key %q is not a trace counter", k)
			}
			continue
		}
		if _, ok := counters[k]; ok {
			t.Errorf("/v1/snapshot ledger key %q is a trace counter too", k)
		}
		var sum float64
		for _, row := range tr.Jobs {
			n, ok := row[field].(float64)
			if !ok {
				t.Fatalf("trace job line %v has no %q", row, field)
			}
			sum += n
		}
		if v != sum {
			t.Errorf("/v1/snapshot %s = %v, the trace's job lines sum %s to %v", k, v, field, sum)
		}
	}
	var workers float64
	for _, w := range snap.Workers {
		workers += w["tasks_processed"].(float64)
	}
	if snap.TasksProcessed == 0 || workers != snap.TasksProcessed {
		t.Errorf("/v1/snapshot tasks_processed = %v, its workers sum to %v", snap.TasksProcessed, workers)
	}
	for k := range snap.Workers[0] {
		if _, ok := counters[k]; !ok && k != "parked" && k != "tasks_processed" {
			t.Errorf("/v1/snapshot workers key %q is not a trace counter", k)
		}
	}
}
