package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, taken from outside the program: the
// benchmark stamps the clock around each public call. Spans of one request
// (a solve, a batch, a simulator pass) share Rep; Parent is the ID of the
// span that caused this one, 0 for a root.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Rep     int64  `json:"rep"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced pass runs.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// add records a finished span and returns its ID (0 on a nil recorder).
func (r *spanRecorder) add(parent, rep int64, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Rep: rep, Name: name,
		StartNs: start.Sub(r.t0).Nanoseconds(), EndNs: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// addSeq records a root span over stamps[0]..stamps[len-1] and one child per
// consecutive pair of stamps, named by names (len(stamps)-1 of them; an
// empty name skips that interval).
func (r *spanRecorder) addSeq(rep int64, root string, names []string, stamps []time.Time) {
	if r == nil {
		return
	}
	id := r.add(0, rep, root, stamps[0], stamps[len(stamps)-1])
	for i, name := range names {
		if name != "" {
			r.add(id, rep, name, stamps[i], stamps[i+1])
		}
	}
}

func (r *spanRecorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].StartNs < cs[b].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, c := range cs {
			lo, hi := max(c.StartNs, edge), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}

// writeJSONL writes one span per line.
func (r *spanRecorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
