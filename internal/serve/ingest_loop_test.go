package serve

// The ingest loop on its own: a bytes.Reader (or a reader scripted to block
// between chunks) in, a recording sink out — no server, no engine.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"hdcps/internal/task"
)

// recSink records what the loop hands its sink.
type recSink struct {
	sizes      []int    // batch size of each flush
	confirmed  []int64  // the confirmed count each flush carried
	last       []bool   // whether it was marked the body's tail
	nodes      []uint32 // every task's node, in flush order
	idles      int
	heartbeats int

	flushOnIdle bool
	failAt      int   // fail the flush with this index (0 = the first)
	fail        error // ... with this error, when non-nil
}

func (r *recSink) flush(batch []task.Task, confirmed int64, last bool) error {
	if r.fail != nil && len(r.sizes) == r.failAt {
		return r.fail
	}
	r.sizes = append(r.sizes, len(batch))
	r.confirmed = append(r.confirmed, confirmed)
	r.last = append(r.last, last)
	for _, t := range batch {
		r.nodes = append(r.nodes, uint32(t.Node))
	}
	return nil
}

func (r *recSink) idle(pending int, confirmed int64) bool {
	r.idles++
	return r.flushOnIdle && pending > 0
}

func (r *recSink) heartbeat() { r.heartbeats++ }

// chunkReader returns one chunk per Read: between chunks the framer has
// nothing buffered, which is what a body blocking on the network looks like.
type chunkReader struct{ chunks []string }

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; c.chunks[0] == "" {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

func runIngest(r io.Reader, nodes uint32, skip int64, sk ingestSink) (int64, error) {
	fr := newLineFramer(r)
	defer fr.release()
	return ingest(fr, nodes, skip, sk)
}

func TestIngestFlushesInUnitsPlusTail(t *testing.T) {
	const lines = 2*submitFlush + 44
	var sk recSink
	n, err := runIngest(bytes.NewReader(IngestBenchBody(lines, 1000)), 1000, 0, &sk)
	if err != nil || n != lines {
		t.Fatalf("ingest = %d, %v; want %d lines", n, err, lines)
	}
	if want := []int{submitFlush, submitFlush, 44}; !slices.Equal(sk.sizes, want) {
		t.Fatalf("flush sizes %v, want %v", sk.sizes, want)
	}
	if want := []int64{submitFlush, 2 * submitFlush, lines}; !slices.Equal(sk.confirmed, want) {
		t.Fatalf("confirmed counts %v, want %v", sk.confirmed, want)
	}
	if want := []bool{false, false, true}; !slices.Equal(sk.last, want) {
		t.Fatalf("tail marks %v, want only the last flush marked", sk.last)
	}
	for i, node := range sk.nodes {
		if node != uint32(i%1000) {
			t.Fatalf("task %d carries node %d: the sink must see the lines in order", i, node)
		}
	}
	// A body that ends on a flush boundary has no tail to mark.
	sk = recSink{}
	if n, err := runIngest(bytes.NewReader(IngestBenchBody(submitFlush, 10)), 10, 0, &sk); err != nil || n != submitFlush {
		t.Fatalf("ingest = %d, %v", n, err)
	}
	if !slices.Equal(sk.sizes, []int{submitFlush}) || sk.last[0] {
		t.Fatalf("exact-multiple body: sizes %v tail marks %v, want one unmarked flush", sk.sizes, sk.last)
	}
}

func TestIngestHeartbeatsAreNotLines(t *testing.T) {
	var sk recSink
	body := "{\"node\":1}\n\n\r\n{\"node\":2}\n\n{bad}\n"
	n, err := runIngest(strings.NewReader(body), 10, 0, &sk)
	var le *lineError
	if !errors.As(err, &le) || le.line != 3 {
		t.Fatalf("err = %v, want a lineError naming line 3 (empty lines are not counted)", err)
	}
	if sk.heartbeats != 3 {
		t.Fatalf("%d heartbeats reported, want 3", sk.heartbeats)
	}
	if n != 0 || len(sk.sizes) != 0 {
		t.Fatalf("confirmed %d, flushes %v: a bad line must not flush the lines parsed before it", n, sk.sizes)
	}
}

func TestIngestSkipsAdmittedPrefix(t *testing.T) {
	// Lines 1-3 were admitted by a prior attempt: confirmed, never parsed (they
	// need not even be valid), never handed to the sink.
	body := "garbage\n{\"node\":99}\n{\"node\":1}\n{\"node\":4}\n{\"node\":5}\n"
	var sk recSink
	n, err := runIngest(strings.NewReader(body), 10, 3, &sk)
	if err != nil || n != 5 {
		t.Fatalf("ingest = %d, %v; want all 5 lines confirmed", n, err)
	}
	if !slices.Equal(sk.nodes, []uint32{4, 5}) || !slices.Equal(sk.confirmed, []int64{5}) {
		t.Fatalf("sink saw nodes %v confirmed %v, want only lines 4 and 5, confirmed 5", sk.nodes, sk.confirmed)
	}
	// Errors are numbered from the request's first line, skipped ones included,
	// and the skipped prefix stays confirmed.
	sk = recSink{}
	n, err = runIngest(strings.NewReader(body+"{bad}\n"), 10, 3, &sk)
	var le *lineError
	if !errors.As(err, &le) || le.line != 6 || n != 3 {
		t.Fatalf("ingest = %d, %v; want 3 confirmed and a lineError naming line 6", n, err)
	}
	// A body shorter than the skip count confirms only what it carried.
	sk = recSink{}
	if n, err := runIngest(strings.NewReader("a\nb\n"), 10, 3, &sk); err != nil || n != 2 || len(sk.sizes) != 0 {
		t.Fatalf("short replay: ingest = %d, %v, flushes %v; want 2, nil, none", n, err, sk.sizes)
	}
}

func TestIngestEndsWithTheFlushedPrefix(t *testing.T) {
	good := string(IngestBenchBody(submitFlush+1, 10))
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		body io.Reader
		is   error  // errors.Is target, or
		line int64  // the lineError's line
		msg  string // and a fragment of its text
	}{
		{name: "bad spec", body: strings.NewReader(good + "{not json}\n"), line: submitFlush + 2, msg: "bad task spec"},
		{name: "node out of range", body: strings.NewReader(good + "{\"node\":10}\n"), line: submitFlush + 2, msg: "node 10 out of range [0,10)"},
		{name: "line too long", body: strings.NewReader(good + strings.Repeat("x", maxLineBytes+1) + "\n"), line: submitFlush + 2, msg: "line too long"},
		{name: "read error", body: &dataThenErrReader{b: []byte(good), err: boom}, is: errBodyRead},
		{name: "stall", body: &dataThenErrReader{b: []byte(good), err: os.ErrDeadlineExceeded}, is: errStalled},
	} {
		var sk recSink
		n, err := runIngest(tc.body, 10, 0, &sk)
		if n != submitFlush || !slices.Equal(sk.sizes, []int{submitFlush}) {
			t.Errorf("%s: confirmed %d, flushes %v; want the one full batch before the failure", tc.name, n, sk.sizes)
		}
		if tc.is != nil {
			if !errors.Is(err, tc.is) {
				t.Errorf("%s: err = %v, want %v", tc.name, err, tc.is)
			}
			continue
		}
		var le *lineError
		if !errors.As(err, &le) || le.line != tc.line || !strings.Contains(err.Error(), tc.msg) ||
			!strings.HasPrefix(err.Error(), fmt.Sprintf("line %d: ", tc.line)) {
			t.Errorf("%s: err = %v, want \"line %d: ...%s...\"", tc.name, err, tc.line, tc.msg)
		}
	}
	// A read error keeps its cause for the log.
	_, err := runIngest(&dataThenErrReader{err: boom}, 10, 0, &recSink{})
	if !errors.Is(err, boom) || err.Error() != "reading body: boom" {
		t.Fatalf("err = %q, want the cause wrapped as \"reading body: boom\"", err)
	}
}

func TestIngestIdleAndSinkErrors(t *testing.T) {
	body := func() io.Reader {
		return &chunkReader{chunks: []string{"{\"node\":1}\n{\"node\":2}\n", "{\"node\":3}\n"}}
	}
	// A sink that declines leaves everything to the tail.
	var sk recSink
	if n, err := runIngest(body(), 10, 0, &sk); err != nil || n != 3 {
		t.Fatalf("ingest = %d, %v", n, err)
	}
	if !slices.Equal(sk.sizes, []int{3}) || !sk.last[0] || sk.idles == 0 {
		t.Fatalf("declining sink: flushes %v tail %v idles %d, want one marked flush of 3 and idle asked", sk.sizes, sk.last, sk.idles)
	}
	// One that accepts gets each chunk as the body goes idle behind it.
	sk = recSink{flushOnIdle: true}
	if n, err := runIngest(body(), 10, 0, &sk); err != nil || n != 3 {
		t.Fatalf("ingest = %d, %v", n, err)
	}
	if want := []int{2, 1}; !slices.Equal(sk.sizes, want) || slices.Contains(sk.last, true) {
		t.Fatalf("accepting sink: flushes %v tail marks %v, want %v, none marked", sk.sizes, sk.last, want)
	}
	// A flush the sink refuses ends the loop with what was confirmed before it.
	refused := errors.New("refused")
	sk = recSink{fail: refused, failAt: 1}
	n, err := runIngest(bytes.NewReader(IngestBenchBody(3*submitFlush, 10)), 10, 0, &sk)
	if !errors.Is(err, refused) || n != submitFlush {
		t.Fatalf("ingest = %d, %v; want %d confirmed and the sink's error", n, err, submitFlush)
	}
}
