package serve

// Differential tests for the zero-alloc ingest path. The framer is checked
// line-for-line against bufio.Scanner with the exact buffer configuration
// the old handler used; the fast parser is checked decision-for-decision
// (and byte-for-byte on error text) against encoding/json. FuzzTaskSpecParser
// extends the parser contract to adversarial inputs.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

// scanRef frames body with the old implementation's exact configuration.
func scanRef(body []byte) (lines []string, err error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		lines = append(lines, string(sc.Bytes()))
	}
	return lines, sc.Err()
}

func frameAll(r io.Reader) (lines []string, err error) {
	fr := newLineFramer(r)
	defer fr.release()
	for {
		raw, err := fr.next()
		if err == io.EOF {
			return lines, nil
		}
		if err != nil {
			return lines, err
		}
		lines = append(lines, string(raw))
	}
}

func TestLineFramerMatchesScanner(t *testing.T) {
	long := strings.Repeat("x", 200*1024) // forces buffer growth past 64KB
	bodies := map[string]string{
		"empty":            "",
		"one":              "a\n",
		"unterminated":     "a\nbc",
		"crlf":             "a\r\nb\r\n",
		"bare-cr-tail":     "a\r",
		"blank-lines":      "\n\na\n\n\nb\n",
		"inner-cr":         "a\rb\nc\n",
		"long-line":        long + "\nshort\n",
		"long-tail":        "short\n" + long,
		"many":             strings.Repeat("line\n", 10000),
		"exact-buf":        strings.Repeat("y", 64*1024-1) + "\nz\n",
		"newline-only":     "\n",
		"cr-newline-only":  "\r\n",
		"two-unterminated": "ab\ncd",
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			want, werr := scanRef([]byte(body))
			got, gerr := frameAll(strings.NewReader(body))
			if werr != nil || gerr != nil {
				t.Fatalf("unexpected errors: scanner %v framer %v", werr, gerr)
			}
			if len(got) != len(want) {
				t.Fatalf("framer yielded %d lines, scanner %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("line %d: framer %q, scanner %q", i, got[i], want[i])
				}
			}
		})
	}
}

// oneByteReader delivers one byte per Read, shaking out window bookkeeping
// across read boundaries.
type oneByteReader struct{ b []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	p[0] = r.b[0]
	r.b = r.b[1:]
	return 1, nil
}

func TestLineFramerOneBytReads(t *testing.T) {
	body := "alpha\r\nbeta\n\ngamma"
	want, _ := scanRef([]byte(body))
	got, err := frameAll(&oneByteReader{b: []byte(body)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: got %q want %q", i, got[i], want[i])
		}
	}
}

// dataThenErrReader returns its payload together with the error in the final
// Read call — the n>0-with-err case io.Reader permits.
type dataThenErrReader struct {
	b    []byte
	err  error
	done bool
}

func (r *dataThenErrReader) Read(p []byte) (int, error) {
	if r.done {
		return 0, r.err
	}
	r.done = true
	n := copy(p, r.b)
	return n, r.err
}

func TestLineFramerDataWithError(t *testing.T) {
	boom := errors.New("boom")
	// Complete lines delivered alongside the error must surface before it;
	// the unterminated tail is discarded, as bufio.Scanner does.
	got, err := frameAll(&dataThenErrReader{b: []byte("a\nb\npartial"), err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("lines before error = %q, want [a b]", got)
	}
	// n>0 with err == io.EOF: the tail is a valid final line.
	got, err = frameAll(&dataThenErrReader{b: []byte("x\ny"), err: io.EOF})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != "y" {
		t.Fatalf("lines = %q, want [x y]", got)
	}
}

func TestLineFramerTooLong(t *testing.T) {
	// Exactly maxLineBytes: fine (parity with the old Scanner buffer cap).
	ok := strings.Repeat("a", maxLineBytes) + "\nnext\n"
	lines, err := frameAll(strings.NewReader(ok))
	if err != nil || len(lines) != 2 || len(lines[0]) != maxLineBytes {
		t.Fatalf("maxLineBytes line: lines=%d err=%v", len(lines), err)
	}
	// One byte over: errLineTooLong, after yielding the preceding lines.
	over := "first\n" + strings.Repeat("b", maxLineBytes+1) + "\n"
	lines, err = frameAll(strings.NewReader(over))
	if !errors.Is(err, errLineTooLong) {
		t.Fatalf("err = %v, want errLineTooLong", err)
	}
	if len(lines) != 1 || lines[0] != "first" {
		t.Fatalf("lines before too-long = %q, want [first]", lines)
	}
}

func TestLineFramerBuffered(t *testing.T) {
	pr, pw := io.Pipe()
	fr := newLineFramer(pr)
	defer fr.release()
	defer pw.Close()
	if fr.buffered() {
		t.Fatal("fresh framer claims buffered data")
	}
	go pw.Write([]byte("a\nb"))
	if _, err := fr.next(); err != nil {
		t.Fatal(err)
	}
	if fr.buffered() {
		t.Fatal("partial line 'b' reported as a buffered complete line")
	}
	go pw.Write([]byte("\n"))
	if raw, err := fr.next(); err != nil || string(raw) != "b" {
		t.Fatalf("next = %q, %v", raw, err)
	}
}

// checkParserParity asserts parseTaskSpecLine is observably identical to a
// plain json.Unmarshal on b: same accept/reject decision, same decoded
// fields, same error text.
func checkParserParity(t *testing.T, b []byte) {
	t.Helper()
	var want TaskSpec
	werr := json.Unmarshal(b, &want)
	got, gerr := parseTaskSpecLine(b)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("input %q: decision diverged: json err %v, parser err %v", b, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("input %q: error text diverged: json %q, parser %q", b, werr, gerr)
		}
		return
	}
	if got != want {
		t.Fatalf("input %q: fields diverged: json %+v, parser %+v", b, want, got)
	}
}

func TestParseTaskSpecParity(t *testing.T) {
	cases := []string{
		// Canonical encoder output and key-order permutations.
		`{"node":1,"prio":2,"data":3}`,
		`{"prio":-5,"node":0,"data":18446744073709551615}`,
		`{"data":7,"node":4294967295,"prio":9223372036854775807}`,
		`{"prio":-9223372036854775808}`,
		`{}`,
		`  { "node" : 12 , "prio" : -1 , "data" : 0 }  `,
		"\t{\"node\":1}\r",
		// Duplicate keys: last wins, both paths.
		`{"node":1,"node":2}`,
		`{"prio":3,"prio":-3}`,
		// Fallback-and-reject territory.
		`{not json}`,
		``,
		`null`,
		`true`,
		`[1,2]`,
		`"str"`,
		`{"node":-1}`,
		`{"node":4294967296}`,
		`{"prio":9223372036854775808}`,
		`{"prio":-9223372036854775809}`,
		`{"data":18446744073709551616}`,
		`{"node":1.5}`,
		`{"node":1e3}`,
		`{"node":01}`,
		`{"prio":-01}`,
		`{"node":+1}`,
		`{"node":"1"}`,
		`{"node":null}`,
		`{"unknown":1}`,
		`{"node":1,"extra":2}`,
		`{"Node":1}`,
		`{"NODE":1}`,
		`{"node":1}`,
		`{"node":1}{"node":2}`,
		`{"node":1} x`,
		`{"node":1,}`,
		`{"node"}`,
		`{"node":}`,
		`{"node":1`,
		`{"node":`,
		`{"node"`,
		`{"`,
		`{`,
		`{"node": 007}`,
		`{"data":-1}`,
		`{"prio":- 1}`,
		`{"prio":--1}`,
	}
	for _, c := range cases {
		checkParserParity(t, []byte(c))
	}
}

// digitEdges are the lines where the fast parser's digit rule can slip:
// nineteen digits accumulate unchecked, a 20th is checked for overflow and a
// 21st falls back. Around them sit the signed bounds, a minus sign's leading
// zero, and JSON whitespace around every key and colon. TestParseDigitEdges
// and FuzzTaskSpecParser's seeds share them.
var digitEdges = func() []string {
	rows := []string{
		// Nineteen digits: the most the loop takes unchecked.
		`{"data":9999999999999999999}`,
		`{"prio":1234567890123456789}`,
		`{"prio":-1234567890123456789}`,
		`{"node":1000000000000000000}`,
		`{"prio":-9999999999999999999}`,
		// Twenty digits: uint64's top, one past it, and further.
		`{"data":10000000000000000000}`,
		`{"data":18446744073709551615}`,
		`{"data":18446744073709551616}`,
		`{"data":18446744073709551619}`,
		`{"data":18446744073709551620}`,
		`{"data":99999999999999999999}`,
		`{"prio":18446744073709551615}`,
		`{"node":18446744073709551615}`,
		// Twenty-one digits.
		`{"data":100000000000000000000}`,
		`{"data":184467440737095516150}`,
		`{"prio":-100000000000000000000}`,
		`{"data":000000000000000000001}`,
		// int64's bounds.
		`{"prio":-9223372036854775808}`,
		`{"prio":-9223372036854775809}`,
		`{"prio":9223372036854775807}`,
		`{"prio":9223372036854775808}`,
		// A leading zero after a minus sign.
		`{"prio":-0}`,
		`{"prio":-00}`,
		`{"prio":-01}`,
		`{"prio":-0123456789012345678901}`,
		`{"prio":-0,"node":0}`,
	}
	// JSON whitespace around every key and colon, one kind at a time and
	// mixed.
	for _, ws := range []string{" ", "\t", "\r", "\n", " \t\r\n"} {
		rows = append(rows, strings.NewReplacer("{", ws+"{"+ws, ":", ws+":"+ws, ",", ws+","+ws, "}", ws+"}"+ws).
			Replace(`{"node":4294967295,"prio":-9223372036854775808,"data":18446744073709551615}`))
	}
	return rows
}()

// TestParseDigitEdges: on every digit edge the parser decides as
// json.Unmarshal does, with the same fields or error text, and every line
// json accepts here is one the fast path takes, 20-digit values included.
func TestParseDigitEdges(t *testing.T) {
	for _, c := range digitEdges {
		b := []byte(c)
		checkParserParity(t, b)
		var spec TaskSpec
		if json.Unmarshal(b, &spec) != nil {
			continue
		}
		if _, ok := parseTaskSpecFast(b); !ok {
			t.Errorf("fast parser fell back on %q, which json accepts", c)
		}
	}
}

// TestParseTaskSpecFastPath pins that the canonical client encoding — and
// its whitespace/key-order variants — really take the zero-alloc path.
// Without this, a parser regression would silently fall back to
// encoding/json everywhere and the tests would still pass.
func TestParseTaskSpecFastPath(t *testing.T) {
	hot := []string{
		`{"node":1,"prio":2,"data":3}`,
		`{"data":3,"prio":-2,"node":1}`,
		`{"node":0,"prio":0,"data":0}`,
		`{"node":4294967295,"prio":-9223372036854775808,"data":18446744073709551615}`,
		`{}`,
		` {"node":9} `,
	}
	for _, c := range hot {
		if _, ok := parseTaskSpecFast([]byte(c)); !ok {
			t.Errorf("fast parser fell back on canonical input %q", c)
		}
	}
	// And the encoder's own output round-trips through the fast path.
	line := appendTaskSpecLine(nil, TaskSpec{Node: 7, Prio: -3, Data: 42})
	sp, ok := parseTaskSpecFast(bytes.TrimSuffix(line, []byte("\n")))
	if !ok || sp != (TaskSpec{Node: 7, Prio: -3, Data: 42}) {
		t.Fatalf("encoder output %q: fast parse = %+v, ok=%v", line, sp, ok)
	}
}

func TestAppendTaskSpecLineMatchesEncoder(t *testing.T) {
	specs := []TaskSpec{
		{},
		{Node: 1, Prio: 2, Data: 3},
		{Node: 4294967295, Prio: -9223372036854775808, Data: 18446744073709551615},
		{Node: 42, Prio: 9223372036854775807, Data: 1},
	}
	for _, sp := range specs {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(sp); err != nil {
			t.Fatal(err)
		}
		if got := string(appendTaskSpecLine(nil, sp)); got != buf.String() {
			t.Fatalf("spec %+v: appendTaskSpecLine %q, json.Encoder %q", sp, got, buf.String())
		}
	}
}

// FuzzTaskSpecParser differentially fuzzes the zero-alloc parser against
// encoding/json: whenever the fast path claims a line, json must agree on
// both acceptance and every decoded field; and with the fallback composed
// in, the full parseTaskSpecLine must be observably identical to a plain
// json.Unmarshal on arbitrary bytes.
func FuzzTaskSpecParser(f *testing.F) {
	seeds := []string{
		`{"node":1,"prio":2,"data":3}`,
		`{"data":18446744073709551615,"node":4294967295,"prio":-9223372036854775808}`,
		`{}`,
		`{"node":01}`,
		`{"node":1e2}`,
		`{"prio":-}`,
		`{"node":1,"node":2}`,
		`{not json}`,
		`null`,
		` { "node" : 5 } `,
		`{"node":1}`,
		`{"node":4294967296}`,
	}
	for _, s := range append(seeds, digitEdges...) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var want TaskSpec
		werr := json.Unmarshal(b, &want)
		if fast, ok := parseTaskSpecFast(b); ok {
			if werr != nil {
				t.Fatalf("fast path accepted %q that encoding/json rejects: %v", b, werr)
			}
			if fast != want {
				t.Fatalf("fast path decoded %q as %+v, encoding/json %+v", b, fast, want)
			}
		}
		got, gerr := parseTaskSpecLine(b)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("input %q: decision diverged: json err %v, parser err %v", b, werr, gerr)
		}
		if werr != nil {
			if werr.Error() != gerr.Error() {
				t.Fatalf("input %q: error text diverged: json %q, parser %q", b, werr, gerr)
			}
		} else if got != want {
			t.Fatalf("input %q: fields diverged: json %+v, parser %+v", b, want, got)
		}
	})
}

// TestIngestAllocsPerLine pins the tentpole number: the server-side parse
// loop (framer + fast parser + pooled batches) allocates less than one
// allocation per line in steady state.
func TestIngestAllocsPerLine(t *testing.T) {
	const lines = 4096
	body := IngestBenchBody(lines, 1024)
	// Warm the pools so the measured runs see steady state.
	if n, err := IngestBenchLoop(body); err != nil || n != lines {
		t.Fatalf("warmup: n=%d err=%v", n, err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := IngestBenchLoop(body); err != nil {
			t.Fatal(err)
		}
	})
	if perLine := avg / lines; perLine > 1 {
		t.Fatalf("ingest allocs/line = %.3f (%.0f allocs / %d lines), want <= 1", perLine, avg, lines)
	}
}

func TestEncodeAllocsPerLine(t *testing.T) {
	const lines = 4096
	specs := make([]TaskSpec, lines)
	for i := range specs {
		specs[i] = TaskSpec{Node: uint32(i), Prio: int64(i % 5), Data: uint64(i)}
	}
	EncodeBenchLoop(specs) // warm the body pool
	avg := testing.AllocsPerRun(10, func() { EncodeBenchLoop(specs) })
	if perLine := avg / lines; perLine > 1 {
		t.Fatalf("encode allocs/line = %.3f, want <= 1", perLine)
	}
}
