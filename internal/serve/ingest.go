package serve

// The zero-allocation submit ingest path. The serving knee used to sit ~60×
// below the native engine's throughput because every NDJSON line paid a
// bufio.Scanner copy, a reflective json.Unmarshal, and a handful of
// per-flush heap allocations. This file removes all of it, applying the
// same amortize-every-shared-touch idiom the MultiQueue uses internally:
//
//   - lineFramer frames newline-delimited lines straight out of a pooled
//     read buffer without copying; a returned line is a sub-slice of the
//     buffer, valid until the next call.
//   - parseTaskSpecFast decodes the restricted NDJSON grammar the clients
//     actually emit ({"node":N,"prio":N,"data":N}, any key order, JSON
//     whitespace) with zero allocations. Anything outside that grammar —
//     escapes, floats, unknown keys, overflow, malformed bytes — falls back
//     to encoding/json on that line, so the accept/reject decision and the
//     decoded fields (and even the error text) stay bit-identical with the
//     old per-line json.Unmarshal. FuzzTaskSpecParser holds that contract.
//   - sync.Pools recycle the framer (with its 64KB buffer), the
//     []task.Task flush batches, and the response/error body buffers, so a
//     steady-state submit stream allocates nothing per line.
//
// The same hand-rolled encoder is shared with the client side
// (appendTaskSpecLine), so both halves of the boundary stay allocation-free.
//
// ingest is the loop that drives them: one function from a framed body to
// flushed batches, which knows neither the engine nor the reply protocol —
// those are its sink (admit.go's submission for a request, a discarding one
// for IngestBenchLoop, so the benchmark measures this loop and not a copy).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"

	"hdcps/internal/graph"
	"hdcps/internal/task"
)

// submitFlush is how many NDJSON task lines accumulate before one
// Engine.Submit call: large enough to amortize the submission path, small
// enough that a draining server bounces a streaming client promptly.
const submitFlush = 256

// ingestSink is where the loop's work goes.
type ingestSink interface {
	// flush takes batch. confirmed counts the request's lines once it is in,
	// a resumed request's skipped prefix included; batch is empty when an
	// idle body has only skipped lines to confirm. last marks the tail of a
	// body that has ended: the reply confirms it, no progress ack does.
	// An error ends the loop.
	flush(batch []task.Task, confirmed int64, last bool) error
	// idle is asked when the next read would block, with pending lines
	// parsed but not flushed: true flushes them now, false waits for
	// submitFlush.
	idle(pending int, confirmed int64) bool
	// heartbeat reports an empty line: a protocol no-op that is not counted.
	heartbeat()
}

// lineError is a submit body line the server refuses, numbered from the
// request's first line (a resumed request's skipped prefix counts).
type lineError struct {
	line int64
	msg  string
}

func (e *lineError) Error() string { return fmt.Sprintf("line %d: %s", e.line, e.msg) }

// The two ways reading a body fails. errStalled is the stall guard's read
// deadline: the body stopped making progress (or, when the request carries a
// deadline, ran into it — handleSubmit tells the two apart).
var (
	errStalled  = errors.New("submit body stalled")
	errBodyRead = errors.New("reading body")
)

// readFailure names the error that ended a body short of EOF; line is the
// one the stream would have yielded next.
func readFailure(err error, line int64) error {
	switch {
	case errors.Is(err, errLineTooLong):
		return &lineError{line, fmt.Sprintf("line too long (limit %d bytes)", maxLineBytes)}
	case errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("%w: %w", errStalled, err)
	}
	return fmt.Errorf("%w: %w", errBodyRead, err)
}

// ingest runs one submit body: frame → skip heartbeats → count the line →
// confirm, without parsing, the first skip lines (a prior attempt admitted
// them) → parse → range-check against nodes → batch → flush at submitFlush,
// when the sink asks for it on an idle body, and at the end. It returns how
// many of the request's lines are confirmed and the error that ended it; it
// writes nothing.
func ingest(fr *lineFramer, nodes uint32, skip int64, sk ingestSink) (int64, error) {
	bb := batchPool.Get().(*[]task.Task)
	batch := (*bb)[:0]
	defer func() {
		*bb = batch[:0]
		batchPool.Put(bb)
	}()
	var confirmed, line int64
	for {
		// Flush-on-idle is the sink's call: commit the batch before blocking
		// on the network, so ack latency tracks the RTT, not the flush cadence.
		if len(batch) >= submitFlush || !fr.buffered() && sk.idle(len(batch), confirmed) {
			n := confirmed + int64(len(batch))
			if err := sk.flush(batch, n, false); err != nil {
				return confirmed, err
			}
			confirmed, batch = n, batch[:0]
		}
		raw, err := fr.next()
		if err != nil {
			if err != io.EOF {
				return confirmed, readFailure(err, line+1)
			}
			if len(batch) == 0 {
				return confirmed, nil
			}
			n := confirmed + int64(len(batch))
			if err := sk.flush(batch, n, true); err != nil {
				return confirmed, err
			}
			return n, nil
		}
		if len(raw) == 0 {
			sk.heartbeat()
			continue
		}
		line++
		if line <= skip {
			confirmed++
			continue
		}
		spec, perr := parseTaskSpecLine(raw)
		if perr != nil {
			return confirmed, &lineError{line, "bad task spec: " + perr.Error()}
		}
		if spec.Node >= nodes {
			return confirmed, &lineError{line, fmt.Sprintf("node %d out of range [0,%d)", spec.Node, nodes)}
		}
		batch = append(batch, task.Task{Node: graph.NodeID(spec.Node), Prio: spec.Prio, Data: spec.Data})
	}
}

// maxLineBytes caps one NDJSON line, matching the 1MB bufio.Scanner buffer
// the previous implementation used. Beyond it the framer reports
// errLineTooLong so the handler can name the offending line instead of
// returning a generic read error.
const maxLineBytes = 1 << 20

// errLineTooLong marks a single NDJSON line that exceeded maxLineBytes. The
// handler maps it to a 400 naming the line number and the admitted prefix,
// so the client can repair the line instead of blind-retrying the stream.
var errLineTooLong = errors.New("line too long")

// lineFramer yields newline-delimited lines from an io.Reader without
// copying: each returned line is a sub-slice of the framer's buffer, valid
// until the next call. Framing matches bufio.ScanLines exactly — the
// trailing '\n' is consumed, one trailing '\r' is stripped, and a final
// unterminated line is returned at EOF.
type lineFramer struct {
	r     io.Reader
	buf   []byte
	start int // window start: first unconsumed byte
	end   int // window end: one past the last buffered byte
	scan  int // no '\n' exists in buf[start:scan) — resume searches here
	eof   bool
	err   error // deferred read error (data buffered before it drains first)
}

// framerPool recycles framers with their grown buffers; a steady-state
// server frames every stream out of a handful of warm 64KB buffers.
var framerPool = sync.Pool{
	New: func() any {
		return &lineFramer{buf: make([]byte, 64*1024)}
	},
}

func newLineFramer(r io.Reader) *lineFramer {
	fr := framerPool.Get().(*lineFramer)
	fr.r = r
	fr.start, fr.end, fr.scan = 0, 0, 0
	fr.eof = false
	fr.err = nil
	return fr
}

// release returns the framer to the pool. The caller must not use any line
// slice it obtained from this framer afterwards.
func (fr *lineFramer) release() {
	fr.r = nil
	framerPool.Put(fr)
}

// dropCR strips one trailing '\r', mirroring bufio.ScanLines.
func dropCR(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\r' {
		return b[:n-1]
	}
	return b
}

// buffered reports whether next() can return a line without touching the
// underlying reader — a complete line is framed, a deferred EOF tail or
// read error is pending. The handler uses it to flush batched work before
// blocking on the network (the flush-on-idle policy for acked streams).
func (fr *lineFramer) buffered() bool {
	if i := bytes.IndexByte(fr.buf[fr.scan:fr.end], '\n'); i >= 0 {
		fr.scan += i // next() finds it here without a second pass over the line
		return true
	}
	fr.scan = fr.end
	return fr.eof || fr.err != nil
}

// next returns the next line. io.EOF signals a clean end of stream;
// errLineTooLong a line beyond maxLineBytes; any other error is the
// underlying reader's. Lines framed before a read error surface first,
// exactly like bufio.Scanner.
func (fr *lineFramer) next() ([]byte, error) {
	for {
		// A complete line already in the window?
		if i := bytes.IndexByte(fr.buf[fr.scan:fr.end], '\n'); i >= 0 {
			nl := fr.scan + i
			line := dropCR(fr.buf[fr.start:nl])
			fr.start, fr.scan = nl+1, nl+1
			return line, nil
		}
		fr.scan = fr.end
		if fr.err != nil {
			// An unterminated tail ahead of a read error is dropped, as
			// bufio.Scanner drops it.
			return nil, fr.err
		}
		if fr.eof {
			if fr.start == fr.end {
				return nil, io.EOF
			}
			// The final unterminated line.
			line := dropCR(fr.buf[fr.start:fr.end])
			fr.start, fr.scan = fr.end, fr.end
			return line, nil
		}
		// Need more bytes: make room, then read.
		if fr.end == len(fr.buf) {
			if fr.start > 0 {
				copy(fr.buf, fr.buf[fr.start:fr.end])
				fr.end -= fr.start
				fr.scan -= fr.start
				fr.start = 0
			} else if len(fr.buf) < maxLineBytes+1 {
				grown := make([]byte, min(2*len(fr.buf), maxLineBytes+1))
				copy(grown, fr.buf[:fr.end])
				fr.buf = grown
			} else {
				return nil, errLineTooLong
			}
		}
		n, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += n
		if err != nil {
			if err == io.EOF {
				fr.eof = true
			} else {
				fr.err = err
			}
		}
	}
}

// parseTaskSpecFast decodes one NDJSON task line with zero allocations. It
// accepts exactly the restricted grammar the clients emit — an object with
// integer-valued "node"/"prio"/"data" members in any order, separated by
// JSON whitespace — and reports ok=false for anything else, telling the
// caller to fall back to encoding/json so the observable accept/reject
// decision, decoded fields, and error text stay bit-identical with a plain
// json.Unmarshal. Notably it falls back (rather than deciding) on overflow,
// leading zeros, floats, escapes, duplicate-with-garbage, and trailing
// content: encoding/json is the single source of truth for every edge.
func parseTaskSpecFast(b []byte) (TaskSpec, bool) {
	var spec TaskSpec
	n := len(b)
	i := skipWS(b, 0)
	if i >= n || b[i] != '{' {
		return spec, false
	}
	i = skipWS(b, i+1)
	if i < n && b[i] == '}' {
		return spec, skipWS(b, i+1) == n
	}
	for {
		// Key: a plain, unescaped "node" / "prio" / "data".
		if i >= n || b[i] != '"' || i+5 >= n || b[i+5] != '"' {
			return spec, false
		}
		var field int // 0 node, 1 prio, 2 data
		switch {
		case b[i+1] == 'n' && b[i+2] == 'o' && b[i+3] == 'd' && b[i+4] == 'e':
			field = 0
		case b[i+1] == 'p' && b[i+2] == 'r' && b[i+3] == 'i' && b[i+4] == 'o':
			field = 1
		case b[i+1] == 'd' && b[i+2] == 'a' && b[i+3] == 't' && b[i+4] == 'a':
			field = 2
		default:
			return spec, false
		}
		i = skipWS(b, i+6)
		if i >= n || b[i] != ':' {
			return spec, false
		}
		i = skipWS(b, i+1)
		// Value: a plain JSON integer. '-' is only meaningful for prio —
		// for the unsigned fields encoding/json errors, so fall back.
		neg := false
		if i < n && b[i] == '-' {
			if field != 1 {
				return spec, false
			}
			neg = true
			i++
		}
		// Nineteen digits cannot overflow a uint64, so they accumulate
		// unchecked; only a 20th can. A 21st is no separator, so the line
		// falls back below.
		ds := i
		var v uint64
		for end := min(n, i+19); i < end && isDigit(b[i]); i++ {
			v = v*10 + uint64(b[i]-'0')
		}
		if i < n && isDigit(b[i]) {
			d := uint64(b[i] - '0')
			if v > math.MaxUint64/10 || v == math.MaxUint64/10 && d > math.MaxUint64%10 {
				return spec, false // overflow: let encoding/json phrase the error
			}
			v = v*10 + d
			i++
		}
		switch {
		case i == ds:
			return spec, false // no digits
		case b[ds] == '0' && i-ds > 1:
			return spec, false // leading zero: invalid JSON number
		}
		switch field {
		case 0:
			if v > 1<<32-1 {
				return spec, false
			}
			spec.Node = uint32(v)
		case 1:
			if neg {
				if v > 1<<63 {
					return spec, false
				}
				spec.Prio = -int64(v)
			} else {
				if v > 1<<63-1 {
					return spec, false
				}
				spec.Prio = int64(v)
			}
		case 2:
			spec.Data = v
		}
		i = skipWS(b, i)
		if i >= n {
			return spec, false
		}
		switch b[i] {
		case ',':
			i = skipWS(b, i+1)
		case '}':
			return spec, skipWS(b, i+1) == n
		default:
			return spec, false
		}
	}
}

// skipWS returns the index of the first byte at or after i that is not JSON
// whitespace. Every whitespace byte is <= ' ', so a key, a digit or a
// separator leaves after one comparison.
func skipWS(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// parseTaskSpecLine is the full ingest decode: the zero-alloc fast path,
// with encoding/json as the semantic authority for every line the fast
// grammar does not cover.
func parseTaskSpecLine(b []byte) (TaskSpec, error) {
	if spec, ok := parseTaskSpecFast(b); ok {
		return spec, nil
	}
	var spec TaskSpec
	err := json.Unmarshal(b, &spec)
	return spec, err
}

// appendTaskSpecLine appends sp encoded as one NDJSON line, byte-identical
// to json.Encoder's output for TaskSpec ({"node":N,"prio":N,"data":N} plus
// a trailing newline) without the per-call encoder state.
func appendTaskSpecLine(dst []byte, sp TaskSpec) []byte {
	dst = append(dst, `{"node":`...)
	dst = strconv.AppendUint(dst, uint64(sp.Node), 10)
	dst = append(dst, `,"prio":`...)
	dst = strconv.AppendInt(dst, sp.Prio, 10)
	dst = append(dst, `,"data":`...)
	dst = strconv.AppendUint(dst, sp.Data, 10)
	dst = append(dst, '}', '\n')
	return dst
}

// batchPool recycles the per-request []task.Task flush batches. Safe
// because the engine's transport copies tasks out of the submitted slice
// before Submit returns.
var batchPool = sync.Pool{
	New: func() any {
		b := make([]task.Task, 0, submitFlush)
		return &b
	},
}

// bodyBuf is a pooled response/request body builder: a byte buffer plus a
// lazily attached json.Encoder for the structured (error) bodies. The hot
// 200 path appends bytes directly.
type bodyBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var bodyPool = sync.Pool{
	New: func() any {
		b := &bodyBuf{}
		b.enc = json.NewEncoder(&b.buf)
		return b
	},
}

func getBody() *bodyBuf {
	b := bodyPool.Get().(*bodyBuf)
	b.buf.Reset()
	return b
}

func putBody(b *bodyBuf) { bodyPool.Put(b) }

// acceptedLine resets the buffer to {"accepted":n} plus a newline — the
// buffered 200 body and the progress-ack line, byte-identical to what
// json.Encoder makes of a struct with one int64 field tagged "accepted" —
// without allocating.
func (b *bodyBuf) acceptedLine(n int64) []byte {
	b.buf.Reset()
	line := append(b.buf.AvailableBuffer(), acceptedPrefix...)
	line = append(strconv.AppendInt(line, n, 10), '}', '\n')
	b.buf.Write(line)
	return b.buf.Bytes()
}

// acceptedPrefix is what acceptedLine writes before the count.
const acceptedPrefix = `{"accepted":`

// parseAcceptedLine is acceptedLine's inverse, for the client reading a
// progress ack without reflection: it reads n back from a line that is
// exactly {"accepted":n}, n a non-negative int64 in decimal without a
// leading zero. Any other line — a terminal line, a sign, a leading zero, a
// space, an overflow, a trailing byte — reports false and is left to
// encoding/json.
func parseAcceptedLine(line []byte) (int64, bool) {
	digits, ok := bytes.CutPrefix(line, []byte(acceptedPrefix))
	digits, closed := bytes.CutSuffix(digits, []byte("}"))
	if !ok || !closed || len(digits) == 0 || digits[0] < '0' || digits[0] > '9' || digits[0] == '0' && len(digits) > 1 {
		return 0, false
	}
	n, err := strconv.ParseInt(string(digits), 10, 64)
	return n, err == nil
}

// IngestBenchBody builds an n-line NDJSON submit body cycling nodes over
// [0, nodes) — the corpus the ingest benchmarks and the allocs/line
// measurement share.
func IngestBenchBody(n, nodes int) []byte {
	var buf []byte
	for i := 0; i < n; i++ {
		buf = appendTaskSpecLine(buf, TaskSpec{
			Node: uint32(i % nodes),
			Prio: int64(i % 7),
			Data: uint64(i),
		})
	}
	return buf
}

// discard is the sink that takes everything and keeps nothing.
type discard struct{}

func (discard) flush([]task.Task, int64, bool) error { return nil }
func (discard) idle(int, int64) bool                 { return false }
func (discard) heartbeat()                           {}

// IngestBenchLoop runs the server's ingest loop — framing, decoding, batch
// building, pool recycling — over one NDJSON body with the engine swapped
// out for a discarding sink, and returns the number of lines taken. The
// benchmark's serve.parse_*_per_line rows, TestIngestAllocsPerLine (the
// allocs/line gate) and the BenchmarkSubmitIngest family all run it.
func IngestBenchLoop(body []byte) (int, error) {
	fr := newLineFramer(bytes.NewReader(body))
	defer fr.release()
	n, err := ingest(fr, math.MaxUint32, 0, discard{})
	return int(n), err
}

// EncodeBenchLoop runs the client's encode half of the boundary — the
// pooled pre-encoded line writer — over specs, returning bytes produced
// (the benchmark's serve.encode_*_per_line rows, TestEncodeAllocsPerLine).
func EncodeBenchLoop(specs []TaskSpec) int {
	b := getBody()
	defer putBody(b)
	buf := b.buf.AvailableBuffer()
	for _, sp := range specs {
		buf = appendTaskSpecLine(buf, sp)
	}
	b.buf.Write(buf)
	return b.buf.Len()
}
