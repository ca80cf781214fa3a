package runtime

// The cache-line contract: a field that workers write on the hot path shares
// no 64-byte line with a field read per task or per cycle, so a write costs
// the readers no miss. It is pinned on offsets (unsafe.Offsetof, through
// reflect), since a field added in the wrong place moves no test's answer and
// shows only as a slower solve: moving Engine.outstanding onto the line of
// the fields each task loads once cost sssp-road 6% more CPU a task.
//
// How alignment is known: it is measured, not assumed. Engine and jobState
// are each allocated alone (NewEngine, newJobState), and the allocator puts a
// size class's objects at multiples of the class size from a page-aligned
// span base; since Go 1.22 an object over 512 bytes that holds pointers
// starts after an 8-byte type header in its slot. So the 696-byte Engine (the
// 704-byte class) starts 8 bytes past a line, and the 256-byte jobState on
// one. heapPhases reads the phase off fresh allocations of the type. A worker
// lives in the Engine.workers slice at a multiple of its size, which is not a
// multiple of 64, so its checks hold at every 8-byte phase.

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

const cacheLine = 64

// fieldBytes is one field's bytes [off, end) in its struct.
type fieldBytes struct {
	name     string
	off, end uintptr
}

func fieldSpan(t *testing.T, typ reflect.Type, name string) fieldBytes {
	t.Helper()
	f, ok := typ.FieldByName(name)
	if !ok {
		t.Fatalf("%s has no field %s", typ, name)
	}
	return fieldBytes{name, f.Offset, f.Offset + f.Type.Size()}
}

// everyPhase is every place an 8-aligned struct can start within a line.
var everyPhase = []uintptr{0, 8, 16, 24, 32, 40, 48, 56}

// shareLine reports whether a and b can touch one cache line when their
// struct starts at any of phases past a line boundary.
func shareLine(a, b fieldBytes, phases []uintptr) bool {
	for _, base := range phases {
		aLo, aHi := (base+a.off)/cacheLine, (base+a.end-1)/cacheLine
		bLo, bHi := (base+b.off)/cacheLine, (base+b.end-1)/cacheLine
		if aLo <= bHi && bLo <= aHi {
			return true
		}
	}
	return false
}

// heapPhases returns where fresh heap objects of typ start within a cache
// line: the one phase every allocation shows, or every phase if they differ.
func heapPhases(typ reflect.Type) []uintptr {
	seen := make(map[uintptr]bool)
	for i := 0; i < 16; i++ {
		seen[reflect.New(typ).Pointer()%cacheLine] = true
	}
	if len(seen) > 1 {
		return everyPhase
	}
	for p := range seen {
		return []uintptr{p}
	}
	return everyPhase
}

// apart fails when any written field can share a line with any read one.
func apart(t *testing.T, typ reflect.Type, phases []uintptr, written, read []string) {
	t.Helper()
	for _, w := range written {
		for _, r := range read {
			if a, b := fieldSpan(t, typ, w), fieldSpan(t, typ, r); shareLine(a, b, phases) {
				t.Errorf("%s.%s [%d, %d) can share a cache line with %s [%d, %d)",
					typ.Name(), w, a.off, a.end, r, b.off, b.end)
			}
		}
	}
}

func TestEngineCacheLines(t *testing.T) {
	t.Run("Engine", func(t *testing.T) {
		typ := reflect.TypeOf(Engine{})
		// Every worker's settle writes outstanding; Submit writes epoch and
		// the external row. Every task loads jobs, obsMask and
		// sampleInterval, and every worker loads stop once a cycle.
		apart(t, typ, heapPhases(typ), []string{"outstanding", "epoch", "ext"},
			[]string{"jobs", "obsMask", "sampleInterval", "stop"})
	})
	t.Run("worker", func(t *testing.T) {
		// mu is tried by thieves from other cores: no field of its own worker,
		// nor of the workers beside it in the slice, may share its line.
		typ := reflect.TypeOf(worker{})
		mu := fieldSpan(t, typ, "mu")
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Name == "_" || f.Name == "mu" {
				continue
			}
			for _, shift := range []int64{-1, 0, 1} {
				off := uintptr(int64(f.Offset) + shift*int64(typ.Size()))
				s := fieldBytes{f.Name, off, off + f.Type.Size()}
				if shareLine(mu, s, everyPhase) {
					t.Errorf("worker.mu [%d, %d) can share a cache line with %s (worker %+d) [%d, %d)",
						mu.off, mu.end, f.Name, shift, s.off, s.end)
				}
			}
		}
	})
	t.Run("jobState", func(t *testing.T) {
		// Workers settle into a job's outstanding and submitters write its
		// submitted and rejected; every task loads w, every pop cancelled,
		// every prefetch off, every dispatch owners and every DRR deposit
		// weight.
		typ := reflect.TypeOf(jobState{})
		apart(t, typ, heapPhases(typ),
			[]string{"submitted", "outstanding", "rejected"},
			[]string{"w", "cancelled", "owners", "off", "weight"})
	})
	t.Run("jobRow", func(t *testing.T) {
		// Each worker stores into its own row of each job at every settle: a
		// row's terms share no line with any byte outside the row, at any
		// phase, so no two workers' rows and nothing else can meet them.
		typ := reflect.TypeOf(jobRow{})
		terms := fieldBytes{"terms", fieldSpan(t, typ, "processed").off, fieldSpan(t, typ, "cancelled").end}
		// Offsets here are one line past the row's, so the byte before it
		// has one too.
		row := fieldBytes{"terms", cacheLine + terms.off, cacheLine + terms.end}
		for _, out := range []fieldBytes{
			{"the byte before the row", cacheLine - 1, cacheLine},
			{"the byte after the row", cacheLine + typ.Size(), cacheLine + typ.Size() + 1},
		} {
			if shareLine(row, out, everyPhase) {
				t.Errorf("jobRow terms [%d, %d) can share a cache line with %s", terms.off, terms.end, out.name)
			}
		}
		// And on real jobs, whatever the fleet size: each row's terms on
		// lines of their own, none shared with another row or with the job's
		// shared terms and the fields every task reads.
		for _, workers := range []int{1, 2, 3, 4, 7, 16} {
			cfg := Config{Workers: workers}.withDefaults()
			for rep := 0; rep < 8; rep++ {
				js := newJobState(0, &fnWorkload{}, JobConfig{}, cfg)
				// Each line goes to one group: a row, the shared terms, or
				// the read fields.
				lines := map[uintptr]string{}
				claim := func(group string, p unsafe.Pointer, size uintptr) {
					for l := uintptr(p) / cacheLine; l <= (uintptr(p)+size-1)/cacheLine; l++ {
						if other, ok := lines[l]; ok && other != group {
							t.Errorf("W=%d: %s share a cache line with %s", workers, group, other)
						}
						lines[l] = group
					}
				}
				for w := range js.rows {
					claim(fmt.Sprintf("rows[%d]", w), unsafe.Pointer(&js.rows[w].processed), terms.end-terms.off)
				}
				field := func(group, name string) {
					sf, _ := reflect.TypeOf(jobState{}).FieldByName(name)
					claim(group, unsafe.Add(unsafe.Pointer(js), sf.Offset), sf.Type.Size())
				}
				for _, f := range []string{"submitted", "outstanding", "rejected"} {
					field("the shared terms", f)
				}
				for _, f := range []string{"w", "cancelled", "owners", "off", "weight"} {
					field("the read fields", f)
				}
			}
		}
	})
}
