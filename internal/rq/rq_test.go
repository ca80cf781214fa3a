package rq

import (
	"runtime"
	"sync"
	"testing"

	"hdcps/internal/task"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 8; i++ {
		if !tryPush(r, task.Task{Node: uint32(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if tryPush(r, task.Task{Node: 99}) {
		t.Fatal("push into full ring succeeded")
	}
	for i := 0; i < 8; i++ {
		got, ok := r.Pop()
		if !ok || got.Node != uint32(i) {
			t.Fatalf("pop %d = %v/%v", i, got, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
}

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {8, 8}, {9, 16}, {32, 32},
	} {
		if got := len(NewRing(tc.in).slots); got != tc.want {
			t.Errorf("len(NewRing(%d).slots) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing(4)
	// Many laps with interleaved push/pop.
	for lap := 0; lap < 1000; lap++ {
		for i := 0; i < 3; i++ {
			if !tryPush(r, task.Task{Node: uint32(lap*3 + i)}) {
				t.Fatalf("lap %d push %d failed (len=%d)", lap, i, r.Len())
			}
		}
		for i := 0; i < 3; i++ {
			got, ok := r.Pop()
			if !ok || got.Node != uint32(lap*3+i) {
				t.Fatalf("lap %d pop %d = %v/%v", lap, i, got, ok)
			}
		}
	}
}

func TestRingLen(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 5; i++ {
		tryPush(r, task.Task{})
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	r.Pop()
	r.Pop()
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
}

func TestRingDrain(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 10; i++ {
		tryPush(r, task.Task{Node: uint32(i)})
	}
	buf := make([]task.Task, 0, 16)
	buf = r.Drain(buf, 4)
	if len(buf) != 4 {
		t.Fatalf("partial drain got %d, want 4", len(buf))
	}
	buf = r.Drain(buf, 0) // drain the rest
	if len(buf) != 10 {
		t.Fatalf("full drain got %d, want 10", len(buf))
	}
	for i, tk := range buf {
		if tk.Node != uint32(i) {
			t.Fatalf("drain order broken at %d: %v", i, tk)
		}
	}
}

// TestRingConcurrentProducers is the MPSC stress test: P producers push
// disjoint task streams while one consumer drains; every task must arrive
// exactly once and each producer's stream must stay in order.
func TestRingConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		perProd   = 500
	)
	r := NewRing(64)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				tk := task.Task{Node: uint32(p), Data: uint64(i)}
				for !tryPush(r, tk) {
					// Full: yield and retry, as a flow-controlled sender
					// would. The yield keeps this test fast on GOMAXPROCS=1.
					runtime.Gosched()
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	got := make([]int, producers)     // count per producer
	lastSeq := make([]int, producers) // last sequence per producer
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	total := 0
	for total < producers*perProd {
		tk, ok := r.Pop()
		if !ok {
			select {
			case <-done:
				// producers finished; drain what remains then re-check
				if tk, ok = r.Pop(); !ok {
					if total != producers*perProd {
						t.Fatalf("consumed %d, want %d", total, producers*perProd)
					}
					break
				}
			default:
				runtime.Gosched()
				continue
			}
		}
		p := int(tk.Node)
		seq := int(tk.Data)
		if seq <= lastSeq[p] {
			t.Fatalf("producer %d out of order: %d after %d", p, seq, lastSeq[p])
		}
		lastSeq[p] = seq
		got[p]++
		total++
	}
	for p, c := range got {
		if c != perProd {
			t.Fatalf("producer %d delivered %d, want %d", p, c, perProd)
		}
	}
}

func TestRingPushBatch(t *testing.T) {
	r := NewRing(8)
	batch := func(lo, n int) []task.Task {
		ts := make([]task.Task, n)
		for i := range ts {
			ts[i] = task.Task{Node: uint32(lo + i)}
		}
		return ts
	}
	if got := r.TryPushBatch(nil); got != 0 {
		t.Fatalf("empty batch pushed %d", got)
	}
	if got := r.TryPushBatch(batch(0, 5)); got != 5 {
		t.Fatalf("pushed %d, want 5", got)
	}
	// Only 3 slots remain: the push must be partial.
	if got := r.TryPushBatch(batch(5, 6)); got != 3 {
		t.Fatalf("partial push got %d, want 3", got)
	}
	if got := r.TryPushBatch(batch(99, 2)); got != 0 {
		t.Fatalf("push into full ring got %d, want 0", got)
	}
	for i := 0; i < 8; i++ {
		tk, ok := r.Pop()
		if !ok || tk.Node != uint32(i) {
			t.Fatalf("pop %d = %v/%v", i, tk, ok)
		}
	}
	// A batch longer than the capacity clamps to the capacity.
	if got := r.TryPushBatch(batch(0, 20)); got != 8 {
		t.Fatalf("oversized batch pushed %d, want 8", got)
	}
}

func TestRingPushBatchWrapAround(t *testing.T) {
	r := NewRing(4)
	next := uint32(0)
	want := uint32(0)
	for lap := 0; lap < 1000; lap++ {
		ts := make([]task.Task, 3)
		for i := range ts {
			ts[i] = task.Task{Node: next}
			next++
		}
		if got := r.TryPushBatch(ts); got != 3 {
			t.Fatalf("lap %d pushed %d, want 3", lap, got)
		}
		for i := 0; i < 3; i++ {
			tk, ok := r.Pop()
			if !ok || tk.Node != want {
				t.Fatalf("lap %d pop = %v/%v, want node %d", lap, tk, ok, want)
			}
			want++
		}
	}
}

// TestRingConcurrentBatchProducers stresses TryPushBatch from several
// producers against one consumer: exactly-once delivery with per-producer
// order, mixing batch sizes (including single-task batches so the one-CAS
// claim interleaves with the per-task protocol).
func TestRingConcurrentBatchProducers(t *testing.T) {
	const (
		producers = 6
		perProd   = 900
	)
	r := NewRing(32)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sent := 0
			batch := make([]task.Task, 0, 8)
			for sent < perProd {
				n := 1 + (sent+p)%7 // varying batch sizes 1..7
				if n > perProd-sent {
					n = perProd - sent
				}
				batch = batch[:0]
				for i := 0; i < n; i++ {
					batch = append(batch, task.Task{Node: uint32(p), Data: uint64(sent + i)})
				}
				for len(batch) > 0 {
					k := r.TryPushBatch(batch)
					if k == 0 {
						runtime.Gosched()
						continue
					}
					sent += k
					batch = batch[k:]
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
	}()

	lastSeq := make([]int, producers)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	for total := 0; total < producers*perProd; {
		tk, ok := r.Pop()
		if !ok {
			runtime.Gosched()
			continue
		}
		p, seq := int(tk.Node), int(tk.Data)
		if seq != lastSeq[p]+1 {
			t.Fatalf("producer %d out of order: %d after %d", p, seq, lastSeq[p])
		}
		lastSeq[p] = seq
		total++
	}
}

// TestRingLenConcurrent verifies the Len snapshot invariants under
// concurrent push/pop: with head loaded before tail, Len can never report
// an impossible value (negative window clamped from a stale tail) and stays
// within [0, cap]. The consumer additionally checks a lower bound it knows:
// after it pushes and before it pops, the ring holds at least the
// difference it created itself — but with remote producers only an upper
// bound is exact, so the test pins the [0, cap] envelope and that an
// all-quiesced ring reports the true count.
func TestRingLenConcurrent(t *testing.T) {
	const producers = 4
	r := NewRing(16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tryPush(r, task.Task{})
				if n := r.Len(); n < 0 || n > len(r.slots) {
					panic("Len out of range") // t.Fatal not allowed off the test goroutine
				}
			}
		}()
	}
	deadline := 200000
	for i := 0; i < deadline; i++ {
		if n := r.Len(); n < 0 || n > len(r.slots) {
			t.Fatalf("Len = %d out of [0, %d]", n, len(r.slots))
		}
		r.Pop()
	}
	close(stop)
	wg.Wait()
	// Quiesced: Len must be exact.
	n := 0
	for {
		if _, ok := r.Pop(); !ok {
			break
		}
		n++
	}
	if got := r.Len(); got != 0 {
		t.Fatalf("drained ring Len = %d", got)
	}
	_ = n
}

// benchProducers runs the push side on p goroutines against one draining
// consumer; push reports per-task cost including the consumer keeping up.
func benchProducers(b *testing.B, p int, push func(r *Ring, id int, n int)) {
	r := NewRing(256)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]task.Task, 0, 256)
		for {
			buf = r.Drain(buf[:0], 0)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	per := b.N / p
	if per == 0 {
		per = 1
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for id := 0; id < p; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			push(r, id, per)
		}(id)
	}
	wg.Wait()
	b.StopTimer()
	close(stop)
	<-done
}

func BenchmarkRingPush(b *testing.B) {
	for _, p := range []int{1, 4, 8} {
		b.Run(fmtProducers(p), func(b *testing.B) {
			b.ReportAllocs()
			benchProducers(b, p, func(r *Ring, id, n int) {
				for i := 0; i < n; i++ {
					for !tryPush(r, task.Task{Node: uint32(id), Data: uint64(i)}) {
						runtime.Gosched()
					}
				}
			})
		})
	}
}

func BenchmarkRingPushBatch(b *testing.B) {
	const batch = 16
	for _, p := range []int{1, 4, 8} {
		b.Run(fmtProducers(p), func(b *testing.B) {
			b.ReportAllocs()
			benchProducers(b, p, func(r *Ring, id, n int) {
				ts := make([]task.Task, batch)
				for i := range ts {
					ts[i] = task.Task{Node: uint32(id)}
				}
				for sent := 0; sent < n; {
					want := n - sent
					if want > batch {
						want = batch
					}
					k := r.TryPushBatch(ts[:want])
					if k == 0 {
						runtime.Gosched()
						continue
					}
					sent += k
				}
			})
		})
	}
}

func fmtProducers(p int) string {
	return "producers=" + string(rune('0'+p))
}

func BenchmarkRingPushPop(b *testing.B) {
	r := NewRing(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tryPush(r, task.Task{Node: uint32(i)})
		r.Pop()
	}
}

// tryPush enqueues one task through the ring's batch push.
func tryPush(r *Ring, t task.Task) bool { return r.TryPushBatch([]task.Task{t}) == 1 }
