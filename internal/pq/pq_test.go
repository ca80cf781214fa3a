package pq

import (
	"sort"
	"testing"
	"testing/quick"

	"hdcps/internal/task"
)

func impls() map[string]func() Queue {
	return map[string]func() Queue{
		"binheap":  func() Queue { return NewBinaryHeap(0) },
		"4-ary":    func() Queue { return NewDHeap(4, 0) },
		"8-ary":    func() Queue { return NewDHeap(8, 0) },
		"twolevel": func() Queue { return NewTwoLevel(TwoLevelConfig{}) },
		// Spread priorities force the grow and span-overflow fallback paths
		// through the same generic suites.
		"twolevel-spread": func() Queue { return spreadQueue{NewTwoLevel(TwoLevelConfig{})} },
	}
}

func TestEmptyQueues(t *testing.T) {
	for name, mk := range impls() {
		q := mk()
		if q.Len() != 0 {
			t.Errorf("%s: new queue Len = %d", name, q.Len())
		}
		if _, ok := q.Pop(); ok {
			t.Errorf("%s: Pop on empty returned ok", name)
		}
		if _, ok := q.Peek(); ok {
			t.Errorf("%s: Peek on empty returned ok", name)
		}
	}
}

func TestPopOrder(t *testing.T) {
	prios := []int64{5, 3, 9, 1, 7, 3, 0, 12, -4, 7}
	for name, mk := range impls() {
		q := mk()
		for i, p := range prios {
			q.Push(task.Task{Node: uint32(i), Prio: p})
		}
		want := append([]int64(nil), prios...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		for i, w := range want {
			got, ok := q.Pop()
			if !ok {
				t.Fatalf("%s: queue empty after %d pops", name, i)
			}
			if got.Prio != w {
				t.Fatalf("%s: pop %d = prio %d, want %d", name, i, got.Prio, w)
			}
		}
		if _, ok := q.Pop(); ok {
			t.Fatalf("%s: queue should be drained", name)
		}
	}
}

func TestPeekMatchesPop(t *testing.T) {
	for name, mk := range impls() {
		q := mk()
		for i := 0; i < 50; i++ {
			q.Push(task.Task{Node: uint32(i), Prio: int64((i * 37) % 11)})
		}
		for q.Len() > 0 {
			p, _ := q.Peek()
			got, _ := q.Pop()
			if p.Prio != got.Prio {
				t.Fatalf("%s: Peek prio %d != Pop prio %d", name, p.Prio, got.Prio)
			}
		}
	}
}

// TestQueueEquivalence is the central property test: all implementations
// must pop the same priority sequence for any input.
func TestQueueEquivalence(t *testing.T) {
	err := quick.Check(func(raw []int16) bool {
		ref := NewBinaryHeap(len(raw))
		others := map[string]Queue{
			"4-ary":    NewDHeap(4, 0),
			"8-ary":    NewDHeap(8, 0),
			"twolevel": spreadQueue{NewTwoLevel(TwoLevelConfig{})},
		}
		for i, p := range raw {
			tk := task.Task{Node: uint32(i), Prio: int64(p)}
			ref.Push(tk)
			for _, q := range others {
				q.Push(tk)
			}
		}
		for {
			want, ok := ref.Pop()
			for name, q := range others {
				got, gok := q.Pop()
				if gok != ok {
					t.Logf("%s: length mismatch", name)
					return false
				}
				if ok && got.Prio != want.Prio {
					t.Logf("%s: prio %d want %d", name, got.Prio, want.Prio)
					return false
				}
			}
			if !ok {
				return true
			}
		}
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestInterleavedPushPop(t *testing.T) {
	// Monotone-ish workload resembling delta-stepping: pops generate pushes
	// at equal-or-higher priority.
	for name, mk := range impls() {
		q := mk()
		q.Push(task.Task{Node: 0, Prio: 0})
		last := int64(-1)
		pops := 0
		for q.Len() > 0 && pops < 10000 {
			got, _ := q.Pop()
			pops++
			if got.Prio < last {
				t.Fatalf("%s: non-monotone pop %d after %d", name, got.Prio, last)
			}
			last = got.Prio
			if pops < 3000 {
				q.Push(task.Task{Node: uint32(pops), Prio: got.Prio + int64(pops%3)})
				if pops%2 == 0 {
					q.Push(task.Task{Node: uint32(pops), Prio: got.Prio})
				}
			}
		}
	}
}

func TestBoundedEviction(t *testing.T) {
	b := NewBounded(4)
	for i := 0; i < 4; i++ {
		if _, evicted := b.Push(task.Task{Prio: int64(10 + i)}); evicted {
			t.Fatalf("premature eviction at %d", i)
		}
	}
	if !b.Full() {
		t.Fatal("should be full")
	}
	// Better task displaces the worst resident (13).
	ev, did := b.Push(task.Task{Prio: 1})
	if !did || ev.Prio != 13 {
		t.Fatalf("evicted %v/%v, want prio 13", ev, did)
	}
	// Worse task bounces straight off.
	ev, did = b.Push(task.Task{Prio: 99})
	if !did || ev.Prio != 99 {
		t.Fatalf("evicted %v/%v, want the incoming 99", ev, did)
	}
	// Residents must now be {1, 10, 11, 12} in pop order.
	want := []int64{1, 10, 11, 12}
	for _, w := range want {
		got, ok := b.Pop()
		if !ok || got.Prio != w {
			t.Fatalf("pop = %v/%v, want %d", got, ok, w)
		}
	}
}

func TestBoundedZeroCapacity(t *testing.T) {
	b := NewBounded(0)
	ev, did := b.Push(task.Task{Prio: 3})
	if !did || ev.Prio != 3 {
		t.Fatalf("zero-cap queue must bounce pushes, got %v/%v", ev, did)
	}
	if _, ok := b.Pop(); ok {
		t.Fatal("zero-cap queue must stay empty")
	}
	if NewBounded(-5).Cap() != 0 {
		t.Fatal("negative capacity should clamp to 0")
	}
}

// TestBoundedKeepsBest checks the hPQ invariant the paper relies on: after
// any push sequence, the resident set is exactly the capacity best tasks.
func TestBoundedKeepsBest(t *testing.T) {
	err := quick.Check(func(raw []int16) bool {
		const capacity = 8
		b := NewBounded(capacity)
		var spilled []int64
		for i, p := range raw {
			tk := task.Task{Node: uint32(i), Prio: int64(p)}
			if ev, did := b.Push(tk); did {
				spilled = append(spilled, ev.Prio)
			}
		}
		var resident []int64
		for {
			tk, ok := b.Pop()
			if !ok {
				break
			}
			resident = append(resident, tk.Prio)
		}
		// resident ∪ spilled must equal the input multiset, and
		// max(resident) <= min over no spilled? The invariant: every
		// resident is <= every spilled task is too strong with ties; check
		// multiset equality and that resident are the k smallest.
		all := make([]int64, 0, len(raw))
		for _, p := range raw {
			all = append(all, int64(p))
		}
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		k := len(resident)
		if k != min(capacity, len(all)) {
			return false
		}
		for i := 0; i < k; i++ {
			if resident[i] != all[i] {
				return false
			}
		}
		if len(spilled) != len(all)-k {
			return false
		}
		sort.Slice(spilled, func(a, b int) bool { return spilled[a] < spilled[b] })
		for i, p := range spilled {
			if p != all[k+i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestDHeapArityClamp(t *testing.T) {
	if got := NewDHeap(0, 0).arity; got != 2 {
		t.Fatalf("arity clamp = %d, want 2", got)
	}
	if got := NewDHeap(4, 16).arity; got != 4 {
		t.Fatalf("4-ary heap arity = %d, want 4", got)
	}
}

func BenchmarkBinaryHeap(b *testing.B) {
	benchQueue(b, NewBinaryHeap(1024))
}

// BenchmarkHeapPushPop isolates the tentpole's heap switch: the same mixed
// push/pop workload on the binary heap vs the 4-ary heap, at a queue depth
// that exercises multi-level sifts (the native runtime's steady state).
func BenchmarkHeapPushPop(b *testing.B) {
	impls := []struct {
		name string
		mk   func() Queue
	}{
		{"binary", func() Queue { return NewBinaryHeap(1024) }},
		{"4-ary", func() Queue { return NewDHeap(4, 1024) }},
	}
	for _, im := range impls {
		b.Run(im.name, func(b *testing.B) {
			q := im.mk()
			// Pre-fill so sifts traverse several levels.
			for i := 0; i < 1024; i++ {
				q.Push(task.Task{Node: uint32(i), Prio: int64((i * 2654435761) % 8192)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Push(task.Task{Node: uint32(i), Prio: int64((i * 2654435761) % 8192)})
				q.Pop()
			}
		})
	}
}

func benchQueue(b *testing.B, q Queue) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(task.Task{Node: uint32(i), Prio: int64((i * 2654435761) % 4096)})
		if i%2 == 1 {
			q.Pop()
		}
	}
}
