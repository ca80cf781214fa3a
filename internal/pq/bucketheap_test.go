package pq

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"hdcps/internal/task"
)

// bucketCheck drives a BucketHeap and an HPQ beside a reference BinaryHeap
// and holds both to the oracle queue's contract: every pop is Less-equal to
// the reference's, and between two moments at which a (Prio, Node) class has
// no task queued, each queue pops the same multiset of that class's tasks
// (Prio, Node, Job, Data) as the reference. Pushes of a lower class may
// interrupt a run of one class, so the multisets are compared when the
// class empties, not when the run ends. The HPQ's hot buffer holds two
// tasks, so most of its traffic goes through the cold store's window.
type bucketCheck struct {
	t    *testing.T
	q    *BucketHeap
	h    *HPQ
	ref  *BinaryHeap
	live map[[2]int64]int
	// popped holds each class's pops since it last emptied: the
	// reference's, the BucketHeap's, then the HPQ's.
	popped map[[2]int64][3][]task.Task
}

func newBucketCheck(t *testing.T) *bucketCheck {
	return &bucketCheck{t: t, q: NewBucketHeap(0), h: NewHPQ(2), ref: NewBinaryHeap(0),
		live: map[[2]int64]int{}, popped: map[[2]int64][3][]task.Task{}}
}

func class(t task.Task) [2]int64 { return [2]int64{t.Prio, int64(t.Node)} }

// push queues t in all three; cold sends it past the HPQ's hot buffer.
func (c *bucketCheck) push(t task.Task, cold bool) {
	c.q.Push(t)
	if cold {
		c.h.PushCold(t)
	} else {
		c.h.PushEx(t)
	}
	c.ref.Push(t)
	c.live[class(t)]++
}

func (c *bucketCheck) pop() bool {
	c.t.Helper()
	var have [3]task.Task
	var ok [3]bool
	have[0], ok[0] = c.ref.Pop()
	have[1], ok[1] = c.q.Pop()
	have[2], _, ok[2] = c.h.PopEx()
	want := have[0]
	for i, name := range []string{"BucketHeap", "HPQ"} {
		if ok[i+1] != ok[0] {
			c.t.Fatalf("%s: pop ok=%v, reference ok=%v", name, ok[i+1], ok[0])
		}
		if ok[0] && (have[i+1].Less(want) || want.Less(have[i+1])) {
			c.t.Fatalf("%s: pop %+v, reference %+v", name, have[i+1], want)
		}
	}
	if !ok[0] {
		return false
	}
	k := class(want)
	p := c.popped[k]
	for i := range p {
		p[i] = append(p[i], have[i])
	}
	c.popped[k] = p
	if c.live[k]--; c.live[k] == 0 {
		for _, s := range p {
			slices.SortFunc(s, func(a, b task.Task) int {
				return cmp.Or(cmp.Compare(a.Job, b.Job), cmp.Compare(a.Data, b.Data))
			})
		}
		for i, name := range []string{"BucketHeap", "HPQ"} {
			if !slices.Equal(p[i+1], p[0]) {
				c.t.Fatalf("%s: class %v: popped %v, reference %v", name, k, p[i+1], p[0])
			}
		}
		delete(c.popped, k)
		delete(c.live, k)
	}
	return true
}

func (c *bucketCheck) drain() {
	c.t.Helper()
	for c.pop() {
	}
	if len(c.live) != 0 {
		c.t.Fatalf("classes %v pushed and never popped", c.live)
	}
}

// FuzzBucketHeapVsBinaryHeap feeds a byte-driven op stream to the
// BucketHeap, the HPQ and the reference heap under bucketCheck's contract:
// pop; push a task of a nearby priority, either side; push one that shares
// the last task's (Prio, Node), with another Data and maybe another Job;
// push one up to 63·2^14 classes below, past the window's 2^16-bucket cap.
// Jobs are 0 or 1, Data is a push stamp; an op of 0x40-0x7f pushes past the
// HPQ's hot buffer (PushCold).
func FuzzBucketHeapVsBinaryHeap(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x80, 0xff, 0x00, 0x7f})
	f.Add([]byte{0x81, 0x85, 0x89, 0x00, 0x8d, 0x02, 0x02, 0x00, 0x00})       // negative priorities
	f.Add([]byte{0x05, 0x09, 0x0d, 0xff, 0x11, 0x00, 0xfb, 0x00, 0x00, 0x00}) // a span past the cap
	f.Add([]byte{0xc1, 0xc1, 0x41, 0xc5, 0x00, 0x00, 0x00})                   // Job != 0
	f.Add([]byte{0x45, 0x02, 0x02, 0x42, 0x00, 0x02, 0x00, 0x00, 0x00})       // duplicates differing in Data
	f.Add([]byte{0x01, 0x01, 0x01, 0xff, 0xff, 0x71, 0x00, 0x00})             // an HPQ cold span past the cap
	f.Add(append(bytes.Repeat([]byte{0xe1}, 48), 0x00, 0x00, 0x00))           // a decreasing run: HPQ's rewind storm
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newBucketCheck(t)
		var last task.Task
		for i, op := range data {
			tk := task.Task{Node: uint32(op>>2) % 8, Job: task.JobID(op >> 7), Prio: last.Prio, Data: uint64(i)}
			switch op % 4 {
			case 0:
				c.pop()
				continue
			case 1:
				tk.Prio += int64(int8(op)) / 16
			case 2:
				tk.Node, tk.Job = last.Node, last.Job^task.JobID(op>>6&1)
			case 3:
				tk.Prio -= int64(op>>2) << 14
			}
			c.push(tk, op>>6 == 1)
			last = tk
		}
		c.drain()
	})
}

// TestBucketHeapOrder: eight classes either side of zero, buckets of
// thousands of tasks in random node order, a third as many pops as pushes
// and then a drain: PageRank's shape, where a sift goes four levels deep.
func TestBucketHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := newBucketCheck(t)
	for i := 0; i < 60_000; i++ {
		c.push(task.Task{Node: uint32(rng.Intn(1 << 20)), Job: task.JobID(rng.Intn(2)), Prio: int64(rng.Intn(8) - 4), Data: uint64(i)}, i%5 == 0)
		if i%3 == 0 {
			c.pop()
		}
	}
	c.drain()
}

// TestBucketHeapFallback: a resident span past the window's cap moves the
// queue into its binary heap with tasks queued, and the order stays exact
// through the move; a narrow span never moves it, however far the stream
// travels; a span of windowMaxW priorities is the widest that fits.
func TestBucketHeapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := newBucketCheck(t)
	for i := 0; i < 20000; i++ {
		c.push(task.Task{Node: uint32(rng.Intn(64)), Job: task.JobID(rng.Intn(2)), Prio: int64(i/4 + rng.Intn(200) - 100), Data: uint64(i)}, false)
		if i%3 == 0 {
			c.pop()
		}
	}
	if c.q.heap != nil {
		t.Fatal("a 200-class span fell back")
	}
	for i := 0; i < 2000; i++ {
		c.push(task.Task{Node: uint32(rng.Intn(64)), Prio: int64(rng.Intn(1 << 20)), Data: uint64(i)}, false)
		c.pop()
	}
	if c.q.heap == nil {
		t.Fatal("a 2^20 priority span fit the window")
	}
	c.drain()

	c = newBucketCheck(t)
	for _, p := range []int64{0, windowMaxW - 1} {
		c.push(task.Task{Prio: p}, true)
	}
	if c.q.heap != nil || c.h.heap != nil {
		t.Fatalf("a span of windowMaxW priorities fell back: BucketHeap %v, HPQ %v", c.q.heap != nil, c.h.heap != nil)
	}
	c.push(task.Task{Prio: windowMaxW}, true)
	if c.q.heap == nil || c.h.heap == nil {
		t.Fatalf("a span of windowMaxW+1 priorities fit: BucketHeap %v, HPQ %v", c.q.heap == nil, c.h.heap == nil)
	}
	c.drain()
}

// TestBucketHeapSlabTracksLive: the slab follows the tasks queued, not the
// tasks that have passed through. On three fresh queues: 2,000 drained
// buckets of 30 tasks must leave room for one of 60,000 (freed carves
// merge); a frontier of 500 tasks in a few classes streams a million tasks
// through; twenty buckets in turn swell to 50,000 tasks and drain to one,
// each giving back what it no longer uses to the next.
func TestBucketHeapSlabTracksLive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	push := func(q *BucketHeap, prio int64) {
		q.Push(task.Task{Node: uint32(rng.Intn(1 << 20)), Prio: prio})
	}
	merge := NewBucketHeap(0)
	for _, classes := range []int{2000, 1} {
		for i := 0; i < 60_000; i++ {
			push(merge, int64(i%classes))
		}
		for i := 0; i < 60_000; i++ {
			merge.Pop()
		}
	}
	stream := NewBucketHeap(0)
	for i := 0; i < 1_000_000; i++ {
		push(stream, int64(i/5000+rng.Intn(4)))
		if i >= 500 {
			stream.Pop()
		}
	}
	waves := NewBucketHeap(0)
	for wave := 0; wave < 20; wave++ {
		for i := 0; i < 50_000; i++ {
			push(waves, int64(-wave))
		}
		for i := 0; i < 50_000-1; i++ {
			waves.Pop()
		}
	}
	for _, c := range []struct {
		name  string
		q     *BucketHeap
		limit int
	}{{"60,000 tasks after 2,000 buckets of 30", merge, 1 << 16}, {"500 tasks streaming", stream, 4096}, {"50,000-task waves", waves, 1 << 17}} {
		if n := len(c.q.slab); n > c.limit {
			t.Errorf("%s: slab of %d entries, want <= %d", c.name, n, c.limit)
		}
	}
}
