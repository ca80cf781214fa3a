package bag

import (
	"testing"
	"testing/quick"

	"hdcps/internal/task"
)

// Partition is the reference partitioner: Algorithm 1's COUNT_PRIORITY +
// CREATE_BAG step written plainly, with a map of fresh group slices, which
// Partitioner must match bag for bag and single for single
// (TestPartitionerMatchesPartition). Like Partitioner's, a list that cannot
// form a bag comes back as singles unchanged; everything else does not
// alias children.
func Partition(children []task.Task, p Policy, nextID func() uint64) (bags []Bag, singles []task.Task) {
	minSize, maxSize := p.sizes()
	if p.Mode == Never || cannotBag(len(children), minSize) {
		return nil, children
	}
	// Group by quantized priority, preserving order within a group.
	// Children lists are tiny (bounded by node degree), so a simple map of
	// slices is fine.
	groups := make(map[int64][]task.Task, 8)
	order := make([]int64, 0, 8) // deterministic iteration order
	for _, c := range children {
		k := c.Prio >> p.QuantShift
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	for _, key := range order {
		g := groups[key]
		if len(g) < minSize {
			singles = append(singles, g...)
			continue
		}
		for len(g) > 0 {
			n := len(g)
			if n > maxSize {
				n = maxSize
			}
			if n < minSize {
				// Remainder smaller than the threshold: ship individually,
				// matching Algorithm 1's "else SEND(task)" branch.
				singles = append(singles, g...)
				break
			}
			bags = append(bags, Bag{ID: nextID(), Prio: minPrio(g[:n]), Tasks: g[:n]})
			g = g[n:]
		}
	}
	return bags, singles
}

func mkTasks(prios ...int64) []task.Task {
	ts := make([]task.Task, len(prios))
	for i, p := range prios {
		ts[i] = task.Task{Node: uint32(i), Prio: p}
	}
	return ts
}

func TestPartitionNever(t *testing.T) {
	var c Counter
	children := mkTasks(1, 1, 1, 1, 2)
	bags, singles := Partition(children, Policy{Mode: Never}, c.Next)
	if len(bags) != 0 || len(singles) != 5 {
		t.Fatalf("Never mode bagged: %d bags %d singles", len(bags), len(singles))
	}
}

func TestPartitionSelective(t *testing.T) {
	var c Counter
	p := DefaultPolicy() // min 3, max 10
	p.QuantShift = 0     // exact grouping for a hand-checkable case
	// 4 tasks at prio 1 (bag), 2 at prio 2 (singles), 1 at prio 3 (single).
	children := mkTasks(1, 1, 2, 1, 3, 2, 1)
	bags, singles := Partition(children, p, c.Next)
	if len(bags) != 1 {
		t.Fatalf("got %d bags, want 1", len(bags))
	}
	if bags[0].Prio != 1 || len(bags[0].Tasks) != 4 {
		t.Fatalf("bag = prio %d size %d", bags[0].Prio, len(bags[0].Tasks))
	}
	if len(singles) != 3 {
		t.Fatalf("got %d singles, want 3", len(singles))
	}
	for _, s := range singles {
		if s.Prio == 1 {
			t.Fatalf("prio-1 task leaked into singles: %v", s)
		}
	}
}

func TestPartitionAlways(t *testing.T) {
	var c Counter
	p := DefaultPolicy()
	p.Mode = Always
	p.QuantShift = 0
	children := mkTasks(1, 2, 2, 3)
	bags, singles := Partition(children, p, c.Next)
	if len(singles) != 0 {
		t.Fatalf("Always mode left %d singles", len(singles))
	}
	if len(bags) != 3 {
		t.Fatalf("got %d bags, want 3 (one per priority)", len(bags))
	}
}

func TestPartitionMaxSizeSplit(t *testing.T) {
	var c Counter
	p := Policy{Mode: Selective, MinSize: 3, MaxSize: 10}
	children := make([]task.Task, 25) // all prio 0
	bags, singles := Partition(children, p, c.Next)
	// 25 = 10 + 10 + 5(>=3, so a third bag).
	if len(bags) != 3 || len(singles) != 0 {
		t.Fatalf("got %d bags %d singles", len(bags), len(singles))
	}
	if len(bags[0].Tasks) != 10 || len(bags[1].Tasks) != 10 || len(bags[2].Tasks) != 5 {
		t.Fatalf("split sizes: %d %d %d", len(bags[0].Tasks), len(bags[1].Tasks), len(bags[2].Tasks))
	}
}

func TestPartitionRemainderBelowMin(t *testing.T) {
	var c Counter
	p := Policy{Mode: Selective, MinSize: 3, MaxSize: 10}
	children := make([]task.Task, 12) // 10 + 2: remainder below MinSize
	bags, singles := Partition(children, p, c.Next)
	if len(bags) != 1 || len(bags[0].Tasks) != 10 {
		t.Fatalf("got %d bags", len(bags))
	}
	if len(singles) != 2 {
		t.Fatalf("remainder should ship individually, got %d singles", len(singles))
	}
}

func TestPartitionQuantized(t *testing.T) {
	// With the default 2-bit quantization, priorities 4..7 share a bag and
	// the bag carries the group's best priority.
	var c Counter
	bags, singles := Partition(mkTasks(7, 4, 5, 20, 6), DefaultPolicy(), c.Next)
	if len(bags) != 1 || len(singles) != 1 {
		t.Fatalf("got %d bags %d singles, want 1/1", len(bags), len(singles))
	}
	if bags[0].Prio != 4 || len(bags[0].Tasks) != 4 {
		t.Fatalf("bag prio=%d size=%d, want 4/4", bags[0].Prio, len(bags[0].Tasks))
	}
	if singles[0].Prio != 20 {
		t.Fatalf("single prio=%d, want 20", singles[0].Prio)
	}
}

func TestPartitionUniqueIDs(t *testing.T) {
	var c Counter
	p := DefaultPolicy()
	p.Mode = Always
	children := mkTasks(1, 1, 2, 2, 3, 3)
	bags, _ := Partition(children, p, c.Next)
	seen := map[uint64]bool{}
	for _, b := range bags {
		if seen[b.ID] {
			t.Fatalf("duplicate bag ID %d", b.ID)
		}
		seen[b.ID] = true
	}
}

func TestPartitionEmpty(t *testing.T) {
	var c Counter
	bags, singles := Partition(nil, DefaultPolicy(), c.Next)
	if bags != nil || singles != nil {
		t.Fatalf("empty input produced output: %v %v", bags, singles)
	}
}

// TestPartitionConservation: every child ends up in exactly one bag or in
// singles, bags are homogeneous in priority and within policy bounds.
func TestPartitionConservation(t *testing.T) {
	err := quick.Check(func(raw []uint8, mode uint8) bool {
		var c Counter
		p := DefaultPolicy()
		p.Mode = Mode(mode % 3)
		children := make([]task.Task, len(raw))
		for i, r := range raw {
			children[i] = task.Task{Node: uint32(i), Prio: int64(r % 7)}
		}
		bags, singles := Partition(children, p, c.Next)
		total := len(singles)
		for _, b := range bags {
			total += len(b.Tasks)
			if len(b.Tasks) > p.MaxSize && p.Mode != Always {
				return false
			}
			for _, tk := range b.Tasks {
				if tk.Prio>>p.QuantShift != b.Tasks[0].Prio>>p.QuantShift {
					return false // bag spans quantization buckets
				}
				if tk.Prio < b.Prio {
					return false // bag priority must be its best task's
				}
			}
			if p.Mode == Selective && len(b.Tasks) < p.MinSize {
				return false
			}
		}
		if total != len(children) {
			return false // lost or duplicated a task
		}
		// Node IDs (unique here) must be conserved as a set.
		seen := make(map[uint32]bool, len(children))
		mark := func(tk task.Task) bool {
			if seen[tk.Node] {
				return false
			}
			seen[tk.Node] = true
			return true
		}
		for _, s := range singles {
			if !mark(s) {
				return false
			}
		}
		for _, b := range bags {
			for _, tk := range b.Tasks {
				if !mark(tk) {
					return false
				}
			}
		}
		return len(seen) == len(children)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

// TestPartitionerMatchesPartition is the equivalence property: for any
// children list and policy shape, the reusable-scratch Partitioner must
// produce exactly the bags and singles of the allocating Partition,
// including bag boundaries, IDs, priorities, and ordering — and it must
// keep doing so across reuse of the same Partitioner. Random lists are
// mostly long, so every policy shape is also swept over the short lengths
// 0..MinSize+1, where the fast path hands over to grouping.
func TestPartitionerMatchesPartition(t *testing.T) {
	var pt Partitioner
	policy := func(mode, minSize, maxSize, shift uint8) Policy {
		return Policy{
			Mode:       Mode(mode % 3),
			MinSize:    int(minSize % 6),
			MaxSize:    int(maxSize % 12),
			QuantShift: uint(shift % 5),
		}
	}
	err := quick.Check(func(raw []int8, mode uint8, minSize, maxSize uint8, shift uint8) bool {
		children := make([]task.Task, len(raw))
		for i, p := range raw {
			children[i] = task.Task{Node: uint32(i), Prio: int64(p)}
		}
		return samePartition(t, &pt, children, policy(mode, minSize, maxSize, shift))
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
	var rng uint64 = 7
	for mode := uint8(0); mode < 3; mode++ {
		for minSize := uint8(0); minSize < 6; minSize++ {
			for _, maxSize := range []uint8{0, 2, 5} {
				for _, shift := range []uint8{0, 2} {
					pol := policy(mode, minSize, maxSize, shift)
					for n := 0; n <= pol.MinSize+1; n++ {
						children := make([]task.Task, n)
						for i := range children {
							rng = rng*6364136223846793005 + 1442695040888963407
							children[i] = task.Task{Node: uint32(i), Prio: int64(rng>>61) - 3}
						}
						if !samePartition(t, &pt, children, pol) {
							t.Errorf("%+v, %d children: Partitioner and Partition differ", pol, n)
						}
					}
				}
			}
		}
	}
}

// samePartition runs children through Partition and pt under pol and reports
// whether the two outputs agree exactly.
func samePartition(t *testing.T, pt *Partitioner, children []task.Task, pol Policy) bool {
	var c1, c2 Counter
	wantBags, wantSingles := Partition(children, pol, c1.Next)
	gotBags, gotSingles := pt.Partition(children, pol, c2.Next)
	if len(wantBags) != len(gotBags) || len(wantSingles) != len(gotSingles) {
		t.Logf("shape mismatch: %d/%d bags, %d/%d singles",
			len(gotBags), len(wantBags), len(gotSingles), len(wantSingles))
		return false
	}
	for i := range wantBags {
		w, g := wantBags[i], gotBags[i]
		if w.ID != g.ID || w.Prio != g.Prio || len(w.Tasks) != len(g.Tasks) {
			return false
		}
		for j := range w.Tasks {
			if w.Tasks[j] != g.Tasks[j] {
				return false
			}
		}
	}
	for i := range wantSingles {
		if wantSingles[i] != gotSingles[i] {
			return false
		}
	}
	return true
}

// TestPartitionFastPath: a list shorter than min(threshold, 3) cannot form a
// bag, so both partitioners hand it back as it is — the very slice, in
// order — without grouping, allocating, or drawing a bag ID. Under Always
// the threshold is 1, so only the empty list qualifies.
func TestPartitionFastPath(t *testing.T) {
	noID := func() uint64 { t.Fatal("fast path drew a bag ID"); return 0 }
	lists := [][]task.Task{nil, mkTasks(5), mkTasks(5, 5), mkTasks(9, 2), mkTasks(2, 9)}
	var pt Partitioner
	for _, mode := range []Mode{Selective, Always} {
		for minSize := 0; minSize <= 5; minSize++ {
			pol := DefaultPolicy()
			pol.Mode, pol.MinSize = mode, minSize
			limit := min(max(minSize, 1), 3)
			if mode == Always {
				limit = 1
			}
			for _, children := range lists {
				if len(children) >= limit {
					continue
				}
				for name, part := range map[string]func() ([]Bag, []task.Task){
					"Partition":   func() ([]Bag, []task.Task) { return Partition(children, pol, noID) },
					"Partitioner": func() ([]Bag, []task.Task) { return pt.Partition(children, pol, noID) },
				} {
					bags, singles := part()
					if len(bags) != 0 || len(singles) != len(children) ||
						(len(children) > 0 && &singles[0] != &children[0]) {
						t.Errorf("%s %v min %d, %d children: got %d bags, %d singles (want the input slice)",
							name, mode, minSize, len(children), len(bags), len(singles))
					}
					if allocs := testing.AllocsPerRun(100, func() { part() }); allocs != 0 {
						t.Errorf("%s %v min %d, %d children: %.0f allocs", name, mode, minSize, len(children), allocs)
					}
				}
			}
		}
	}
}

// BenchmarkPartition times both partitioners on a 12-child list that bags,
// and on the one- and two-child lists a road-network solve mostly emits.
func BenchmarkPartition(b *testing.B) {
	pol := DefaultPolicy()
	for _, tc := range []struct {
		name     string
		children []task.Task
	}{
		{"12", mkTasks(4, 4, 4, 4, 5, 5, 8, 9, 4, 5, 5, 4)},
		{"1", mkTasks(4)},
		{"2", mkTasks(4, 9)},
	} {
		b.Run("map/"+tc.name, func(b *testing.B) {
			var c Counter
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Partition(tc.children, pol, c.Next)
			}
		})
		b.Run("scratch/"+tc.name, func(b *testing.B) {
			var c Counter
			var pt Partitioner
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pt.Partition(tc.children, pol, c.Next)
			}
		})
	}
}

func TestTransportString(t *testing.T) {
	if Pull.String() != "pull" || Push.String() != "push" {
		t.Fatal("transport names wrong")
	}
	if Never.String() != "never" || Always.String() != "AC" || Selective.String() != "SC" {
		t.Fatal("mode names wrong")
	}
}
