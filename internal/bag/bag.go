// Package bag implements HD-CPS's adaptive bags of tasks (§III-B,
// Algorithm 1). Children tasks generated with the same priority are bundled
// into a bag; only the bag's metadata travels through a core's priority
// queue, which cuts the number of PQ operations. A runtime heuristic decides
// per priority group whether bagging pays off: groups smaller than a minimum
// threshold ship as individual tasks, and bags are capped so a huge bag
// cannot bind a core while higher-priority work waits.
package bag

import "hdcps/internal/task"

// Transport selects how a bag's payload reaches the consuming core (§III-B,
// Fig. 14).
type Transport int

const (
	// Pull stores the payload at the sender; the consumer fetches it with
	// coherent loads when the bag's metadata is dequeued. This is HD-CPS's
	// default: payload moves on demand and exploits locality.
	Pull Transport = iota
	// Push ships the payload together with the metadata at creation time.
	Push
)

// String returns "pull" or "push".
func (t Transport) String() string {
	if t == Push {
		return "push"
	}
	return "pull"
}

// Mode selects the bag-creation policy of a scheduler configuration.
type Mode int

const (
	// Never disables bags entirely (the sRQ and sRQ+TDF configurations).
	Never Mode = iota
	// Always creates a bag for every priority group regardless of size
	// (the paper's AC configuration).
	Always
	// Selective applies Algorithm 1's threshold test (the SC configuration,
	// used by HD-CPS proper).
	Selective
)

// String returns the configuration label used in the paper.
func (m Mode) String() string {
	switch m {
	case Always:
		return "AC"
	case Selective:
		return "SC"
	default:
		return "never"
	}
}

// Policy holds the bag-creation thresholds.
type Policy struct {
	Mode Mode
	// MinSize is the smallest priority group worth bagging (paper: 3).
	// Groups below it ship as individual tasks.
	MinSize int
	// MaxSize caps a single bag (paper: <10) so a core is never bound to a
	// huge bag while higher-priority work waits; larger groups split.
	MaxSize int
	// QuantShift widens the grouping: children whose priorities match in
	// prio >> QuantShift go into the same bag (the paper bundles tasks
	// "with approximate priorities"). 0 groups by exact priority.
	QuantShift uint
	// Transport selects pull or push payload delivery.
	Transport Transport
}

// DefaultPolicy returns the paper's tuned configuration: selective creation
// with group threshold 3, bag cap 10, two-bit priority quantization, pull
// transport.
func DefaultPolicy() Policy {
	return Policy{Mode: Selective, MinSize: 3, MaxSize: 10, QuantShift: 2, Transport: Pull}
}

// Bag is a bundle of proximate-priority tasks. Only ID and Prio (the
// metadata, one 128-bit hardware entry) enter a priority queue; Tasks is
// the payload, held at the producer (Pull) or carried along (Push). Prio is
// the best (smallest) priority in the bag.
type Bag struct {
	ID    uint64
	Prio  int64
	Tasks []task.Task
}

// sizes returns the group threshold and bag cap the policy's mode puts in
// force: Always bags every group, and a cap never undercuts the threshold.
func (p *Policy) sizes() (minSize, maxSize int) {
	minSize, maxSize = p.MinSize, p.MaxSize
	if p.Mode == Always || minSize < 1 {
		minSize = 1
	}
	return minSize, max(maxSize, minSize)
}

// cannotBag reports that a list of n children, under group threshold
// minSize, forms no bag and that grouping would not reorder it: every group
// is smaller than the threshold, so all n ship as singles, and a list of at
// most two keeps its order however it groups. Grouping such a list is a
// no-op, and it is what nearly every task of a road-network SSSP emits, so
// the partitioners return it as it is, without a pass.
func cannotBag(n, minSize int) bool {
	return n < min(minSize, 3)
}

// Partitioner implements Algorithm 1's COUNT_PRIORITY + CREATE_BAG step
// without allocating: all scratch (the group index, the returned bags and
// singles) is reused across calls. The returned slices — including every
// Bag's Tasks — are valid only until the next Partition call on the same
// Partitioner and must be copied if retained. The tests hold it to a plain
// map-based reference, Partition in bag_test.go
// (TestPartitionerMatchesPartition).
//
// Children lists are bounded by node degree, so grouping uses a linear key
// scan instead of a map: for the handful of distinct quantized priorities a
// task emits, the scan is both faster and free of per-call map allocation
// (which dominated the native runtime's allocation profile).
type Partitioner struct {
	keys    []int64
	groups  [][]task.Task
	bags    []Bag
	singles []task.Task
}

// Partition groups children by quantized priority (preserving generation
// order within a group) and splits them into bags and individual tasks
// according to the policy; nextID supplies fresh bag identifiers. See the
// type comment for the aliasing contract. A list that cannot form a bag
// (cannotBag) comes back as singles unchanged — the same slice, in the order
// grouping would give it — so the caller must not reuse its children buffer
// before it is done with singles.
func (pt *Partitioner) Partition(children []task.Task, p Policy, nextID func() uint64) (bags []Bag, singles []task.Task) {
	minSize, maxSize := p.sizes()
	if p.Mode == Never || cannotBag(len(children), minSize) {
		return nil, children
	}
	pt.keys = pt.keys[:0]
	pt.bags = pt.bags[:0]
	pt.singles = pt.singles[:0]
	for _, c := range children {
		k := c.Prio >> p.QuantShift
		found := -1
		for i, key := range pt.keys {
			if key == k {
				found = i
				break
			}
		}
		if found < 0 {
			pt.keys = append(pt.keys, k)
			found = len(pt.keys) - 1
			if found == len(pt.groups) {
				pt.groups = append(pt.groups, nil)
			}
			pt.groups[found] = pt.groups[found][:0]
		}
		pt.groups[found] = append(pt.groups[found], c)
	}
	for i := range pt.keys {
		g := pt.groups[i]
		if len(g) < minSize {
			pt.singles = append(pt.singles, g...)
			continue
		}
		for len(g) > 0 {
			n := len(g)
			if n > maxSize {
				n = maxSize
			}
			if n < minSize {
				pt.singles = append(pt.singles, g...)
				break
			}
			pt.bags = append(pt.bags, Bag{ID: nextID(), Prio: minPrio(g[:n]), Tasks: g[:n]})
			g = g[n:]
		}
	}
	return pt.bags, pt.singles
}

func minPrio(ts []task.Task) int64 {
	m := ts[0].Prio
	for _, t := range ts[1:] {
		if t.Prio < m {
			m = t.Prio
		}
	}
	return m
}

// Counter is a trivial bag-ID allocator for single-threaded contexts such
// as the simulator.
type Counter uint64

// Next returns a fresh ID.
func (c *Counter) Next() uint64 {
	*c++
	return uint64(*c)
}
