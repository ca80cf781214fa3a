package exp

import (
	"fmt"
	"sync"

	"hdcps/internal/graph"
	"hdcps/internal/workload"
)

// Pair is one workload-input combination from the paper's evaluation.
type Pair struct {
	Workload string
	Input    string
}

// Label returns the figure-style label, e.g. "sssp-road".
func (p Pair) Label() string { return p.Workload + "-" + p.Input }

// pairs returns the workload-input matrix of Figures 3/5/6/8/9: the paper
// pairs SSSP/A*/BFS with CAGE and the USA road network, MST/Color with the
// road network (Color also with web-Google), and PageRank with the web
// graphs.
func pairs() []Pair {
	return []Pair{
		{"sssp", "cage"}, {"sssp", "road"},
		{"astar", "cage"}, {"astar", "road"},
		{"bfs", "road"},
		{"mst", "road"},
		{"color", "road"}, {"color", "web"},
		{"pagerank", "web"}, {"pagerank", "lj"},
	}
}

// inputSizes maps scale -> per-input sizing. The paper's graphs have
// millions of nodes; the simulator reproduces the same relative behaviour
// at reduced sizes (DESIGN.md documents the substitution).
type sizing struct {
	roadW, roadH int
	cageN        int
	webN         int
	ljN          int
}

// sizes is not graph.Builtin's table, on purpose: web and lj are smaller here
// at small and large (5000/4000, 20000/15000), and every recorded figure
// (results_small.txt, EXPERIMENTS.md) was produced at these.
func sizes(scale string) (sizing, error) {
	// Sizes are chosen so the task frontier stays wide relative to the
	// core count, as it is for the paper's multi-million-node inputs; a
	// frontier narrower than cores*chunk starves every pull scheduler and
	// distorts the comparison.
	switch scale {
	case "tiny":
		return sizing{roadW: 48, roadH: 48, cageN: 1500, webN: 1500, ljN: 1200}, nil
	case "small":
		return sizing{roadW: 120, roadH: 120, cageN: 8000, webN: 5000, ljN: 4000}, nil
	case "large":
		return sizing{roadW: 240, roadH: 240, cageN: 30000, webN: 20000, ljN: 15000}, nil
	default:
		return sizing{}, fmt.Errorf("exp: unknown scale %q (tiny, small, large)", scale)
	}
}

// inputSet builds the four evaluation inputs at the requested scale. Graphs
// are cached per (scale, seed) because generation dominates small runs.
type inputSet struct {
	graphs map[string]*graph.CSR
	// protos holds each pair's prototype workload, which workloadFor clones,
	// so the source seed, the symmetrized graph, the bucket width and the
	// reference answer are computed once a pair, not once a cell. seq caches
	// each pair's sequential task count on these graphs, the denominator of
	// work efficiency. Concurrent cells that miss together compute the same
	// value and keep the first one stored; mu only protects the maps.
	mu     sync.Mutex
	protos map[Pair]workload.Workload
	seq    map[Pair]int64
}

// inputMu guards inputCache: experiments may build inputs from concurrent
// grid cells (parallelMap). Generation is deterministic per key, so a rare
// duplicated build stores an identical set; the lock only protects the map.
var (
	inputMu    sync.Mutex
	inputCache = map[string]*inputSet{}
)

func inputs(o Options) (*inputSet, error) {
	key := fmt.Sprintf("%s-%d", o.Scale, o.Seed)
	inputMu.Lock()
	s, ok := inputCache[key]
	inputMu.Unlock()
	if ok {
		return s, nil
	}
	sz, err := sizes(o.Scale)
	if err != nil {
		return nil, err
	}
	s = &inputSet{protos: map[Pair]workload.Workload{}, seq: map[Pair]int64{}, graphs: map[string]*graph.CSR{
		"road": graph.Road(sz.roadW, sz.roadH, o.Seed),
		"cage": graph.Cage(sz.cageN, 34, 80, o.Seed),
		"web":  graph.Web(sz.webN, o.Seed),
		"lj":   graph.LJ(sz.ljN, o.Seed),
	}}
	inputMu.Lock()
	if prior, ok := inputCache[key]; ok {
		s = prior // keep the first stored set so pointers stay stable
	} else {
		inputCache[key] = s
	}
	inputMu.Unlock()
	return s, nil
}

// workloadFor returns a fresh instance of a pair's workload: a Clone of the
// pair's prototype.
func (s *inputSet) workloadFor(p Pair) (workload.Workload, error) {
	s.mu.Lock()
	proto, ok := s.protos[p]
	s.mu.Unlock()
	if !ok {
		g, ok := s.graphs[p.Input]
		if !ok {
			return nil, fmt.Errorf("exp: unknown input %q", p.Input)
		}
		w, err := workload.New(p.Workload, g)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		if proto, ok = s.protos[p]; !ok {
			proto = w
			s.protos[p] = w
		}
		s.mu.Unlock()
	}
	return proto.Clone(), nil
}

// seqTasks returns p's sequential task count on this set's graphs.
func (s *inputSet) seqTasks(p Pair) (int64, error) {
	s.mu.Lock()
	v, ok := s.seq[p]
	s.mu.Unlock()
	if ok {
		return v, nil
	}
	w, err := s.workloadFor(p)
	if err != nil {
		return 0, err
	}
	n := workload.RunSequential(w)
	s.mu.Lock()
	s.seq[p] = n
	s.mu.Unlock()
	return n, nil
}
