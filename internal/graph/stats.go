package graph

import "fmt"

// Stats summarizes a graph the way the paper's Table II does.
type Stats struct {
	Name   string
	Nodes  int
	Edges  int
	AvgDeg float64
	MaxDeg int
	MinDeg int
}

// ComputeStats returns degree statistics for g.
func ComputeStats(g *CSR) Stats {
	n := g.NumNodes()
	s := Stats{Name: g.Name, Nodes: n, Edges: g.NumEdges(), MinDeg: int(^uint(0) >> 1)}
	if n == 0 {
		s.MinDeg = 0
		return s
	}
	for u := 0; u < n; u++ {
		d := g.OutDegree(NodeID(u))
		if d > s.MaxDeg {
			s.MaxDeg = d
		}
		if d < s.MinDeg {
			s.MinDeg = d
		}
	}
	s.AvgDeg = float64(s.Edges) / float64(n)
	return s
}

// String formats the stats as a Table II row.
func (s Stats) String() string {
	return fmt.Sprintf("%-16s nodes=%-9d edges=%-10d avgdeg=%-6.1f maxdeg=%-6d",
		s.Name, s.Nodes, s.Edges, s.AvgDeg, s.MaxDeg)
}

// LargestComponentSeed returns a node from which a large fraction of the
// graph is reachable, found by probing a few deterministic candidates with
// truncated BFS. A candidate that an earlier probe already reached is not
// probed (it cannot reach more), so on a graph where the first probe reaches
// every other candidate, one BFS decides. Workloads use it as the default source so SSSP/BFS/A* do
// meaningful work on generated graphs.
func LargestComponentSeed(g *CSR) NodeID {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	best, bestReach := NodeID(0), -1
	seen := make([]uint32, n)
	epoch := uint32(0)
	queue := make([]NodeID, 0, 1024)
	for probe := 0; probe < 8; probe++ {
		src := NodeID(probe * n / 8)
		if seen[src] != 0 {
			// An earlier probe reached src. If that BFS ran out, src
			// reaches a subset of what it counted; if it stopped at
			// reachLimit, nothing beats it. Either way src cannot win.
			continue
		}
		epoch++
		queue = queue[:0]
		queue = append(queue, src)
		seen[src] = epoch
		reach := 0
		const reachLimit = 200000
		for i := 0; i < len(queue) && reach < reachLimit; i++ {
			u := queue[i]
			reach++
			dsts, _ := g.Neighbors(u)
			for _, v := range dsts {
				if seen[v] != epoch {
					seen[v] = epoch
					queue = append(queue, v)
				}
			}
		}
		if reach > bestReach {
			best, bestReach = src, reach
		}
	}
	return best
}
