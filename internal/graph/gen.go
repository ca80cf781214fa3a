package graph

import (
	"fmt"
	"math"
)

// The paper evaluates four real inputs (Table II). We cannot ship those
// datasets, so each generator below produces a deterministic synthetic graph
// matching the *shape* the paper's analysis depends on: degree distribution,
// density, and diameter class. DESIGN.md documents the substitution.
//
//	CAGE14      -> Cage:  quasi-regular banded graph, avg deg ~34, max 80
//	rUSA        -> Road:  sparse planar grid+shortcuts, avg deg ~2.4, huge diameter
//	Web-Google  -> Web:   power-law, avg deg ~11, heavy tail
//	LiveJournal -> LJ:    denser power-law, avg deg ~28, heavier tail
//
// Grid additionally produces a weighted 2-D lattice with coordinates for A*.

// Road generates a road-network-like graph: a w-by-h planar lattice where
// most nodes keep 2-3 undirected street segments (emitted as directed edge
// pairs) plus sparse long "highway" shortcuts. Weights model segment lengths
// in 1..1000. The result has tiny average degree and very large diameter,
// the two properties that make rUSA stress priority schedulers. Each segment
// lands in two rows at once, so Road stages its edges for FromEdges.
func Road(w, h int, seed uint64) *CSR {
	r := NewRNG(seed ^ 0x0ad)
	n := w * h
	id := func(x, y int) NodeID { return NodeID(y*w + x) }
	edges := make([]Edge, 0, n*5/2)
	undirected := func(a, b NodeID, wt uint32) {
		edges = append(edges, Edge{a, b, wt}, Edge{b, a, wt})
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := id(x, y)
			// Streets: keep ~95% of lattice edges so the graph stays almost
			// connected but irregular, like a road network with dead ends.
			if x+1 < w && r.Float64() < 0.95 {
				undirected(u, id(x+1, y), 1+r.Uint32n(1000))
			}
			if y+1 < h && r.Float64() < 0.95 {
				undirected(u, id(x, y+1), 1+r.Uint32n(1000))
			}
			// Rare highways: long-range shortcut with proportionally large
			// weight, ~0.2% of nodes.
			if r.Float64() < 0.002 {
				v := NodeID(r.Intn(n))
				if v != u {
					undirected(u, v, 2000+r.Uint32n(8000))
				}
			}
		}
	}
	g, err := FromEdges(fmt.Sprintf("road-%dx%d", w, h), n, edges)
	if err != nil {
		panic(err) // generator emits only in-range edges
	}
	attachLatticeCoords(g, w, h)
	return g
}

// newRows starts an n-node CSR that a generator fills one row at a time, in
// node order: append node u's out-edges to Dst and Wt, then endRow. The
// result is the CSR FromEdges builds from the same edges in the same order,
// without staging them in a []Edge first.
func newRows(name string, n, edgeCap int) *CSR {
	return &CSR{
		Name: name,
		Off:  make([]uint32, 1, n+1),
		Dst:  make([]NodeID, 0, edgeCap),
		Wt:   make([]uint32, 0, edgeCap),
	}
}

// endRow closes the row being appended: the next edges belong to the next
// node.
func (g *CSR) endRow() { g.Off = append(g.Off, uint32(len(g.Dst))) }

// attachLatticeCoords assigns (x, y) positions by row-major lattice layout so
// geometric workloads (A*) have an admissible heuristic to work with.
func attachLatticeCoords(g *CSR, w, h int) {
	n := g.NumNodes()
	g.X = make([]float32, n)
	g.Y = make([]float32, n)
	for i := 0; i < n; i++ {
		g.X[i] = float32(i % w)
		g.Y[i] = float32(i / w)
	}
	_ = h
}

// Cage generates a CAGE14-like graph: node i is connected to approximately
// avgDeg neighbors drawn from a band around i (banded-matrix structure with
// strong locality), with per-node degree capped at maxDeg. Weights are small
// (1..64), as for a matrix graph. The result is dense, low-diameter, and
// quasi-regular: the regime where bags of tasks pay off.
func Cage(n, avgDeg, maxDeg int, seed uint64) *CSR {
	if avgDeg < 1 || maxDeg < avgDeg {
		panic("graph: Cage requires 1 <= avgDeg <= maxDeg")
	}
	r := NewRNG(seed ^ 0xca9e)
	band := 4 * avgDeg
	if band >= n {
		band = n - 1
	}
	g := newRows(fmt.Sprintf("cage-%d", n), n, n*avgDeg)
	for i := 0; i < n; i++ {
		// Degree jitters around avgDeg within [avgDeg/2, maxDeg].
		d := avgDeg/2 + r.Intn(avgDeg)
		if r.Float64() < 0.02 { // a few heavy rows, up to maxDeg
			d = avgDeg + r.Intn(maxDeg-avgDeg+1)
		}
		for k := 0; k < d; k++ {
			var j int
			if r.Float64() < 0.9 { // banded neighbor
				j = i - band/2 + r.Intn(band+1)
			} else { // occasional long-range coupling
				j = r.Intn(n)
			}
			if j < 0 {
				j += n
			}
			if j >= n {
				j -= n
			}
			if j == i {
				continue
			}
			g.Dst = append(g.Dst, NodeID(j))
			g.Wt = append(g.Wt, 1+r.Uint32n(64))
		}
		g.endRow()
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	attachLatticeCoords(g, side, (n+side-1)/side)
	return g
}

// powerLaw generates a directed preferential-attachment graph with the given
// average out-degree and power-law exponent. Destination sampling repeats
// earlier endpoints, reproducing the rich-get-richer in-degree tail observed
// in web and social graphs.
func powerLaw(name string, n, avgDeg int, alpha float64, maxDegFrac float64, seed uint64) *CSR {
	r := NewRNG(seed)
	// Out-degree tail cap: scales with density, not graph size, so small
	// test graphs keep the target average; the extreme in-degree tail comes
	// from preferential attachment, not from this cap.
	maxDeg := 10 * avgDeg
	if frac := int(maxDegFrac * float64(n)); frac > maxDeg {
		maxDeg = frac
	}
	if maxDeg >= n {
		maxDeg = n - 1
	}
	g := newRows(name, n, n*avgDeg)
	// endpoint pool for preferential attachment; seeded with a small clique
	// so early samples are valid.
	pool := make([]NodeID, 0, n*avgDeg/2)
	for i := 0; i < 8 && i < n; i++ {
		pool = append(pool, NodeID(i))
	}
	// Calibrate the Zipf draw so the mean lands near avgDeg: for bounded
	// Pareto the mean is a function of alpha, so scale samples linearly.
	sum := 0
	probe := NewRNG(seed ^ 0x5ca1e)
	const probes = 4096
	for i := 0; i < probes; i++ {
		sum += probe.Zipf(alpha, maxDeg)
	}
	scale := float64(avgDeg) * probes / float64(sum)
	for i := 0; i < n; i++ {
		d := int(float64(r.Zipf(alpha, maxDeg)) * scale)
		if d < 1 {
			d = 1
		}
		if d > maxDeg {
			d = maxDeg
		}
		for k := 0; k < d; k++ {
			var v NodeID
			if r.Float64() < 0.7 { // preferential
				v = pool[r.Intn(len(pool))]
			} else { // uniform, keeps the graph expanding
				v = NodeID(r.Intn(n))
			}
			if v == NodeID(i) {
				continue
			}
			g.Dst = append(g.Dst, v)
			g.Wt = append(g.Wt, 1+r.Uint32n(100))
			pool = append(pool, v)
		}
		g.endRow()
		pool = append(pool, NodeID(i))
	}
	return g
}

// Web generates a Web-Google-like power-law graph: avg out-degree ~11 with a
// heavy in-degree tail (max in the thousands at full scale).
func Web(n int, seed uint64) *CSR {
	return powerLaw(fmt.Sprintf("web-%d", n), n, 11, 2.1, 0.008, seed^0x3eb)
}

// LJ generates a LiveJournal-like power-law graph: denser (avg deg ~28) with
// an even heavier tail.
func LJ(n int, seed uint64) *CSR {
	return powerLaw(fmt.Sprintf("lj-%d", n), n, 28, 1.9, 0.004, seed^0x17)
}

// Grid generates a fully connected w-by-h 4-neighbor lattice with Euclidean
// coordinates and weights in [1, maxWt]. It is the input for the A* workload
// (the admissible heuristic needs geometry). Like Road, it emits each
// lattice edge into two rows at once and stages its edges for FromEdges.
func Grid(w, h int, maxWt uint32, seed uint64) *CSR {
	if maxWt == 0 {
		maxWt = 1
	}
	r := NewRNG(seed ^ 0x9a1d)
	n := w * h
	id := func(x, y int) NodeID { return NodeID(y*w + x) }
	edges := make([]Edge, 0, 4*n)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := id(x, y)
			if x+1 < w {
				wt := 1 + r.Uint32n(maxWt)
				edges = append(edges, Edge{u, id(x+1, y), wt}, Edge{id(x+1, y), u, wt})
			}
			if y+1 < h {
				wt := 1 + r.Uint32n(maxWt)
				edges = append(edges, Edge{u, id(x, y+1), wt}, Edge{id(x, y+1), u, wt})
			}
		}
	}
	g, err := FromEdges(fmt.Sprintf("grid-%dx%d", w, h), n, edges)
	if err != nil {
		panic(err)
	}
	g.X = make([]float32, n)
	g.Y = make([]float32, n)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.X[id(x, y)] = float32(x)
			g.Y[id(x, y)] = float32(y)
		}
	}
	return g
}

// builtinSizes sizes the builtin inputs at each scale: road and grid by
// lattice side, the others by node count.
var builtinSizes = map[string]struct{ road, cage, web, lj, grid int }{
	"tiny":  {48, 1500, 1500, 1200, 32},
	"small": {120, 8000, 8000, 6000, 64},
	"large": {240, 30000, 30000, 20000, 128},
}

// Builtin generates the named synthetic input (road, cage, web, lj, grid) at
// a scale (tiny, small, large): the one sizing the CLI tools and the server
// share. (internal/exp sizes its own inputs, on purpose.)
func Builtin(name, scale string, seed uint64) (*CSR, error) {
	z, ok := builtinSizes[scale]
	if !ok {
		return nil, fmt.Errorf("graph: unknown scale %q (tiny, small, large)", scale)
	}
	switch name {
	case "road":
		return Road(z.road, z.road, seed), nil
	case "cage":
		return Cage(z.cage, 34, 80, seed), nil
	case "web":
		return Web(z.web, seed), nil
	case "lj":
		return LJ(z.lj, seed), nil
	case "grid":
		return Grid(z.grid, z.grid, 100, seed), nil
	}
	return nil, fmt.Errorf("graph: unknown input %q (road, cage, web, lj, grid)", name)
}
