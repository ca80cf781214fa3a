package sim

// noc models the electrical 2-D mesh with X-Y dimension-order routing of
// Table I: 2 cycles per hop (1 router + 1 link), 64-bit flits, and link
// contention only (infinite input buffers), exactly the paper's contention
// model. Each directed link tracks the cycle at which it next becomes free;
// a message's flits must serialize through every link on its route.
type noc struct {
	w   int
	hop int64
	// linkFree[tile*4+dir] is the next free cycle of the directed link
	// leaving tile in direction dir.
	linkFree []int64
}

// link directions.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

func newNoC(cfg Config) *noc {
	return &noc{
		w:        cfg.MeshW,
		hop:      cfg.HopCycles,
		linkFree: make([]int64, cfg.MeshW*cfg.MeshH*4),
	}
}

// route sends flits from core src to core dst starting at cycle depart and
// returns the arrival cycle at dst. X-Y routing: move along X to the
// destination column, then along Y.
func (n *noc) route(src, dst int, flits, depart int64) int64 {
	if src == dst {
		return depart + n.hop // local loopback through the router
	}
	t := depart
	x, y := src%n.w, src/n.w
	dx, dy := dst%n.w, dst/n.w
	step := func(tile, dir int) {
		l := tile*4 + dir
		if n.linkFree[l] > t {
			t = n.linkFree[l] // wait for the link (contention)
		}
		n.linkFree[l] = t + flits // serialize our flits
		t += n.hop                // head flit advances one hop
	}
	for x != dx {
		if dx > x {
			step(y*n.w+x, dirEast)
			x++
		} else {
			step(y*n.w+x, dirWest)
			x--
		}
	}
	for y != dy {
		if dy > y {
			step(y*n.w+x, dirSouth)
			y++
		} else {
			step(y*n.w+x, dirNorth)
			y--
		}
	}
	// Tail flits drain behind the head.
	return t + flits - 1
}

// hops returns the Manhattan distance between two cores (used by cost
// heuristics and tests).
func (n *noc) hops(src, dst int) int64 {
	x, y := src%n.w, src/n.w
	dx, dy := dst%n.w, dst/n.w
	h := x - dx
	if h < 0 {
		h = -h
	}
	v := y - dy
	if v < 0 {
		v = -v
	}
	return int64(h + v)
}
