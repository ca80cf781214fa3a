package main

import (
	"sync"
	"time"
)

// The sandbox this benchmark runs in does not hold still: its two virtual
// CPUs are at times scheduled onto one physical one, from one tenth of a
// second to the next, and how often changes over minutes. The same pagerank
// solve has a median of 91 ms in one run and 133 ms in the next; CPU time
// inflates as much as wall time. So the end-to-end pass interleaves its
// operations with short bursts of a fixed calibration job, on as many
// threads as the workload keeps busy, and divides every time of a phase by
// the phase's box factor: the trimmed mean of its bursts over calibRefMs,
// the burst's time on the reference box. Over 14 back-to-back runs that took
// the spread of pagerank-web's median from 24% to 6%. The job is a
// binary-heap Dijkstra over a fixed lattice — the memory and branch profile
// of the workloads — written here, using nothing from the repository, so
// that no change to the code under test can move the yardstick.

// calibRefMs is a burst's time on the reference box (the 2-vCPU sandbox the
// bounds were derived on, both CPUs busy). It only scales the reported
// numbers; comparisons on one box do not depend on it.
const calibRefMs = 3.5

type calibEdge struct {
	to int32
	wt int32
}

type calibItem struct {
	dist int64
	node int32
}

// calibJob is one thread's private copy of the job.
type calibJob struct {
	off   []int32
	edges []calibEdge
	dist  []int64
	heap  []calibItem
}

func newCalibJob(side int) *calibJob {
	n := side * side
	j := &calibJob{off: make([]int32, n+1), dist: make([]int64, n)}
	x := uint64(0x9E3779B97F4A7C15)
	next := func() int32 { // xorshift64*: fixed weights, no seed
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return int32((x*2685821657736338717)>>40)%97 + 1
	}
	for u := 0; u < n; u++ {
		r, c := u/side, u%side
		for _, d := range [][2]int{{0, 1}, {1, 0}, {0, -1}, {-1, 0}} {
			if rr, cc := r+d[0], c+d[1]; rr >= 0 && rr < side && cc >= 0 && cc < side {
				j.edges = append(j.edges, calibEdge{to: int32(rr*side + cc), wt: next()})
			}
		}
		j.off[u+1] = int32(len(j.edges))
	}
	return j
}

// run is a textbook lazy-deletion Dijkstra from node 0; it returns the sum
// of distances so the work cannot be optimised away.
func (j *calibJob) run() int64 {
	const inf = int64(1) << 60
	for i := range j.dist {
		j.dist[i] = inf
	}
	j.dist[0] = 0
	h := append(j.heap[:0], calibItem{0, 0})
	for len(h) > 0 {
		top := h[0]
		last := h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; len(h) > 0; { // sift last down from the root
			k := 2*i + 1
			if k >= len(h) {
				h[i] = last
				break
			}
			if k+1 < len(h) && h[k+1].dist < h[k].dist {
				k++
			}
			if last.dist <= h[k].dist {
				h[i] = last
				break
			}
			h[i] = h[k]
			i = k
		}
		if top.dist > j.dist[top.node] {
			continue
		}
		for _, e := range j.edges[j.off[top.node]:j.off[top.node+1]] {
			if nd := top.dist + int64(e.wt); nd < j.dist[e.to] {
				j.dist[e.to] = nd
				h = append(h, calibItem{nd, e.to})
				for i := len(h) - 1; i > 0; { // sift up
					p := (i - 1) / 2
					if h[p].dist <= h[i].dist {
						break
					}
					h[p], h[i] = h[i], h[p]
					i = p
				}
			}
		}
	}
	j.heap = h
	var sum int64
	for _, d := range j.dist {
		sum += d
	}
	return sum
}

// newCalibJobs makes one job per thread.
func newCalibJobs(threads int, smoke bool) []*calibJob {
	side := 150
	if smoke {
		side = 20
	}
	jobs := make([]*calibJob, threads)
	for i := range jobs {
		jobs[i] = newCalibJob(side)
	}
	return jobs
}

// boxClock collects the bursts of one phase.
type boxClock struct {
	jobs   []*calibJob // one per thread a burst keeps busy
	bursts []float64   // ms each
	sink   int64
}

// burst runs the job once on every thread at the same time and records the
// mean time over the threads.
func (b *boxClock) burst() {
	ms := make([]float64, len(b.jobs))
	sums := make([]int64, len(b.jobs))
	var wg sync.WaitGroup
	for i, j := range b.jobs {
		wg.Add(1)
		go func(i int, j *calibJob) {
			defer wg.Done()
			t0 := time.Now()
			sums[i] = j.run()
			ms[i] = msSince(t0)
		}(i, j)
	}
	wg.Wait()
	for _, s := range sums {
		b.sink += s
	}
	b.bursts = append(b.bursts, mean(ms))
}

// level is the mean of xs without its lowest and highest tenth: a stall of
// tens of milliseconds in one burst should not move the factor of a phase.
func level(xs []float64) float64 {
	asc := sorted(xs)
	cut := len(asc) / 10
	return mean(asc[cut : len(asc)-cut])
}

// factor is how much slower than the reference box this box ran during the
// phase: divide a time measured in it by the factor.
func (b *boxClock) factor() float64 { return level(b.bursts) / calibRefMs }

// unsteady reports whether the two halves of the phase differ by more than
// a tenth: the box changed speed under the measurement, not just around it.
func (b *boxClock) unsteady() bool {
	h := len(b.bursts) / 2
	if h == 0 {
		return false
	}
	first, second := level(b.bursts[:h]), level(b.bursts[h:])
	return first > 1.10*second || second > 1.10*first
}
