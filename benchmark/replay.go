package main

import (
	stdruntime "runtime"
	"sync"
	"time"

	"hdcps/internal/bag"
	"hdcps/internal/drift"
	"hdcps/internal/pq"
	"hdcps/internal/rq"
	"hdcps/internal/runtime"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// stream is the task stream one job produces when its own Process loop is
// driven sequentially in strict priority order: what was pushed before the
// first pop, which task each pop returned, and the children each pop
// emitted. Replaying it feeds a layer the priorities it really sees.
type stream struct {
	w       workload.Workload
	initial []task.Task
	pops    []task.Task
	nkids   []int32     // children emitted by pop i
	kids    []task.Task // all children, in emission order
	edges   int64
	maxLen  int
}

func record(w workload.Workload) *stream {
	s := &stream{w: w.Clone()}
	s.w.Reset()
	q := pq.NewBinaryHeap(1024)
	s.initial = s.w.InitialTasks()
	for _, t := range s.initial {
		q.Push(t)
	}
	for {
		s.maxLen = max(s.maxLen, q.Len())
		t, ok := q.Pop()
		if !ok {
			return s
		}
		before := len(s.kids)
		s.edges += int64(s.w.Process(t, func(c task.Task) {
			s.kids = append(s.kids, c)
			q.Push(c)
		}))
		s.pops = append(s.pops, t)
		s.nkids = append(s.nkids, int32(len(s.kids)-before))
	}
}

// replaySink receives what the replayed calls return, so that the compiler
// cannot drop them.
var replaySink int

// replayReps is how often each replay runs; the median is reported.
const replayReps = 3

// timed returns the median wall time of replayReps runs of f, in ns. prep
// (nil allowed) runs before each, outside the clock.
func timed(prep, f func()) float64 {
	var xs []float64
	for i := 0; i < replayReps; i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		xs = append(xs, float64(time.Since(t0).Nanoseconds()))
	}
	return median(xs)
}

// queueKinds builds each runtime.QueueKinds() shape the way the engine's
// workers do (runtime.newLocalQueue with DefaultConfig), one queue per call.
var queueKinds = map[string]func(seed uint64) pq.Queue{
	runtime.QueueHeap:     func(uint64) pq.Queue { return pq.NewBinaryHeap(64) },
	runtime.QueueDHeap:    func(uint64) pq.Queue { return pq.NewDHeap(4, 64) },
	runtime.QueueTwoLevel: func(uint64) pq.Queue { return pq.NewTwoLevel(pq.TwoLevelConfig{HotCap: 48, Arity: 4}) },
	runtime.QueueMultiQueue: func(seed uint64) pq.Queue {
		return pq.NewMultiQueue(pq.MultiQueueConfig{Workers: 1, Seed: seed}).Handle()
	},
}

// throughQueue replays the recorded push/pop order through q: a relaxed
// queue may hand back a different task than the recording did, which does
// not matter — the pushes that follow each pop are the recorded ones.
func (s *stream) throughQueue(q pq.Queue) {
	for _, t := range s.initial {
		q.Push(t)
	}
	k := 0
	for _, n := range s.nkids {
		q.Pop()
		for end := k + int(n); k < end; k++ {
			q.Push(s.kids[k])
		}
	}
}

// ringTasks is how many tasks one rq replay moves.
const ringTasks = 200_000

// throughRing moves n tasks through a 256-slot ring (DefaultConfig's
// RingSize) in TryPushBatch(16) claims from producers goroutines while this
// goroutine, the ring's owner, drains. It returns the wall time and the
// share of claims that came back short because the ring was full.
func throughRing(src []task.Task, n, producers int) (ns float64, failShare float64) {
	r := rq.NewRing(256)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var calls, short int64
	per := n / producers
	t0 := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var batch [16]task.Task
			var myCalls, myShort int64
			for sent := 0; sent < per; {
				b := batch[:min(16, per-sent)]
				for i := range b {
					b[i] = src[(p*per+sent+i)%len(src)]
				}
				for len(b) > 0 {
					k := r.TryPushBatch(b)
					myCalls++
					if k < len(b) {
						myShort++
						stdruntime.Gosched() // full: let the owner drain (it may share this P)
					}
					sent += k
					b = b[k:]
				}
			}
			mu.Lock()
			calls += myCalls
			short += myShort
			mu.Unlock()
		}(p)
	}
	buf := make([]task.Task, 0, 256)
	for got := 0; got < per*producers; {
		buf = r.Drain(buf[:0], 0)
		if len(buf) == 0 {
			stdruntime.Gosched()
		}
		got += len(buf)
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()), float64(short) / float64(max(calls, 1))
}

// replayLayers times workload, pq, rq, bag and drift on the recorded task
// streams of jobs and reconciles the layers against the measured solves.
func replayLayers(e *env, jobs []*job, agg solveAgg) {
	var ss []*stream
	var pops, kids, edges float64
	maxLen := 0
	for _, j := range jobs {
		s := record(j.w)
		ss = append(ss, s)
		pops += float64(len(s.pops))
		kids += float64(len(s.kids))
		edges += float64(s.edges)
		maxLen += s.maxLen
	}
	each := func(f func(s *stream)) func() {
		return func() {
			for _, s := range ss {
				f(s)
			}
		}
	}

	sink := 0
	processNs := timed(each(func(s *stream) { s.w.Reset() }), each(func(s *stream) {
		for _, t := range s.pops {
			sink += s.w.Process(t, func(task.Task) { sink++ })
		}
	})) / pops
	e.set("workload.process_ns_per_task", processNs)
	e.set("workload.edges_per_task", edges/pops)

	pqNs := map[string]float64{}
	for _, kind := range runtime.QueueKinds() {
		mk := queueKinds[kind]
		pqNs[kind] = timed(nil, each(func(s *stream) { s.throughQueue(mk(e.seed)) })) / pops
		e.set("pq.push_pop_ns."+kind, pqNs[kind])
	}
	m0 := mallocs()
	each(func(s *stream) { s.throughQueue(queueKinds[runtime.QueueTwoLevel](e.seed)) })()
	e.set("pq.allocs_per_task", float64(mallocs()-m0)/pops)
	e.set("pq.max_len", float64(maxLen))

	src := ss[0].pops
	n := e.size(ringTasks, 4000)
	oneNs, _ := throughRing(src, n, 1)
	manyNs, failShare := throughRing(src, n, e.w)
	rqNs := oneNs / float64(n)
	e.set("rq.push_drain_ns", rqNs)
	e.set("rq.push_drain_ns_contended", manyNs/float64(n/e.w*e.w))
	e.set("rq.push_fail_share", failShare)

	var bagged, nbags float64
	var ids bag.Counter
	policy := bag.DefaultPolicy()
	bagNs := timed(func() { bagged, nbags = 0, 0 }, each(func(s *stream) {
		var pt bag.Partitioner
		k := 0
		for _, c := range s.nkids {
			bags, _ := pt.Partition(s.kids[k:k+int(c)], policy, ids.Next)
			k += int(c)
			for i := range bags {
				bagged += float64(len(bags[i].Tasks))
			}
			nbags += float64(len(bags))
		}
	})) / max(kids, 1)
	e.set("bag.partition_ns_per_child", bagNs)
	e.set("bag.bagged_share", bagged/max(kids, 1))
	e.set("bag.mean_size", bagged/max(nbags, 1))

	// One controller update per window of W consecutive popped priorities:
	// the reports W workers would send, in the order the stream produced them.
	updates := 0
	driftNs := timed(func() { updates = 0 }, each(func(s *stream) {
		c := drift.NewController(drift.DefaultConfig())
		reports := make([]int64, e.w)
		for i := 0; i+e.w <= len(s.pops); i += e.w {
			for k := range reports {
				reports[k] = s.pops[i+k].Prio
			}
			sink += c.Update(reports)
			updates++
		}
	})) / float64(max(updates, 1))
	e.set("drift.update_ns", driftNs)
	replaySink += sink

	// Layers against the whole: what the replayed costs explain of the
	// worker time the measured solves spent. The remainder is park/wake,
	// spinning, cache-line traffic and flow control — a finding, not noise.
	explained := agg.processed*(processNs+pqNs[runtime.QueueTwoLevel]) +
		agg.spawned*bagNs +
		agg.spawned*agg.tdfMean/100*rqNs +
		agg.intervals*driftNs
	e.set("runtime.unattributed_share", 1-explained/(agg.solveNs*float64(e.w)))
}
