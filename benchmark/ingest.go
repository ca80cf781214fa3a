package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	stdruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hdcps/internal/graph"
	"hdcps/internal/runtime"
	"hdcps/internal/serve"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

const (
	ingestQuota    = 65536  // per-tenant admission quota
	openLoopRate   = 300000 // offered tasks/s in phase A
	openLoopBatch  = 64
	closedBatch    = 256
	closedInFlight = 2                     // batches each stream keeps in flight in phase B
	ackLimitMs     = 2.0                   // the latency limit on op_ms_p90 of phase A
	senderBacklog  = 1024                  // scheduled batches a sender may lag by before the generator sheds
	schedOverrun   = 0.05                  // the arrival schedule may end this share of the phase late...
	overrunFloor   = 50 * time.Millisecond // ...or this much, on phases too short for the share to mean anything
	backlogEvery   = 50 * time.Millisecond
	ingestDeadline = 2 * time.Minute
)

// rig is one serving instance on loopback with its client side: a server
// over sssp on the "small" road graph, a second tenant, and nproc persistent
// streams split across the two tenants.
type rig struct {
	srv      *serve.Server
	serveErr chan error
	tr       *http.Transport
	streams  []*serve.PersistentStream
	retry    serve.RetryStats
	nodes    int
	seeded   int64        // tasks the server admitted on its own at boot
	acked    atomic.Int64 // tasks the streams confirmed
	bootMs   float64
}

func bootRig(e *env, withObs bool) (*rig, error) {
	t0 := time.Now()
	scale := "small"
	if e.smoke {
		scale = "tiny"
	}
	srv, err := serve.New(serve.Config{
		Workload: "sssp", Input: "road", Scale: scale, Seed: e.seed, Workers: e.w,
		DefaultQuota: ingestQuota, DrainTimeout: time.Minute, SeedInitial: true, Obs: withObs,
	})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{srv: srv, serveErr: make(chan error, 1), tr: &http.Transport{MaxIdleConnsPerHost: e.nproc}}
	go func() { r.serveErr <- srv.Serve(lis) }()
	ctx, cancel := context.WithTimeout(context.Background(), ingestDeadline)
	defer cancel()
	// Let the seeded workload converge first: the traffic should meet the
	// steady state, not the algorithm's own start-up.
	if err := srv.Engine().Drain(ctx); err != nil {
		return nil, fmt.Errorf("initial drain: %w", err)
	}
	cl := &serve.Client{Base: "http://" + lis.Addr().String(), HC: &http.Client{Transport: r.tr, Timeout: 30 * time.Second}}
	info, err := cl.Info(ctx)
	if err != nil {
		return nil, err
	}
	r.nodes, r.seeded = info.Nodes, info.Accepted
	second, err := cl.CreateJob(ctx, serve.JobSpec{Name: "second", Weight: 1, MaxOutstanding: ingestQuota})
	if err != nil {
		return nil, err
	}
	pol := serve.RetryPolicy{
		MaxAttempts: 10, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
		Budget: 10 * time.Second, RequestTimeout: 10 * time.Second, Seed: e.seed,
	}
	for i := 0; i < e.nproc; i++ {
		r.streams = append(r.streams, cl.PersistentStream([]uint32{0, second}[i%2], pol, &r.retry))
	}
	t1 := time.Now()
	r.bootMs = msBetween(t0, t1)
	e.spans.add(0, 0, "serve.boot", t0, t1)
	return r, nil
}

// shutdown closes the streams, shuts the server down and checks the
// three-way ledger: tasks the client saw confirmed == tasks the server
// accepted == tasks the engine was handed, and nothing accepted was lost.
func (r *rig) shutdown(e *env) (ms float64, err error) {
	t0 := time.Now()
	for _, ps := range r.streams {
		if cerr := ps.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing stream: %w", cerr)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), ingestDeadline)
	defer cancel()
	rep, serr := r.srv.Shutdown(ctx)
	if err == nil {
		err = serr
	}
	if herr := <-r.serveErr; err == nil && herr != nil {
		err = fmt.Errorf("http serve: %w", herr)
	}
	r.tr.CloseIdleConnections()
	t1 := time.Now()
	e.spans.add(0, 0, "serve.shutdown", t0, t1)
	if err == nil && !rep.LedgerExact {
		err = fmt.Errorf("shutdown ledger not exact: %+v", rep)
	}
	if client := r.acked.Load() + r.seeded; err == nil && (client != rep.Accepted || rep.Accepted != rep.Snapshot.Submitted) {
		err = fmt.Errorf("ledgers disagree: client confirmed %d (+%d seeded), server accepted %d, engine submitted %d",
			r.acked.Load(), r.seeded, rep.Accepted, rep.Snapshot.Submitted)
	}
	return msBetween(t0, t1), err
}

// refreshSpecs is one sender's task generator: "refresh" tasks at uniformly
// random nodes (serve.RefreshGen's shape), from a source only this sender
// draws on, so the same seed gives every stream the same batches.
func refreshSpecs(nodes int, seed int64) func(n int) []serve.TaskSpec {
	rng := rand.New(rand.NewSource(seed))
	return func(n int) []serve.TaskSpec {
		specs := make([]serve.TaskSpec, n)
		for i := range specs {
			specs[i] = serve.TaskSpec{Node: uint32(rng.Intn(nodes))}
		}
		return specs
	}
}

// openLoop is the outcome of one phase-A block.
type openLoop struct {
	ackMs     []float64 // scheduled arrival → ack, one per confirmed batch
	growing   bool      // acks slowed past the limit as the block went on
	batches   int64     // scheduled
	shed      int64     // batches the generator dropped: their sender was senderBacklog behind
	refused   int64     // batches the server did not fully admit
	lagMaxMs  float64   // worst dispatch lag behind the schedule
	slipped   int64     // arrivals dispatched more than a mean gap (at least 1 ms) late
	overran   bool      // the schedule ended more than schedOverrun of the phase late
	elapsedS  float64
	backlog   []float64 // Engine.Outstanding every backlogEvery
	failNotes []error
}

// runOpenLoop offers rate tasks/s in Poisson-spaced batches for d. One
// goroutine — this one — owns the clock: it walks the arrival schedule and
// hands each arrival, stamped with the time it was due, to the sender of the
// next stream. Latency runs from that stamp, so time a batch spends waiting
// behind a stalled stream counts, and a slow server cannot slow the schedule.
func (r *rig) runOpenLoop(spans *spanRecorder, rate float64, d time.Duration, seed int64, repBase int64) openLoop {
	var res openLoop
	type ack struct {
		due time.Time
		ms  float64
	}
	type sender struct {
		ch      chan time.Time
		acks    []ack
		refused int64
		err     error
	}
	ctx, cancel := context.WithTimeout(context.Background(), ingestDeadline)
	defer cancel()
	senders := make([]*sender, len(r.streams))
	var wg sync.WaitGroup
	for i := range senders {
		// The buffer is the backlog bound: a sender this many batches behind
		// is not keeping up and further arrivals for it are shed.
		s := &sender{ch: make(chan time.Time, senderBacklog)}
		senders[i] = s
		gen := refreshSpecs(r.nodes, seed+int64(i))
		wg.Add(1)
		go func(i int, ps *serve.PersistentStream) {
			defer wg.Done()
			for k := int64(0); ; k++ {
				due, ok := <-s.ch
				if !ok {
					return
				}
				picked := time.Now()
				n, err := ps.Submit(ctx, gen(openLoopBatch))
				acked := time.Now()
				r.acked.Add(n)
				if err != nil || n != openLoopBatch {
					s.refused++
					if s.err == nil {
						s.err = fmt.Errorf("batch on stream %d: admitted %d of %d: %v", i, n, openLoopBatch, err)
					}
					continue
				}
				s.acks = append(s.acks, ack{due, msBetween(due, acked)})
				if spans != nil {
					rep := repBase + k*int64(len(senders)) + int64(i)
					root := spans.add(0, rep, "batch", due, acked)
					spans.add(root, rep, "serve.submit_ack", picked, acked)
				}
			}
		}(i, r.streams[i])
	}

	stopBacklog := make(chan struct{})
	var backlogDone sync.WaitGroup
	backlogDone.Add(1)
	go func() {
		defer backlogDone.Done()
		tick := time.NewTicker(backlogEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopBacklog:
				return
			case <-tick.C:
				res.backlog = append(res.backlog, float64(r.srv.Engine().Outstanding()))
			}
		}
	}()

	rng := rand.New(rand.NewSource(seed))
	gap := float64(time.Second) * openLoopBatch / rate
	slipTol := max(time.Duration(gap), time.Millisecond)
	start := time.Now()
	end := start.Add(d)
	for at, i := start, 0; ; i++ {
		at = at.Add(time.Duration(rng.ExpFloat64() * gap))
		if at.After(end) {
			break
		}
		// Sleep for the long gaps, yield through the short ones: the
		// runtime's timers are too coarse for the sub-100µs spacing.
		for {
			wait := time.Until(at)
			if wait <= 0 {
				break
			}
			if wait > 100*time.Microsecond {
				time.Sleep(wait - 50*time.Microsecond)
			} else {
				stdruntime.Gosched()
			}
		}
		if lag := time.Since(at); lag > 0 {
			res.lagMaxMs = max(res.lagMaxMs, float64(lag.Nanoseconds())/1e6)
			if lag > slipTol {
				res.slipped++
			}
		}
		res.batches++
		select {
		case senders[i%len(senders)].ch <- at:
		default:
			res.shed++
		}
	}
	res.overran = time.Since(end) > max(time.Duration(schedOverrun*float64(d)), overrunFloor)
	for _, s := range senders {
		close(s.ch)
	}
	wg.Wait()
	res.elapsedS = max(time.Since(start), d).Seconds()
	close(stopBacklog)
	backlogDone.Wait()
	var acks []ack
	for _, s := range senders {
		acks = append(acks, s.acks...)
		res.refused += s.refused
		if s.err != nil {
			res.failNotes = append(res.failNotes, s.err)
		}
	}
	sort.Slice(acks, func(a, b int) bool { return acks[a].due.Before(acks[b].due) })
	for _, a := range acks {
		res.ackMs = append(res.ackMs, a.ms)
	}
	res.growing = backlogGrowing(res.ackMs)
	return res
}

// closedLoop is the outcome of one phase-B block.
type closedLoop struct {
	acked, batches, failed int64
	secs                   float64
	cpu                    time.Duration // of the whole process: server and client share it
	firstErr               error
}

// runClosedLoop keeps closedInFlight batches of closedBatch in flight on
// every stream for d.
func (r *rig) runClosedLoop(d time.Duration, seed int64) closedLoop {
	ctx, cancel := context.WithTimeout(context.Background(), ingestDeadline)
	defer cancel()
	var res closedLoop
	var wg sync.WaitGroup
	var mu sync.Mutex
	cpu0 := cpuNow()
	start := time.Now()
	deadline := start.Add(d)
	for i, ps := range r.streams {
		for k := 0; k < closedInFlight; k++ {
			wg.Add(1)
			go func(ps *serve.PersistentStream, seed int64) {
				defer wg.Done()
				gen := refreshSpecs(r.nodes, seed)
				var mine closedLoop
				for time.Now().Before(deadline) {
					n, err := ps.Submit(ctx, gen(closedBatch))
					mine.acked += n
					mine.batches++
					if err != nil || n != closedBatch {
						mine.failed++
						if mine.firstErr == nil {
							mine.firstErr = fmt.Errorf("closed-loop batch: admitted %d of %d: %v", n, closedBatch, err)
						}
					}
				}
				r.acked.Add(mine.acked)
				mu.Lock()
				res.acked, res.batches, res.failed = res.acked+mine.acked, res.batches+mine.batches, res.failed+mine.failed
				if res.firstErr == nil {
					res.firstErr = mine.firstErr
				}
				mu.Unlock()
			}(ps, seed+int64(i*closedInFlight+k))
		}
	}
	wg.Wait()
	res.secs, res.cpu = time.Since(start).Seconds(), cpuNow()-cpu0
	return res
}

// count books a closed-loop block's batches as attempted operations and the
// ones not confirmed in full as failed.
func (c closedLoop) count(e *env) {
	e.attempted += c.batches
	e.failed += c.failed
	if c.firstErr != nil {
		fmt.Fprintf(e.out, "FAILED %s: %v\n", e.workload, c.firstErr)
	}
}

var errOverran = fmt.Errorf("open loop: the arrival schedule overran by more than %g%% of the phase: it measured the generator, not the server", 100*schedOverrun)

// merge adds block b's outcome to o.
func (o *openLoop) merge(b openLoop) {
	o.ackMs = append(o.ackMs, b.ackMs...)
	o.backlog = append(o.backlog, b.backlog...)
	o.batches, o.shed, o.refused = o.batches+b.batches, o.shed+b.shed, o.refused+b.refused
	o.slipped, o.elapsedS = o.slipped+b.slipped, o.elapsedS+b.elapsedS
	o.lagMaxMs = max(o.lagMaxMs, b.lagMaxMs)
	o.overran, o.growing = o.overran || b.overran, o.growing || b.growing
	o.failNotes = append(o.failNotes, b.failNotes...)
}

// count books an open-loop block's batches as attempted operations and its
// shed and refused ones as failed.
func (o *openLoop) count(e *env) {
	e.attempted += o.batches
	e.failed += o.shed + o.refused
	if o.shed > 0 {
		fmt.Fprintf(e.out, "FAILED %s: generator shed %d of %d batches\n", e.workload, o.shed, o.batches)
	}
	for _, err := range o.failNotes {
		fmt.Fprintf(e.out, "FAILED %s: %v\n", e.workload, err)
	}
}

func (r *rig) drain() (ms float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), ingestDeadline)
	defer cancel()
	t0 := time.Now()
	err = r.srv.Engine().Drain(ctx)
	return msSince(t0), err
}

// runIngest is serve-ingest: wire, admission, stream tracker and
// Engine.Submit into a running fleet.
func runIngest(e *env) error {
	rate := float64(e.size(openLoopRate, 20000))
	seed := int64(e.seed)
	r, err := prepare(e, func() (*rig, error) { return bootRig(e, false) }, func(r *rig) {
		if _, err := r.shutdown(e); err != nil {
			fmt.Fprintf(e.out, "# discarded set-up did not shut down cleanly: %v\n", err)
		}
	}, func(r *rig) {
		r.runOpenLoop(nil, rate, e.warm()/2, seed, 0)
		r.runClosedLoop(e.warm()/2, seed)
	})
	if err != nil {
		return err
	}

	if !e.trace {
		// Phase A then phase B, each in blocks of a quarter of a second;
		// between blocks the server is idle, the streams stay open and the box
		// clock takes its bursts.
		const block, burstsEach = 250 * time.Millisecond, 8
		clockA, clockB := e.clock(e.w), e.clock(e.w)
		rest := func(c *boxClock) {
			for i := 0; i < burstsEach; i++ {
				c.burst()
			}
		}
		var a openLoop
		rest(clockA)
		for i := int64(0); time.Duration(i)*block < e.share(0.4); i++ {
			a.merge(r.runOpenLoop(nil, rate, min(block, e.share(0.4)), seed+1000+i, 0))
			if _, err := r.drain(); err != nil {
				return err
			}
			rest(clockA)
		}
		if a.overran {
			return errOverran
		}
		a.count(e)
		var work []workSpan
		rest(clockB)
		for i := int64(0); time.Duration(i)*block < e.share(0.4); i++ {
			b := r.runClosedLoop(min(block, e.share(0.4)), seed+2000+i)
			b.count(e)
			work = append(work, workSpan{float64(b.acked), b.secs, b.cpu.Seconds()})
			if _, err := r.drain(); err != nil {
				return err
			}
			rest(clockB)
		}
		_, err := r.shutdown(e)
		e.op(err)
		fmt.Fprintf(e.out, "# open loop: %d batches of %d at %.0f tasks/s offered, generator lag max %.3f ms, %d slipped\n",
			a.batches, openLoopBatch, float64(a.batches*openLoopBatch)/a.elapsedS, a.lagMaxMs, a.slipped)
		fmt.Fprintf(e.out, "# closed loop: batches of %d on %d streams, %d in flight each\n", closedBatch, len(r.streams), closedInFlight)
		return e.setEndToEnd(a.ackMs, clockA, work, clockB, float64(len(a.ackMs))/float64(a.batches))
	}

	traced, err := bootRig(e, true)
	if err != nil {
		return err
	}
	traced.runOpenLoop(nil, rate, e.warm()/2, seed, 0)
	return bracket(e, func() error {
		// Untraced and traced blocks alternate, so both see the same box. Only
		// the traced server's batches leave spans.
		var plain, obsd openLoop
		for i := 0; i < 2; i++ {
			plain.merge(r.runOpenLoop(nil, rate, e.share(0.12), seed+1000+int64(i), 0))
			obsd.merge(traced.runOpenLoop(e.spans, rate, e.share(0.12), seed+1000+int64(i), int64(i)<<32))
		}
		if plain.overran || obsd.overran {
			return errOverran
		}
		plain.count(e)
		obsd.count(e)
		events := traced.srv.Engine().Obs().EventCount()
		_, err := traced.shutdown(e)
		e.op(err)
		if _, err := r.drain(); err != nil {
			return err
		}
		b := r.runClosedLoop(e.share(0.12), seed+2000)
		b.count(e)
		drainMs, err := r.drain()
		if err != nil {
			return err
		}
		shutdownMs, err := r.shutdown(e)
		e.op(err)

		asc := sorted(plain.ackMs)
		offered := float64(plain.batches)
		p50, p90 := quantile(asc, 0.50), quantile(asc, 0.90)
		failedShare := float64(plain.shed+plain.refused) / offered
		limitMet := yesNo(p90 <= ackLimitMs && !plain.growing && failedShare < 0.01)
		fmt.Fprintf(e.out, "# open loop untraced: p50 %.4f ms p90 %.4f ms over %d batches (supports up to p%g); backlog growing: %v\n",
			p50, p90, len(asc), 100*highestPercentile(len(asc)), plain.growing)
		e.set("serve.boot_ms", r.bootMs)
		e.set("serve.shutdown_ms", shutdownMs)
		e.set("serve.ack_ms_p99", quantile(asc, 0.99))
		e.set("serve.ack_ms_p999", quantile(asc, 0.999))
		e.set("serve.limit_met", limitMet)
		e.set("serve.shed_share", float64(plain.shed)/offered)
		e.set("serve.rejected_share", float64(plain.refused)/offered)
		e.set("serve.retries", float64(r.retry.Retries.Load()))
		e.set("serve.resumes", float64(r.retry.Resumes.Load()))
		e.set("load.offered_tasks_per_s", offered*openLoopBatch/plain.elapsedS)
		e.set("load.gen_lag_max_ms", plain.lagMaxMs)
		e.set("load.gen_slipped", float64(plain.slipped))
		e.set("runtime.backlog_p99_tasks", quantile(sorted(plain.backlog), 0.99))
		e.set("runtime.drain_after_ms", drainMs)
		e.set("obs.overhead_pct", 100*(median(obsd.ackMs)/p50-1))
		e.set("obs.events_recorded", float64(events))

		direct, err := submitStreamRate(e)
		if err != nil {
			return err
		}
		e.set("runtime.submit_stream_tasks_per_s", direct)
		e.set("serve.wire_share", 1-float64(b.acked)/b.secs/direct)
		wireLayers(e, r.nodes)
		return nil
	})
}

// backlogGrowing reports whether acks in the second half of a phase took
// more than twice as long as in the first and missed the limit: the sign of
// a queue that the offered rate keeps filling.
func backlogGrowing(ackMs []float64) bool {
	if len(ackMs) < 20 {
		return false
	}
	first, second := median(ackMs[:len(ackMs)/2]), median(ackMs[len(ackMs)/2:])
	return second > 2*first && second > ackLimitMs
}

// submitStreamRate pushes the same refresh batches straight into
// Engine.Submit of a running fleet over the same graph — the server's
// engine with no wire in front of it — under the same per-tenant quota, and
// returns tasks/s.
func submitStreamRate(e *env) (float64, error) {
	side := e.size(120, 48) // serve's "small" and "tiny" road
	w, err := workload.New("sssp", graph.Road(side, side, e.seed))
	if err != nil {
		return 0, err
	}
	cfg := runtime.DefaultConfig(e.w)
	cfg.Seed = e.seed
	eng := runtime.NewEngine(w, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), ingestDeadline)
	defer cancel()
	if err := eng.Submit(w.InitialTasks()...); err != nil {
		return 0, err
	}
	if err := eng.Start(); err != nil {
		return 0, err
	}
	if err := eng.Drain(ctx); err != nil {
		return 0, err
	}
	nodes := w.Graph().NumNodes()
	var total atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(e.share(0.07))
	for i := 0; i < e.nproc; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]task.Task, closedBatch)
			for time.Now().Before(deadline) {
				if eng.Outstanding() > ingestQuota*2 {
					stdruntime.Gosched() // what the two tenants' quotas would refuse
					continue
				}
				for k := range batch {
					batch[k] = task.Task{Node: uint32(rng.Intn(nodes))}
				}
				if err := eng.Submit(batch...); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				total.Add(closedBatch)
			}
		}(int64(e.seed) + 3000 + int64(i))
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	if err := eng.Drain(ctx); err != nil {
		return 0, err
	}
	if err := eng.Stop(ctx); err != nil {
		return 0, err
	}
	if p := firstErr.Load(); p != nil {
		return 0, *p
	}
	return float64(total.Load()) / secs, nil
}

// wireLayers times the two halves of the wire format on their own: the
// server's frame+parse loop and the client's encoder.
func wireLayers(e *env, nodes int) {
	const lines = 4096
	body := serve.IngestBenchBody(lines, nodes)
	specs := refreshSpecs(nodes, int64(e.seed))(lines)
	reps := e.size(200, 5)
	loop := func(f func()) (nsPerLine, allocsPerLine float64) {
		f() // fill the pools
		m0 := mallocs()
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		ns := float64(time.Since(t0).Nanoseconds())
		return ns / float64(reps*lines), float64(mallocs()-m0) / float64(reps*lines)
	}
	var perr error
	parseNs, parseAllocs := loop(func() {
		if n, err := serve.IngestBenchLoop(body); err != nil || n != lines {
			perr = fmt.Errorf("ingest loop decoded %d of %d lines: %v", n, lines, err)
		}
	})
	e.op(perr)
	encNs, encAllocs := loop(func() { serve.EncodeBenchLoop(specs) })
	e.set("serve.parse_ns_per_line", parseNs)
	e.set("serve.parse_allocs_per_line", parseAllocs)
	e.set("serve.encode_ns_per_line", encNs)
	e.set("serve.encode_allocs_per_line", encAllocs)
}
