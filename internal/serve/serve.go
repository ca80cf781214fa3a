// Package serve is the network front-end over the multi-tenant Engine: a
// long-lived HTTP/JSON control-and-data plane that turns the library's
// Submit/Drain/Cancel lifecycle into endpoints a remote client (or the
// open-loop load harness in internal/load) can drive. The design constraints
// mirror the engine's own invariants:
//
//   - Backpressure is explicit, never silent: a per-job admission quota
//     rejection (runtime.QuotaError) maps to 429, a global overload shed or
//     a draining/stopped engine to 503 — both with a Retry-After hint — and
//     a cancelled job to 409. A 5xx means a bug, and the serve CI gate
//     treats any 5xx as a failure.
//   - Graceful shutdown is ledger-exact: Shutdown stops admitting, lets
//     in-flight requests finish, drains the engine, and then proves with the
//     chaos Checker that every accepted task is accounted for (processed,
//     quarantined, or cancelled — never lost) before stopping the fleet.
//   - The ops plane (expvar, pprof, the obs recorder's live snapshot) hangs
//     off the same mux, so one port serves both traffic and diagnostics.
//   - The network boundary is hostile: header reads and idle connections are
//     bounded (slowloris guard), a submit body that stops making progress is
//     cut by a stall detector, per-request deadlines propagate into the
//     admission loop, and an interrupted NDJSON stream resumes exactly-once
//     via the admitted-prefix protocol in resilience.go. Liveness (/healthz)
//     and readiness (/readyz) are split so a draining instance is taken out
//     of rotation without being killed mid-drain.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdcps/internal/chaos"
	"hdcps/internal/graph"
	"hdcps/internal/obs"
	"hdcps/internal/runtime"
	"hdcps/internal/task"
	"hdcps/internal/workload"
)

// submitFlush is how many NDJSON task lines accumulate before one
// Engine.Submit call: large enough to amortize the submission path, small
// enough that a draining server bounces a streaming client promptly.
const submitFlush = 256

// Config parameterizes one serving instance.
type Config struct {
	// Workload and Input name the job-0 algorithm and builtin graph
	// (road, cage, web, lj, grid), sized by Scale (tiny, small, large)
	// and generated from Seed.
	Workload string
	Input    string
	Scale    string
	Seed     uint64
	// Workers is the engine fleet size (0 defaults to 4).
	Workers int
	// QueueKind selects the local-queue shape (see runtime.QueueKinds; empty
	// defaults to runtime.QueueTwoLevel).
	QueueKind string
	// MaxOutstanding is the global overload shed: a submit that arrives
	// while the engine-wide outstanding count exceeds it is refused with
	// 503. 0 defaults to 1<<20; negative disables the shed.
	MaxOutstanding int64
	// DefaultQuota is job 0's admission quota (runtime MaxOutstanding →
	// 429 per tenant). 0 means unlimited.
	DefaultQuota int64
	// DrainTimeout bounds Shutdown's engine drain (default 30s).
	DrainTimeout time.Duration
	// Obs attaches an observability recorder (served at /debug/obs).
	Obs bool
	// SeedInitial submits the workload's InitialTasks at startup, so the
	// algorithm state converges before external traffic lands.
	SeedInitial bool
	// Chaos, when non-nil, wraps the engine's transport with the seeded
	// engine-layer fault mix (delay, duplication, reorder, ring-full, stall)
	// so the serving path can be soaked against scheduler faults together
	// with the connection-layer faults netchaos injects. Duplicated tasks
	// re-enter through Submit and are ledger-counted; Shutdown's
	// accepted==Submitted proof accounts for them via the transport's
	// duplicate counter.
	Chaos *chaos.Config
	// ReadHeaderTimeout bounds request-header reads (the slowloris guard).
	// 0 defaults to 5s; negative disables.
	ReadHeaderTimeout time.Duration
	// IdleTimeout bounds keep-alive idleness. 0 defaults to 2m; negative
	// disables.
	IdleTimeout time.Duration
	// ReadTimeout and WriteTimeout bound a whole request read / response
	// write. Disabled by default (0): submit bodies are open-ended streams
	// and drains legitimately block for their full timeout — the stall
	// detector and per-request deadlines bound those paths instead.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// SubmitStallTimeout is the slow-client guard: a submit body that makes
	// no progress for this long is aborted with 408 reporting the admitted
	// prefix (a recovered client resumes the stream). 0 defaults to 15s;
	// negative disables.
	SubmitStallTimeout time.Duration
	// StreamCacheSize caps the exactly-once stream-resume tracker; the
	// oldest streams are evicted first. 0 defaults to 4096.
	StreamCacheSize int
	// Log receives lifecycle lines (nil: standard logger).
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workload == "" {
		c.Workload = "sssp"
	}
	if c.Input == "" {
		c.Input = "road"
	}
	if c.Scale == "" {
		c.Scale = "small"
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueKind == "" {
		c.QueueKind = runtime.QueueTwoLevel
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 1 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.ReadHeaderTimeout == 0 {
		c.ReadHeaderTimeout = 5 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.SubmitStallTimeout == 0 {
		c.SubmitStallTimeout = 15 * time.Second
	}
	if c.StreamCacheSize <= 0 {
		c.StreamCacheSize = 4096
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// buildInput generates the builtin graph for (name, scale, seed), matching
// the sizes the CLI tools use.
func buildInput(name, scale string, seed uint64) (*graph.CSR, error) {
	var roadW, cageN, webN, ljN, gridW int
	switch scale {
	case "tiny":
		roadW, cageN, webN, ljN, gridW = 48, 1500, 1500, 1200, 32
	case "small":
		roadW, cageN, webN, ljN, gridW = 120, 8000, 8000, 6000, 64
	case "large":
		roadW, cageN, webN, ljN, gridW = 240, 30000, 30000, 20000, 128
	default:
		return nil, fmt.Errorf("serve: unknown scale %q (tiny, small, large)", scale)
	}
	switch name {
	case "road":
		return graph.Road(roadW, roadW, seed), nil
	case "cage":
		return graph.Cage(cageN, 34, 80, seed), nil
	case "web":
		return graph.Web(webN, seed), nil
	case "lj":
		return graph.LJ(ljN, seed), nil
	case "grid":
		return graph.Grid(gridW, gridW, 100, seed), nil
	}
	return nil, fmt.Errorf("serve: unknown input %q (road, cage, web, lj, grid)", name)
}

// Server is one serving instance: an engine, its job handles, and the HTTP
// mux. Construct with New, expose Handler (httptest) or Serve (a real
// listener), and always finish with Shutdown — that is where the
// no-accepted-task-lost proof runs.
type Server struct {
	cfg Config
	eng *runtime.Engine
	g   *graph.CSR
	wl  workload.Workload
	rec *obs.Recorder
	mux *http.ServeMux

	mu   sync.RWMutex
	jobs map[task.JobID]*runtime.Job

	// accepted counts every task this server admitted into the engine
	// (initial seeds included). Shutdown proves accepted == Submitted.
	accepted atomic.Int64
	draining atomic.Bool
	// drainCtx is cancelled the moment draining flips, so in-flight submit
	// loops observe the admission cutoff through their one-atomic flush gate
	// (context.AfterFunc) instead of re-polling draining per flush.
	drainCtx    context.Context
	drainCancel context.CancelFunc

	// Network-boundary resilience state (resilience.go): the exactly-once
	// stream tracker, the shed/deadline/abort/resume counters, and the
	// engine-layer fault transport when Config.Chaos is set.
	streams *streamTracker
	resil   resilStats
	chaosT  *chaos.Transport

	hsMu sync.Mutex
	hs   *http.Server

	started time.Time
}

// New builds the engine, seeds it if configured, and starts the fleet.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	g, err := buildInput(cfg.Input, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	wl, err := workload.New(cfg.Workload, g)
	if err != nil {
		return nil, err
	}
	rcfg := runtime.DefaultConfig(cfg.Workers)
	rcfg.Seed = cfg.Seed
	rcfg.QueueKind = cfg.QueueKind
	rcfg.DefaultJob = runtime.JobConfig{Name: cfg.Workload, MaxOutstanding: cfg.DefaultQuota}
	var rec *obs.Recorder
	if cfg.Obs {
		rec = obs.New(obs.Config{Workers: cfg.Workers})
		rcfg.Obs = rec
	}
	var ct *chaos.Transport
	if cfg.Chaos != nil {
		ccfg := *cfg.Chaos
		rcfg.NewTransport = func(fc runtime.Config) runtime.Transport {
			ct = chaos.Wrap(runtime.NewDefaultTransport(fc), fc.Workers, ccfg)
			return ct
		}
	}
	eng := runtime.NewEngine(wl, rcfg)
	if ct != nil {
		ct.BindResubmit(func(ts ...task.Task) error { return eng.Submit(ts...) })
	}
	s := &Server{
		cfg:     cfg,
		eng:     eng,
		g:       g,
		wl:      wl,
		rec:     rec,
		jobs:    map[task.JobID]*runtime.Job{0: eng.DefaultJob()},
		streams: newStreamTracker(cfg.StreamCacheSize),
		chaosT:  ct,
		started: time.Now(),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	if cfg.SeedInitial {
		seeds := wl.InitialTasks()
		if err := eng.Submit(seeds...); err != nil {
			return nil, fmt.Errorf("serve: seeding initial tasks: %w", err)
		}
		s.accepted.Add(int64(len(seeds)))
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	s.mux = s.buildMux()
	return s, nil
}

// Engine exposes the underlying engine (in-process benches drain between
// probes without a network round-trip).
func (s *Server) Engine() *runtime.Engine { return s.eng }

// ChaosTransport returns the engine-layer fault transport, or nil when
// Config.Chaos is unset (the CLI prints its fault counters at exit).
func (s *Server) ChaosTransport() *chaos.Transport { return s.chaosT }

// Handler returns the full mux: the /v1 API, /healthz + /readyz, and the
// ops plane.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /v1/info", s.handleInfo)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("POST /v1/jobs/{id}/submit", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs/{id}/drain", s.handleDrain)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)

	// Ops plane: expvar, pprof (explicit routes — the server never touches
	// the DefaultServeMux), and the obs recorder's live snapshot.
	publishObsVar(s.rec)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	if s.rec != nil {
		mux.Handle("GET /debug/obs", s.rec.Handler())
	}
	return mux
}

// expvar's registry is process-global and Publish panics on a duplicate
// name, so the package registers one Func that follows the most recently
// constructed recorder (tests build many servers per process).
var (
	obsVarOnce sync.Once
	obsVarRec  atomic.Pointer[obs.Recorder]
)

func publishObsVar(rec *obs.Recorder) {
	if rec != nil {
		obsVarRec.Store(rec)
	}
	obsVarOnce.Do(func() {
		expvar.Publish("hdcps_obs", expvar.Func(func() any {
			if r := obsVarRec.Load(); r != nil {
				return r.Vars()()
			}
			return nil
		}))
	})
}

// errorBody is the JSON error envelope. Accepted carries how many tasks of
// a streaming submit were admitted before the failure, so a client can
// resume without re-sending admitted work.
type errorBody struct {
	Error        string `json:"error"`
	Accepted     int64  `json:"accepted"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// handleHealth is pure liveness: the process is up and able to answer. It
// stays 200 while draining — a draining server is alive, just not ready —
// so an orchestrator keeps it running through graceful shutdown instead of
// killing it mid-drain.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "uptime_s": time.Since(s.started).Seconds()})
}

// handleReady is readiness: whether this instance should receive new work.
// 503 with a Retry-After hint while draining or while the global overload
// shed would refuse a submit; 200 otherwise. Probe refusals are not counted
// as sheds — no offered work was turned away.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	var err error
	if s.draining.Load() {
		err = errDraining
	} else if max := s.cfg.MaxOutstanding; max > 0 && s.eng.Outstanding() > max {
		err = errOverload
	}
	if err != nil {
		// The refusal a submit would get, minus failSubmit's count.
		status, retryMs := submitErrShape(err)
		writeInBand(w, nil, status, err.Error(), 0, retryMs)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "uptime_s": time.Since(s.started).Seconds()})
}

// Info is the /v1/info document: what the server runs and how big the node
// ID space is (the load generator samples nodes from [0, Nodes)).
type Info struct {
	Workload    string `json:"workload"`
	Input       string `json:"input"`
	Scale       string `json:"scale"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	Workers     int    `json:"workers"`
	Queue       string `json:"queue"`
	Jobs        int    `json:"jobs"`
	Draining    bool   `json:"draining"`
	Accepted    int64  `json:"accepted"`
	Outstanding int64  `json:"outstanding"`

	// Resilience counters: the network boundary's decision log.
	Shed         int64 `json:"shed"`
	DeadlineHits int64 `json:"deadline_hits"`
	ConnAborts   int64 `json:"conn_aborts"`
	Resumes      int64 `json:"resumes"`
}

func (s *Server) info() Info {
	s.mu.RLock()
	jobs := len(s.jobs)
	s.mu.RUnlock()
	return Info{
		Workload:    s.cfg.Workload,
		Input:       s.cfg.Input,
		Scale:       s.cfg.Scale,
		Nodes:       s.g.NumNodes(),
		Edges:       s.g.NumEdges(),
		Workers:     s.cfg.Workers,
		Queue:       s.cfg.QueueKind,
		Jobs:        jobs,
		Draining:    s.draining.Load(),
		Accepted:    s.accepted.Load(),
		Outstanding: s.eng.Outstanding(),

		Shed:         s.resil.shed.Load(),
		DeadlineHits: s.resil.deadlineHits.Load(),
		ConnAborts:   s.resil.connAborts.Load(),
		Resumes:      s.resil.resumes.Load(),
	}
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.info())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.Snapshot())
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.Snapshot().Jobs)
}

// maxJobSpecBytes bounds the POST /v1/jobs body: a JobSpec is four fields.
const maxJobSpecBytes = 64 << 10

// JobSpec is the POST /v1/jobs body. The new tenant runs a fresh clone of
// the server's workload over the same graph.
type JobSpec struct {
	Name           string `json:"name"`
	Weight         int    `json:"weight"`
	MaxOutstanding int64  `json:"max_outstanding"`
	TDFBias        int    `json:"tdf_bias"`
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.failSubmit(w, nil, errDraining, 0)
		return
	}
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobSpecBytes)).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad job spec: " + err.Error()})
		return
	}
	// Zero means "default" for every field; the engine clamps what it is
	// handed, but outside input that is out of range is refused, not bent.
	if spec.Weight < 0 || spec.Weight > runtime.MaxJobWeight ||
		spec.TDFBias < 0 || spec.TDFBias > runtime.MaxTDFBias || spec.MaxOutstanding < 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf(
			"bad job spec: want weight in [0,%d], tdf_bias in [0,%d], max_outstanding >= 0",
			runtime.MaxJobWeight, runtime.MaxTDFBias)})
		return
	}
	job, err := s.eng.NewJob(s.wl.Clone(), runtime.JobConfig{
		Name:           spec.Name,
		Weight:         spec.Weight,
		MaxOutstanding: spec.MaxOutstanding,
		TDFBias:        spec.TDFBias,
	})
	if err != nil {
		s.failSubmit(w, nil, err, 0)
		return
	}
	s.mu.Lock()
	s.jobs[job.ID()] = job
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{"id": job.ID(), "name": job.Name()})
}

// jobFor resolves the {id} path value to a handle; nil means the response
// was already written.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *runtime.Job {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad job id"})
		return nil
	}
	s.mu.RLock()
	job := s.jobs[task.JobID(id)]
	s.mu.RUnlock()
	if job == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no job %d", id)})
		return nil
	}
	return job
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job := s.jobFor(w, r)
	if job == nil {
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// TaskSpec is one NDJSON line of a submit stream.
type TaskSpec struct {
	Node uint32 `json:"node"`
	Prio int64  `json:"prio"`
	Data uint64 `json:"data"`
}

// submitResult is the 200 body of a submit.
type submitResult struct {
	Accepted int64 `json:"accepted"`
}

// handleSubmit streams NDJSON task lines into the job, flushing every
// submitFlush lines as one Engine submit. The draining flag and the global
// shed are re-checked at every flush, so a long stream cannot outlive a
// Shutdown's admission cutoff or bury an overloaded engine. Three hardening
// layers wrap the loop (resilience.go documents the protocol):
//
//   - X-Request-Deadline-Ms propagates into the flush loop as a context
//     deadline; expiry returns 503 with the admitted prefix, so a deadline
//     cut is just another retryable backpressure signal.
//   - A stall detector arms a connection read deadline and re-arms it after
//     every flush; a body that stops making progress is cut with 408 and
//     Connection: close rather than pinning a handler goroutine forever.
//   - X-Stream-Id/X-Stream-Offset resume an interrupted stream exactly-once:
//     lines the tracker knows were admitted on a prior attempt are skipped,
//     not re-submitted, but still counted in the response's accepted total
//     so the client's accounting converges.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	acked := r.Header.Get(HeaderAckFlush) != ""
	if acked {
		// A progress-ack client holds its body open, so the ack stream needs
		// full duplex — and so does a reply written before it starts (unknown
		// job, a busy stream's deadline): without it net/http would first
		// drain a body that does not end, and the client would see its own
		// watchdog, not the reply. Best-effort: a test recorder supports
		// neither this nor flush, and its body reads are never gated on writes.
		_ = http.NewResponseController(w).EnableFullDuplex()
	}
	job := s.jobFor(w, r)
	if job == nil {
		return
	}

	ctx := r.Context()
	hasDeadline := false
	if ms := parseDeadlineMs(r.Header.Get(HeaderDeadlineMs)); ms > 0 {
		hasDeadline = true
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}

	// Stall detector: a read deadline armed now and re-armed per flush,
	// capped by the request deadline so an expired request cannot hold the
	// connection for a full stall window. Not every ResponseWriter supports
	// read deadlines (httptest recorders do not) — then the detector is off.
	armStall := func() {}
	if d := s.cfg.SubmitStallTimeout; d > 0 {
		rc := http.NewResponseController(w)
		arm := func() error {
			dl := time.Now().Add(d)
			if cd, ok := ctx.Deadline(); ok && cd.Before(dl) {
				dl = cd
			}
			return rc.SetReadDeadline(dl)
		}
		if arm() == nil {
			armStall = func() { _ = arm() }
		}
	}

	// Stream-resume state: skip counts leading lines of this request that a
	// prior attempt already admitted (its response was lost in flight).
	var (
		key     streamKey
		tracked bool
		offset  int64
		skip    int64
	)
	if id := r.Header.Get(HeaderStreamID); id != "" {
		key = streamKey{job: uint32(job.ID()), id: id}
		tracked = true
		// Serialize attempts of the same stream: a retry racing its
		// predecessor's still-draining handler would read a stale admitted
		// count and duplicate the overlap.
		if !s.streams.acquire(ctx, key) {
			// Before the ack stream opens: a buffered reply in either protocol.
			s.failSubmit(w, nil, errDeadline, 0)
			return
		}
		defer s.streams.release(key)
		offset = parseStreamOffset(r.Header.Get(HeaderStreamOffset))
		if prior := s.streams.admitted(key); prior > offset {
			skip = prior - offset
		}
		if offset > 0 || skip > 0 {
			s.countResume()
		}
	}

	// Progress-ack mode (X-Ack-Flush): the response commits 200 immediately
	// and the handler emits one NDJSON ack line per flush, so a client
	// holding a long-lived stream open learns its admitted prefix without
	// closing the request. Every later failure is delivered in-band as a
	// terminal ack line. Requests without the header keep the buffered
	// single-response protocol byte for byte: ack stays nil.
	var ack *ackWriter
	if acked {
		ack = startAckStream(w)
		defer ack.close()
	}

	// The flush gate: both cancellation sources — the request context
	// (client abort, request deadline) and the server's drain cut — latch
	// one atomic, so the steady-state flush pays a single load instead of a
	// context poll plus a draining poll. Shutdown stores draining before
	// cancelling drainCtx, so a fired gate always classifies.
	var gate atomic.Bool
	stopCtxGate := context.AfterFunc(ctx, func() { gate.Store(true) })
	defer stopCtxGate()
	stopDrainGate := context.AfterFunc(s.drainCtx, func() { gate.Store(true) })
	defer stopDrainGate()
	if ctx.Err() != nil || s.drainCtx.Err() != nil {
		// AfterFunc on an already-done context fires on its own goroutine;
		// latch synchronously so a request arriving after the cutoff is
		// refused at its first flush, deterministically.
		gate.Store(true)
	}
	maxOut := s.cfg.MaxOutstanding

	nodes := uint32(s.g.NumNodes())
	var accepted int64 // lines of this request admitted (resumed skips included)
	bb := batchPool.Get().(*[]task.Task)
	batch := (*bb)[:0]
	defer func() {
		*bb = batch[:0]
		batchPool.Put(bb)
	}()
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if gate.Load() {
			if err := ctx.Err(); err != nil {
				if hasDeadline && errors.Is(err, context.DeadlineExceeded) {
					return errDeadline
				}
				// r.Context() died: the client went away mid-stream. Nothing
				// readable will be written back, but stop admitting its work.
				return errAborted
			}
			if s.draining.Load() {
				return errDraining
			}
		}
		if maxOut > 0 && s.eng.Outstanding() > maxOut {
			return errOverload
		}
		if err := job.Submit(batch...); err != nil {
			return err
		}
		n := int64(len(batch))
		accepted += n
		s.accepted.Add(n)
		if tracked {
			s.streams.record(key, offset+accepted)
		}
		batch = batch[:0]
		armStall()
		return nil
	}
	fr := newLineFramer(r.Body)
	defer fr.release()
	line := 0
	for {
		if ack != nil && !fr.buffered() && (len(batch) > 0 || accepted > ack.acked) {
			// Flush-on-idle: the next read would block on the network, so
			// commit the batch and ack the client's admitted prefix now —
			// ack latency tracks the RTT, not the flush cadence.
			if err := flush(); err != nil {
				s.failSubmit(w, ack, err, accepted)
				return
			}
			ack.progress(accepted)
		}
		raw, err := fr.next()
		if err != nil {
			if err == io.EOF {
				break
			}
			if errors.Is(err, errLineTooLong) {
				// The offending line is the next one the stream would have
				// yielded. Name it, and report the admitted prefix so the
				// client can repair the line instead of blind-retrying.
				writeInBand(w, ack, http.StatusBadRequest, fmt.Sprintf(
					"line %d: line too long (limit %d bytes)", line+1, maxLineBytes), accepted, 0)
				return
			}
			s.countConnAbort()
			switch {
			case errors.Is(err, os.ErrDeadlineExceeded) && hasDeadline && ctx.Err() != nil:
				// The read deadline that fired was the request deadline, not a
				// stalled client: report it as retryable backpressure.
				s.failSubmit(w, ack, errDeadline, accepted)
			case errors.Is(err, os.ErrDeadlineExceeded):
				// The body stopped making progress. The connection is poisoned
				// past its read deadline, so close it (the header is a no-op
				// once an ack stream has committed its own) — but report the
				// admitted prefix so a recovered client can resume the stream.
				w.Header().Set("Connection", "close")
				writeInBand(w, ack, http.StatusRequestTimeout, "submit body stalled: "+err.Error(), accepted, 0)
			default:
				writeInBand(w, ack, http.StatusBadRequest, "reading body: "+err.Error(), accepted, 0)
			}
			return
		}
		if len(raw) == 0 {
			// Progress-mode clients send empty-line heartbeats while idle
			// (protocol no-ops, skipped without counting): feed the stall
			// detector so a live-but-idle stream is not cut.
			if ack != nil {
				armStall()
			}
			continue
		}
		line++
		if int64(line) <= skip {
			// Already admitted by a prior attempt: confirm, don't re-submit.
			accepted++
			continue
		}
		spec, perr := parseTaskSpecLine(raw)
		if perr != nil {
			writeInBand(w, ack, http.StatusBadRequest,
				fmt.Sprintf("line %d: bad task spec: %v", line, perr), accepted, 0)
			return
		}
		if spec.Node >= nodes {
			writeInBand(w, ack, http.StatusBadRequest,
				fmt.Sprintf("line %d: node %d out of range [0,%d)", line, spec.Node, nodes), accepted, 0)
			return
		}
		batch = append(batch, taskFromSpec(spec))
		if len(batch) >= submitFlush {
			if err := flush(); err != nil {
				s.failSubmit(w, ack, err, accepted)
				return
			}
			ack.progress(accepted)
		}
	}
	if err := flush(); err != nil {
		s.failSubmit(w, ack, err, accepted)
		return
	}
	writeSubmitOK(w, ack, accepted)
}

var (
	errDraining = errors.New("serve: draining, not admitting work")
	errOverload = errors.New("serve: engine over global outstanding limit")
	errDeadline = errors.New("serve: request deadline exceeded")
	errAborted  = errors.New("serve: client went away mid-stream")
)

// handleDrain blocks until the job is quiescent or ?timeout= (default the
// server's DrainTimeout) expires — a stall returns 504 with the engine's
// diagnostics text so the client sees which tenant wedged.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	job := s.jobFor(w, r)
	if job == nil {
		return
	}
	d := s.cfg.DrainTimeout
	if t := r.URL.Query().Get("timeout"); t != "" {
		var err error
		if d, err = time.ParseDuration(t); err != nil || d <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad timeout " + t})
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	if err := job.Drain(ctx); err != nil {
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.jobFor(w, r)
	if job == nil {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DrainTimeout)
	defer cancel()
	if err := job.Cancel(ctx); err != nil {
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// timeoutOrOff maps the config convention (negative: disabled) onto
// http.Server's (zero: disabled).
func timeoutOrOff(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// Serve runs the HTTP server on lis until Shutdown. The server's own
// timeouts bound the connection phases a malicious or broken peer controls:
// header reads (slowloris) and keep-alive idleness. Whole-request timeouts
// stay off by default — submit streams and drains are legitimately long —
// and the stall detector in handleSubmit covers the body phase instead.
func (s *Server) Serve(lis net.Listener) error {
	hs := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: timeoutOrOff(s.cfg.ReadHeaderTimeout),
		IdleTimeout:       timeoutOrOff(s.cfg.IdleTimeout),
		ReadTimeout:       timeoutOrOff(s.cfg.ReadTimeout),
		WriteTimeout:      timeoutOrOff(s.cfg.WriteTimeout),
	}
	s.hsMu.Lock()
	s.hs = hs
	s.hsMu.Unlock()
	err := hs.Serve(lis)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ShutdownReport is the graceful-drain verdict: the ledger totals and
// whether every accepted task was accounted for.
type ShutdownReport struct {
	Accepted    int64            `json:"accepted"`
	Snapshot    runtime.Snapshot `json:"snapshot"`
	LedgerExact bool             `json:"ledger_exact"`
}

// startDraining flips the admission cutoff: the draining flag for the
// probe/list paths, then the drainCtx cancel that fires every in-flight
// submit's flush gate. The store must precede the cancel so a fired gate
// always classifies as draining.
func (s *Server) startDraining() {
	s.draining.Store(true)
	s.drainCancel()
}

// Shutdown is the graceful SIGTERM path, in the only order that makes the
// ledger provable: stop admitting (every in-flight submit's next flush sees
// the flag), let the HTTP layer finish its in-flight requests, drain the
// engine to quiescence, prove the conservation ledger (chaos.Checker) and
// that the engine's Submitted count equals every task this server accepted,
// then stop the fleet. Any violated step returns an error and a report
// showing how far the proof got.
func (s *Server) Shutdown(ctx context.Context) (ShutdownReport, error) {
	s.startDraining()
	s.hsMu.Lock()
	hs := s.hs
	s.hsMu.Unlock()
	if hs != nil {
		if err := hs.Shutdown(ctx); err != nil {
			return ShutdownReport{Accepted: s.accepted.Load()}, fmt.Errorf("serve: http shutdown: %w", err)
		}
	}
	dctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	if err := s.eng.Drain(dctx); err != nil {
		return ShutdownReport{Accepted: s.accepted.Load(), Snapshot: s.eng.Snapshot()},
			fmt.Errorf("serve: engine drain: %w", err)
	}
	snap := s.eng.Snapshot()
	rep := ShutdownReport{Accepted: s.accepted.Load(), Snapshot: snap}
	var ck chaos.Checker
	if err := ck.Quiescent(snap); err != nil {
		return rep, fmt.Errorf("serve: ledger: %w", err)
	}
	wantSubmitted := rep.Accepted
	if s.chaosT != nil {
		// Engine-layer chaos duplicates re-enter through Submit — ledger-
		// counted submissions that never crossed the HTTP accept path.
		wantSubmitted += s.chaosT.Stats().Duplicates.Load()
	}
	if snap.Submitted != wantSubmitted {
		return rep, fmt.Errorf("serve: accepted-task loss: server accepted %d (%d with chaos duplicates), engine ledger submitted %d",
			rep.Accepted, wantSubmitted, snap.Submitted)
	}
	rep.LedgerExact = true
	if err := s.eng.Stop(ctx); err != nil {
		return rep, fmt.Errorf("serve: engine stop: %w", err)
	}
	return rep, nil
}
