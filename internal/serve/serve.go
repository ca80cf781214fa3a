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
//   - The ops plane (pprof, Go's own expvar, the obs recorder's live
//     snapshot at /debug/obs) hangs off the same mux, so one port serves both
//     traffic and diagnostics.
//   - The network boundary is hostile: header reads and idle connections are
//     bounded (slowloris guard), a submit body that stops making progress is
//     cut by a stall detector, per-request deadlines propagate into
//     admission, and an interrupted NDJSON stream resumes exactly-once via
//     the admitted-prefix protocol in resilience.go. Liveness (/healthz)
//     and readiness (/readyz) are split so a draining instance is taken out
//     of rotation without being killed mid-drain.
//
// This file is the lifecycle (Config, New, Serve, Shutdown) and the small
// handlers. A submit is three units that meet only in handleSubmit: the
// ingest loop (ingest.go), admission and the failure table (admit.go), and
// the reply in either protocol (ack.go); DESIGN.md §11.1 has the table.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
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
	// SubmitStallTimeout is the slow-client guard: a submit body that makes
	// no progress for this long is aborted with 408 reporting the admitted
	// prefix (a recovered client resumes the stream). 0 defaults to 15s;
	// negative disables.
	SubmitStallTimeout time.Duration
}

// The connection phases a malicious or broken peer controls are bounded by
// constants: header reads (slowloris) and keep-alive idleness. Whole-request
// read and write timeouts stay off — submit bodies are open-ended streams and
// drains legitimately block for their full timeout; the stall guard and
// per-request deadlines bound those paths instead.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	// streamCacheSize caps the exactly-once stream-resume tracker; the oldest
	// streams are evicted first.
	streamCacheSize = 4096
)

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
	if c.SubmitStallTimeout == 0 {
		c.SubmitStallTimeout = 15 * time.Second
	}
	return c
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
	// draining is the admission cutoff: Shutdown sets it and every submit's
	// next flush, /readyz and job create read it (refusal, admit.go).
	draining atomic.Bool

	// Network-boundary resilience state (resilience.go): the exactly-once
	// stream tracker, the shed/deadline/abort/resume counters, and the
	// engine-layer fault counters when Config.Chaos is set.
	streams *streamTracker
	resil   resilStats
	faults  *chaos.Stats

	hsMu sync.Mutex
	hs   *http.Server

	started time.Time
}

// New builds the engine, seeds it if configured, and starts the fleet.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	g, err := graph.Builtin(cfg.Input, cfg.Scale, cfg.Seed)
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
	var eng *runtime.Engine
	var faults *chaos.Stats
	if cfg.Chaos != nil {
		eng, faults = chaos.Engine(wl, rcfg, *cfg.Chaos)
	} else {
		eng = runtime.NewEngine(wl, rcfg)
	}
	s := &Server{
		cfg:     cfg,
		eng:     eng,
		g:       g,
		wl:      wl,
		rec:     rec,
		jobs:    map[task.JobID]*runtime.Job{0: eng.DefaultJob()},
		streams: newStreamTracker(streamCacheSize),
		faults:  faults,
		started: time.Now(),
	}
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

// ChaosStats returns the engine-layer injected-fault counters, or nil when
// Config.Chaos is unset (the CLI prints them at exit).
func (s *Server) ChaosStats() *chaos.Stats { return s.faults }

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

	// Ops plane: Go's own expvar (memstats, cmdline), pprof (explicit routes
	// — the server never touches the DefaultServeMux), and the obs recorder's
	// live snapshot.
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
	if err := s.refusal(); err != nil {
		// The answer a submit would get, uncounted.
		failureOf(err).write(w, nil, err, 0)
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
	if err := s.refusal(); err != nil {
		s.reply(w, nil, err, 0)
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
		s.reply(w, nil, err, 0)
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
	waitThenSnapshot(w, r, job, d, job.Drain)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if job := s.jobFor(w, r); job != nil {
		waitThenSnapshot(w, r, job, s.cfg.DrainTimeout, job.Cancel)
	}
}

// waitThenSnapshot is the body drain and cancel share: wait (at most d) for
// the job to go quiet, then answer its ledger, or 504 with why it did not.
func waitThenSnapshot(w http.ResponseWriter, r *http.Request, job *runtime.Job, d time.Duration, wait func(context.Context) error) {
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	if err := wait(ctx); err != nil {
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// Serve runs the HTTP server on lis until Shutdown.
func (s *Server) Serve(lis net.Listener) error {
	hs := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
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

// Shutdown is the graceful SIGTERM path, in the only order that makes the
// ledger provable: stop admitting (every in-flight submit's next flush sees
// the flag), let the HTTP layer finish its in-flight requests, drain the
// engine to quiescence, prove the conservation ledger (chaos.Checker) and
// that the engine's Submitted count equals every task this server accepted,
// then stop the fleet. Any violated step returns an error and a report
// showing how far the proof got.
func (s *Server) Shutdown(ctx context.Context) (ShutdownReport, error) {
	s.draining.Store(true)
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
	if s.faults != nil {
		// Engine-layer chaos duplicates re-enter through Submit — ledger-
		// counted submissions that never crossed the HTTP accept path.
		wantSubmitted += s.faults.Duplicates.Load()
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
