GO ?= go

.PHONY: all build tier1 quick vet lint race procs chaos serve-chaos bench bench-smoke bench-gate scale-gate serve-smoke fuzz-smoke examples ci

all: ci

build:
	$(GO) build ./...

# Tier-1: the gate every change must keep green (ROADMAP.md).
tier1: build
	$(GO) test ./...

# Inner loop: Tier-1 without the figure grids of internal/exp (testing.Short).
# internal/sched's golden-cycles table is not skipped and stands in for the
# grids: a semantic slip in the simulator fails here. The serve soaks run
# here too (~5 s for internal/serve), so reset recovery and the netchaos
# mixes are in the inner loop. tier1, ci and every CI job run the full set.
quick: build
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# Examples: tier1 only compiles the examples/ programs; this runs each to its
# end (every one verifies its own answer and exits non-zero on a failure),
# which is how a change to the facade API they call shows. ~5 s in all with a
# warm build cache.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d || exit 1; \
	done

# Lint: gofmt is a hard gate everywhere; staticcheck runs when installed
# (the CI workflow installs it, minimal containers may not have it). The size
# ratchet keeps internal/runtime, internal/serve, internal/exp, internal/sched,
# internal/sim, internal/obs, internal/pq, internal/chaos and internal/netchaos
# cut along their units (DESIGN.md §4, §5, §9, §10, §11.1): a non-test file
# past 700 lines is a unit growing a second job — engine.go was 1,662 lines
# before it was split, serve.go 919, exp/experiments.go 807 before its figures
# became declarations; sched/cps.go is the one closest today.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; \
	fi
	@for f in internal/runtime/*.go internal/serve/*.go internal/exp/*.go internal/sched/*.go internal/sim/*.go \
		internal/obs/*.go internal/pq/*.go internal/chaos/*.go internal/netchaos/*.go; do \
		case $$f in *_test.go) continue;; esac; \
		n=$$(wc -l < $$f); if [ $$n -gt 700 ]; then \
			echo "lint: $$f has $$n lines, over the 700-line ratchet: split it along a unit"; exit 1; \
		fi; \
	done
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi

# Race tier: the concurrency-heavy packages under the race detector. The
# native runtime (engine lifecycle, transport, control plane), the MPSC
# ring, the payload transport, the observability recorder, exec.RunJobs
# (the one native run: tenants, chaos, the fairness sampler), the open-loop
# load harness (a clock goroutine handing stamped arrivals to one sender
# goroutine per stream, over a shared histogram), the workloads (one
# instance through a serial oracle, a native solve, a simulated run and a
# native solve again: a native engine that kept the plain-memory kernel of a
# serial run races here), and the parallel experiment driver are where a
# data race would actually live. The exp run is scoped to the
# driver tests: racing the full figure suite is ~10min on one core and
# exercises no concurrency the driver tests don't.
race:
	$(GO) test -race ./internal/rq/... ./internal/runtime/... ./internal/bag/... ./internal/obs/... ./internal/exec/... ./internal/chaos/... ./internal/netchaos/... ./internal/load/... ./internal/workload/...
	$(GO) test -race -run 'TestParallel' -count=1 ./internal/exp/

# Procs axis (ROADMAP, "Keep Tier-1 fast and box-independent, and prove the
# rest under real parallelism"): the engine, its fault-injection soaks and
# exec.RunJobs (one- and three-job runs under chaos) at GOMAXPROCS 1, 2 and
# 4. The ledger's settle-before-ship rule and the "mix injected nothing"
# assertions must hold however many workers really run at once, not only at
# the host's own CPU count.
procs:
	for p in 1 2 4; do \
		GOMAXPROCS=$$p $(GO) test -count=1 ./internal/runtime/ ./internal/chaos/ ./internal/exec/ || exit 1; \
	done

# Chaos tier: the fault-injection soaks (internal/chaos) under the race
# detector — every mix (delay, duplication, reorder, ring-full, stall,
# combined, quarantine) on the default engine, the worker-pause-mid-drain
# regression, and the multi-tenant mixes (mid-drain job cancellation and
# quota saturation with neighbours running), each asserting the global
# ledger, every per-job ledger, the partition identity and the answer at
# every quiescent checkpoint — plus the runtime tests that drive the fault
# hook (steal's drain of a peer through its filter, the shipped front, the
# idle poll with held arrivals, the ledger's in-flight check, a restart out
# of a drain): a thief runs a peer's receive filter while the peer's owner
# runs its send side, which is the split the race detector holds. Seeds are
# fixed, so a failure reproduces. Set CHAOS_SOAK=1 (the nightly knob) for
# longer soaks on bigger graphs.
chaos:
	$(GO) test -race -count=1 -run 'TestSoak|TestEnginePanic|TestEngineQuarantine|TestEngineDrain|TestEngineOverflow|TestSteal|TestShipped|TestIdlePoll|TestLedgerCoversInFlight|TestEngineRestartMidRun' \
		./internal/chaos/ ./internal/runtime/

# Serve-chaos tier: the network-boundary soaks under the race detector — a
# real serve.Server behind the fault-injecting netchaos listener, driven by
# the persistent-stream client (one long-lived stream and many one-batch
# streams), across every connection-fault mix (RST, stall,
# short-read/partial-write, latency+throttle, combined with engine-transport
# chaos). Each mix must end with three-way ledger agreement: client-confirmed
# admissions == server accepted == engine Submitted (mod chaos duplicates),
# proving zero loss and zero duplication through the resume protocol. The
# whole serve package runs so the deadline/stall/disconnect regressions ride
# along. ~15 s on 2 CPUs; CHAOS_SOAK=1 (the nightly knob) lengthens the soak.
serve-chaos:
	$(GO) test -race -count=1 ./internal/serve/

# Hot-path microbenchmarks (ring push/batch, heap arity, every queue shape
# including the native bucket ring and the simulator's HPQ under three
# priority distributions, partitioner, native runtime throughput with and
# without the obs recorder, a 256-task Submit into a running engine with its
# allocations (BenchmarkEngineSubmit: 0 allocs/op); the simulator's event
# queue, cache model, one
# simulated run a scheduler and the sim-sweep cells).
# The root package carries BenchmarkNativeRuntime{,Observed},
# BenchmarkSchedulers and BenchmarkSimSweep (too slow for bench-smoke);
# compare runs with benchstat, see EXPERIMENTS.md.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRingPush|BenchmarkHeapPushPop|BenchmarkPartition|BenchmarkNativeRuntime|BenchmarkEngineSubmit|BenchmarkQueueDist|BenchmarkSchedulers|BenchmarkSimSweep|BenchmarkEventQueue|BenchmarkMemAccess' \
		-benchmem . ./internal/rq/ ./internal/pq/ ./internal/bag/ ./internal/runtime/ ./internal/sim/
	$(GO) test -run '^$$' -bench 'BenchmarkSubmitIngest' -benchmem ./internal/serve/

# Bench smoke: prove every microbenchmark still runs — a fixed tiny
# iteration count, not a measurement (CI runs this; use `make bench` +
# benchstat for numbers; `go test ./benchmark` already runs a -smoke pass of
# every benchmark workload in Tier-1). The fairness-sweep run proves the
# multi-tenant path end to end (4 jobs, weights 4:2:1:1, per-job ledgers
# exact); at tiny scale its shares are informational, the ±10pp gate binds
# at small scale and up.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkRingPush|BenchmarkHeapPushPop|BenchmarkPartition|BenchmarkNativeRuntime|BenchmarkEngineSubmit|BenchmarkQueueDist|BenchmarkSchedulers|BenchmarkEventQueue|BenchmarkMemAccess' \
		-benchtime 100x -benchmem . ./internal/rq/ ./internal/pq/ ./internal/bag/ ./internal/runtime/ ./internal/sim/
	$(GO) test -run '^$$' -bench 'BenchmarkSubmitIngest' -benchtime 100x -benchmem ./internal/serve/
	$(GO) run ./cmd/hdcps-bench -exp fairness-sweep -scale tiny

# Bench regression gate: a same-box A/B of the whole benchmark (benchmark/,
# BENCHMARK.json) between BASE and this tree, judged by `benchmark -compare`
# (cmd/hdcps-ab says how). ~5.5 min on 2 CPUs; wall-clock, so out of
# Tier-1 and, like scale-gate, to be run alone. What it does not carry,
# because a Tier-1 test or smoke already holds it: strict queue kinds invert
# nothing (TestEngineRankCounters), ingest/encode allocate <= 1 per line
# (internal/serve/ingest_test.go), no 5xx and a ledger-exact drain
# (serve-smoke, and serve-ingest's failed count), the per-kind quality table
# (hdcps-bench -exp queue-sweep).
BASE = HEAD~1
bench-gate:
	$(GO) run ./cmd/hdcps-ab $(BASE)

# Scaling gate (cmd/hdcps-ab says how): sssp on a road graph with one worker,
# with two and with two per CPU in turn in one process, 25 verified solves
# each after a discarded warm-up, on hdcps-bench's small scale (road 120x120)
# and its large scale (road 240x240, the benchmark's sssp-road input). It
# fails when the two-worker median exceeds limit x the one-worker median, when
# the oversubscribed median exceeds 2x the two-worker one (a constant in
# hdcps-bench), or when the one- or two-worker median is more than 25% slower
# than BASE's, measured beside it on this box: a ratio cannot tell "one worker
# got faster" from "two workers got slower", so the ratio alone is not the
# gate. Each limit is the top of its measured range + 10% (EXPERIMENTS.md,
# "Scaling gate history", has every range), and a ratchet: lower it whenever
# a change makes room. The one rise so far came with a change that took more
# off the one-worker solve than off the two-worker one, every time falling.
# Skips, saying so, on fewer than two CPUs; run it alone — a wall-clock
# verdict, so it stays out of Tier-1.
scale-gate:
	$(GO) run ./cmd/hdcps-ab -scale small=1.36,large=1.01 $(BASE)

# Serving smoke: build hdcps-serve + hdcps-load, boot on an ephemeral port,
# drive a fixed-rate open-loop run over persistent streams (-retries 1: any
# terminal answer or transport error fails it), SIGTERM, and require the
# graceful drain to be ledger-exact (no accepted task lost). Artifacts in
# $$SMOKE_DIR when set; otherwise a temp directory kept only on failure.
serve-smoke:
	./scripts/serve_smoke.sh

# Fuzz smoke: 20s each of the two differential fuzzers. The zero-alloc
# TaskSpec parser against encoding/json — any divergence in accept/reject
# decision, decoded fields, or fallback error text is a crash — and the native
# runtime's bucket-ring queue against a binary heap: same priority sequence,
# same multiset, FIFO among equal priorities, through ring growth and the
# span-overflow fallback. CI runs this on every push; longer local runs:
# go test -fuzz FuzzTaskSpecParser ./internal/serve/
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzTaskSpecParser' -fuzztime 20s ./internal/serve/
	$(GO) test -run '^$$' -fuzz 'FuzzTwoLevelVsBinaryHeap' -fuzztime 20s ./internal/pq/

ci: tier1 vet lint examples race procs chaos serve-chaos serve-smoke scale-gate fuzz-smoke bench-gate
