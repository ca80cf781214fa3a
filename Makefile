GO ?= go

.PHONY: all build tier1 vet lint race procs chaos serve-chaos bench bench-smoke bench-gate scale-gate bench-native serve-smoke serve-gate serve-bench fuzz-smoke ci

all: ci

build:
	$(GO) build ./...

# Tier-1: the gate every change must keep green (ROADMAP.md).
tier1: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Lint: gofmt is a hard gate everywhere; staticcheck runs when installed
# (the CI workflow installs it, minimal containers may not have it).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi

# Race tier: the concurrency-heavy packages under the race detector. The
# native runtime (engine lifecycle, transport, control plane), the MPSC
# ring, the payload transport, the observability recorder, the executor
# registry that fronts the runtime, and the parallel experiment driver are
# where a data race would actually live. The exp run is scoped to the
# driver tests: racing the full figure suite is ~10min on one core and
# exercises no concurrency the driver tests don't.
race:
	$(GO) test -race ./internal/rq/... ./internal/runtime/... ./internal/bag/... ./internal/obs/... ./internal/exec/... ./internal/chaos/... ./internal/netchaos/...
	$(GO) test -race -run 'TestParallel' -count=1 ./internal/exp/

# Procs axis (ROADMAP item 5b): the engine, its fault-injection soaks and the
# executor registry at GOMAXPROCS 1, 2 and 4. The ledger's settle-before-ship
# rule and the soaks' "mix injected nothing" assertions must hold however many
# workers really run at once, not only at the host's own CPU count.
procs:
	for p in 1 2 4; do \
		GOMAXPROCS=$$p $(GO) test -count=1 ./internal/runtime/ ./internal/chaos/ ./internal/exec/ || exit 1; \
	done

# Chaos tier: the fault-injection soaks (internal/chaos) under the race
# detector — every mix (delay, duplication, reorder, ring-full, stall,
# combined, quarantine), the worker-pause-mid-drain regression, and the
# multi-tenant mixes (mid-drain job cancellation and quota saturation with
# neighbours running), each asserting the global ledger, every per-job
# ledger, and the partition identity at every quiescent checkpoint. Seeds
# are fixed, so a failure reproduces. Set CHAOS_SOAK=1 (the nightly knob)
# for longer soaks on bigger graphs.
chaos:
	$(GO) test -race -count=1 -run 'TestSoak|TestEnginePanic|TestEngineRetry|TestEngineQuarantine|TestEngineDrain|TestEngineOverflow' \
		./internal/chaos/ ./internal/runtime/

# Serve-chaos tier: the network-boundary soaks under the race detector — a
# real serve.Server behind the fault-injecting netchaos listener, driven by
# the retrying client, across every connection-fault mix (RST, stall,
# short-read/partial-write, latency+throttle, combined with engine-transport
# chaos). Each mix must end with three-way ledger agreement: client-confirmed
# admissions == server accepted == engine Submitted (mod chaos duplicates),
# proving zero loss and zero duplication through the resume protocol. The
# whole serve package runs so the deadline/stall/disconnect regressions ride
# along. CHAOS_SOAK=1 (the nightly knob) lengthens the soak.
serve-chaos:
	$(GO) test -race -count=1 ./internal/serve/

# Hot-path microbenchmarks (ring push/batch, heap arity, partitioner,
# native runtime throughput with and without the obs recorder). The root
# package carries BenchmarkNativeRuntime{,Observed}; compare runs with
# benchstat, see EXPERIMENTS.md.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRingPush|BenchmarkHeapPushPop|BenchmarkPartition|BenchmarkNativeRuntime|BenchmarkQueueDist' \
		-benchmem . ./internal/rq/ ./internal/pq/ ./internal/bag/ ./internal/runtime/
	$(GO) test -run '^$$' -bench 'BenchmarkSubmitIngest' -benchmem ./internal/serve/

# Bench smoke: prove every benchmark still runs and the native bench
# harness still emits a report — a fixed tiny iteration count, not a
# measurement (CI runs this; use `make bench` + benchstat for numbers).
# The fairness-sweep run proves the multi-tenant path end to end (4 jobs,
# weights 4:2:1:1, per-job ledgers exact); at tiny scale its shares are
# informational, the ±10pp gate binds at small scale and up.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkRingPush|BenchmarkHeapPushPop|BenchmarkPartition|BenchmarkNativeRuntime|BenchmarkQueueDist' \
		-benchtime 100x -benchmem . ./internal/rq/ ./internal/pq/ ./internal/bag/ ./internal/runtime/
	$(GO) test -run '^$$' -bench 'BenchmarkSubmitIngest' -benchtime 100x -benchmem ./internal/serve/
	$(GO) run ./cmd/hdcps-bench -native -label smoke -scale tiny -reps 2 -o -
	$(GO) run ./cmd/hdcps-bench -exp fairness-sweep -scale tiny

# Bench regression gate: a short native run compared against the newest
# run recorded in BENCH_native.json. Fails on throughput collapse (beyond
# 25%% of baseline) or an allocation blow-up, not on ordinary CI-runner
# drift — see cmd/hdcps-bench's -check flag.
bench-gate:
	$(GO) run ./cmd/hdcps-bench -native -label ci-gate -scale tiny -reps 3 \
		-o /tmp/hdcps-bench-gate.json -check BENCH_native.json -tol 0.25

# Scaling gate, ROADMAP item 1's exit criterion ("two workers at least as fast
# as one"): one process solves sssp on a road graph with one worker and with
# two in turn, 25 verified solves each after a discarded warm-up, and fails
# when the two-worker median exceeds limit x the one-worker median. It runs on
# hdcps-bench's small scale (road 120x120) with limit 1.1 and on its large
# scale (road 240x240, the benchmark's sssp-road input) with limit 1.0.
# History, large / small: 1.7-1.9 / 2.0-2.6 before the drift-minimising
# controller, 1.2-1.4 / 1.5-1.8 with it (limit 1.5, large only), 0.73-0.78 /
# 0.78-0.98 with the per-batch ledger and the dispatch gate. The limits are
# ratchets: lower them whenever a change makes room, never raise them. Skips,
# saying so, on fewer than two CPUs; on a box busy with anything else a
# descheduled worker makes two workers several times slower than one (DESIGN.md
# §9.1), so run it alone. A wall-clock verdict, so it stays out of Tier-1.
scale-gate:
	$(GO) run ./cmd/hdcps-bench -scale-gate 1.1 -scale small -reps 25
	$(GO) run ./cmd/hdcps-bench -scale-gate 1.0 -scale large -reps 25

# Refresh BENCH_native.json for the current tree (label with the short SHA).
bench-native:
	$(GO) run ./cmd/hdcps-bench -native -label $$(git rev-parse --short HEAD) -o BENCH_native.json

# Serving smoke: build hdcps-serve + hdcps-load, boot on an ephemeral port,
# drive a fixed-rate open-loop run, SIGTERM, and require the graceful drain
# to be ledger-exact (no accepted task lost). Artifacts in $$SMOKE_DIR.
serve-smoke:
	./scripts/serve_smoke.sh

# Serving regression gate: a short saturation sweep through the real HTTP
# front-end compared against the newest run in BENCH_serve.json. Fails on a
# knee collapse (beyond 25%% of baseline), a p99 blow-up, or — tolerance-
# exempt — any server 5xx; not on ordinary CI-runner drift. Knee searches
# are noisy (sub-second probes), so one failed sweep gets one fresh retry:
# a real collapse fails both, a noise spike only one.
serve-gate:
	$(GO) run ./cmd/hdcps-bench -serve -label ci-gate -scale tiny \
		-o /tmp/hdcps-serve-gate.json -check BENCH_serve.json -tol 0.25 || \
	$(GO) run ./cmd/hdcps-bench -serve -label ci-gate -scale tiny \
		-o /tmp/hdcps-serve-gate.json -check BENCH_serve.json -tol 0.25

# Refresh BENCH_serve.json for the current tree (label with the short SHA).
serve-bench:
	$(GO) run ./cmd/hdcps-bench -serve -label $$(git rev-parse --short HEAD) -o BENCH_serve.json

# Fuzz smoke: a short differential fuzz of the zero-alloc TaskSpec parser
# against encoding/json — any divergence in accept/reject decision, decoded
# fields, or fallback error text is a crash. CI runs this on every push;
# longer local runs: go test -fuzz FuzzTaskSpecParser ./internal/serve/
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzTaskSpecParser' -fuzztime 20s ./internal/serve/

ci: tier1 vet lint race procs chaos serve-chaos serve-smoke serve-gate scale-gate fuzz-smoke
