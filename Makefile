# Single source of truth for local and CI invocations: the workflow in
# .github/workflows/ci.yml calls these targets, so the two cannot drift.

GO ?= go

# Reduced reproduction pass for `make repro` (full scale: run
# cmd/experiments with no -seqs overrides).
REPRO_SEQS      ?= 6
REPRO_CITY_SEQS ?= 60
REPRO_OUT       ?= report.json
BENCH_OUT       ?= bench.txt
BENCH_JSON      ?= BENCH_HEAD.json
BENCH_THRESHOLD ?= 0.15
BENCH_COUNT     ?= 3
BENCH_GATE_TIME ?= 3x
SWEEP_OUT       ?= sweep.txt
TRACE_OUT       ?= trace.jsonl
PROFILE_BENCH   ?= BenchmarkServeOverload|BenchmarkServeParallelStep
STATICCHECK     ?= staticcheck
# The one place the staticcheck version is pinned: lint-install (used
# by CI) and the local install hint both read it, so the version CI
# enforces and the version the hint suggests cannot drift.
STATICCHECK_VERSION ?= 2024.1.1
FUZZ_TIME       ?= 20s

.PHONY: all fmt vet lint lint-install lint-det build test race cover fuzz bench bench-json bench-diff cluster-determinism cluster-failover profile repro sweep trace clean

all: fmt vet build test

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet. CI installs staticcheck and calls this
# target with LINT_STRICT=1, so a missing binary fails the job instead
# of going silently green; locally the target skips (exit 0) when the
# binary is not on PATH, so `make lint` never forces a network install.
lint:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	elif [ -n "$(LINT_STRICT)" ]; then \
		echo "lint: $(STATICCHECK) not installed and LINT_STRICT is set"; exit 1; \
	else \
		echo "lint: $(STATICCHECK) not installed; skipping"; \
		echo "lint: install with: make lint-install"; \
	fi

# Installs the pinned staticcheck (network access required). CI runs
# this before `make lint LINT_STRICT=1`.
lint-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# Project-specific determinism/hot-path analyzers (internal/lint via
# cmd/detlint): map-order dependence, wall-clock reads, global
# math/rand, stray goroutines, allocating constructs in
# //detlint:allocfree functions, golden JSON schema compatibility.
# Stdlib-only — no install step, safe to run anywhere the toolchain
# exists. Fails on any unsuppressed diagnostic.
lint-det:
	$(GO) run ./cmd/detlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Per-package statement coverage of the full suite (the golden preset
# and chaos harnesses push internal/serve; CI runs this as its own job
# so coverage erosion is visible per PR).
cover:
	$(GO) test -cover ./...

# Short coverage-guided exploration beyond the seeded corpora, one
# target after the other (FUZZ_TIME each): Server.Submit with
# adversarial (stream, frame, arriveAt) triples under every reconnect x
# poison policy combination, then the word-parallel region-mask kernels
# against their per-cell reference for arbitrary frame, cell and box
# values. CI runs this as a smoke pass; raise FUZZ_TIME locally for a
# real hunt.
fuzz:
	$(GO) test ./internal/serve -run '^FuzzSubmit$$' -fuzz '^FuzzSubmit$$' \
		-fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/geom -run '^FuzzMaskSpan$$' -fuzz '^FuzzMaskSpan$$' \
		-fuzztime $(FUZZ_TIME)

# One iteration of every benchmark: a smoke pass that also emits the
# headline reproduction metrics (b.ReportMetric) into $(BENCH_OUT).
bench:
	@$(GO) test -run '^$$' -bench . -benchtime 1x ./... > $(BENCH_OUT) 2>&1; \
		st=$$?; cat $(BENCH_OUT); exit $$st

# Machine-readable benchmark trajectory: the bench smoke pass with
# -benchmem, converted by cmd/benchjson into $(BENCH_JSON) — one record
# per benchmark with ns/op, B/op, allocs/op and every custom metric.
# CI uploads the file as an artifact, so per-PR performance history can
# be diffed by tooling instead of scraped from text.
bench-json:
	@$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... > $(BENCH_OUT) 2>&1; \
		st=$$?; cat $(BENCH_OUT); \
		if [ $$st -ne 0 ]; then exit $$st; fi; \
		$(GO) run ./cmd/benchjson -o $(BENCH_JSON) $(BENCH_OUT) && \
		echo "wrote $(BENCH_JSON)"

# Benchmark regression gate: rerun the benchmarks with -benchmem and
# diff against the newest committed BENCH_PR<n>.json baseline with
# cmd/benchdiff. Fails on any ns/op regression beyond BENCH_THRESHOLD
# (fractional, default 0.15) or allocs/op growth beyond a 0.1%
# scheduling-jitter guard; when the baseline was recorded on a
# different machine the ns/op gate degrades to advisory warnings and
# only the allocation counts gate. Each run averages BENCH_GATE_TIME
# iterations and repeats BENCH_COUNT times, comparing by per-benchmark
# minimum (benchdiff folds duplicates), because single 1x iterations
# swing tens of percent on loaded CI machines; the committed baselines
# are recorded the same way.
bench-diff:
	@$(GO) test -run '^$$' -bench . -benchtime $(BENCH_GATE_TIME) -benchmem \
		-count $(BENCH_COUNT) ./... > bench_head.txt 2>&1; \
		st=$$?; if [ $$st -ne 0 ]; then cat bench_head.txt; exit $$st; fi; \
		$(GO) run ./cmd/benchjson -o BENCH_HEAD.json bench_head.txt && \
		$(GO) run ./cmd/benchdiff -head BENCH_HEAD.json -threshold $(BENCH_THRESHOLD)

# Byte-identity of the merged cluster books across shard counts, static
# executor counts and step-worker fan-outs, under the race detector:
# the determinism contract the sharding/migration/autoscaling layer is
# pinned to (see internal/serve/cluster).
cluster-determinism:
	$(GO) test -race -run '^TestClusterDeterminism$$' -v ./internal/serve/cluster/

# Byte-identical merged books with shard kills, revivals and every
# failover policy live, across shard counts and step-worker fan-outs
# under the race detector — plus the empty-FaultPlan golden byte
# identity (the fault machinery must be free when unused).
cluster-failover:
	$(GO) test -race -run '^(TestFailoverDeterminism|TestNoFaultPlanMatchesCluster)$$' -v ./internal/serve/cluster/

# CPU and heap profiles of the serving hot path (see PROFILE_BENCH).
# Inspect with: go tool pprof -top cpu.prof
profile:
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchtime 5x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "profiles written: cpu.prof mem.prof (go tool pprof -top cpu.prof)"

# Reduced experiment pass: regenerates every table and figure, writes
# the machine-readable report, and exits non-zero on any
# Report.ShapeCheck violation.
repro:
	$(GO) run ./cmd/experiments -seqs $(REPRO_SEQS) -city-seqs $(REPRO_CITY_SEQS) -json $(REPRO_OUT)

# Reduced serving policy sweep: one hot Poisson stream against five
# quiet ones on a saturated executor, replayed under every scheduler x
# batch-size combination, followed by every scenario pack replayed
# under the pinned chaos conditions (dropouts, restarted numbering,
# FPS jitter, clock skew, poison pills), followed by the cluster
# capacity sweep — a bursty load on two shards under static executor
# counts 1..4 and the elastic autoscaler, where elastic wins on served
# frames per modeled dollar. The tables make scheduling/batching,
# chaos-robustness and elastic-economics regressions visible per PR
# (CI uploads $(SWEEP_OUT) as an artifact).
sweep:
	@$(GO) run ./cmd/serve -preset mini -streams 6 -fps 12 \
		-stream-fps 60,12,12,12,12,12 -arrivals poisson -executors 1 \
		-duration 6 -stale 0.4 -sweep > $(SWEEP_OUT); \
		st=$$?; if [ $$st -ne 0 ]; then cat $(SWEEP_OUT); exit $$st; fi; \
		echo >> $(SWEEP_OUT); \
		$(GO) run ./cmd/serve -preset all -streams 3 -fps 10 -duration 4 \
		-executors 1 -stale 0.4 -reconnect resume-with-gap -poison drop \
		-chaos dropout=30,len=0.6,renumber,jitter=0.15,skew=0.08,poison=0.04 \
		-sweep >> $(SWEEP_OUT); \
		st=$$?; if [ $$st -ne 0 ]; then cat $(SWEEP_OUT); exit $$st; fi; \
		echo >> $(SWEEP_OUT); \
		$(GO) run ./cmd/serve -preset mini -streams 6 -fps 15 \
		-arrivals burst -burst-period 4 -burst-duty 0.125 -duration 12 \
		-queue-cap 256 -shards 2 \
		-autoscale min=0,max=2,interval=0.25,up-queue=4,down-idle=1 \
		-sweep >> $(SWEEP_OUT); \
		st=$$?; cat $(SWEEP_OUT); exit $$st

# Per-frame event trace of a reduced overload scenario: one JSONL
# record per served/dropped/degraded frame, streamed from the serving
# engine's sink (CI uploads $(TRACE_OUT) as an artifact).
trace:
	@$(GO) run ./cmd/serve -preset mini -streams 6 -fps 20 \
		-arrivals poisson -executors 1 -duration 6 -queue-cap 8 \
		-stale 0.4 -degrade-depth 4 -trace $(TRACE_OUT) > /dev/null; \
		st=$$?; wc -l $(TRACE_OUT); exit $$st

clean:
	rm -f $(REPRO_OUT) $(BENCH_OUT) bench_head.txt BENCH_HEAD.json \
		$(SWEEP_OUT) $(TRACE_OUT) cpu.prof mem.prof repro.test
