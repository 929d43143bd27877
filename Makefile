# Single source of truth for local and CI invocations: the workflow in
# .github/workflows/ci.yml calls these targets, so the two cannot drift.

GO ?= go

# Reduced reproduction pass for `make repro` (full scale: run
# cmd/experiments with no -seqs overrides).
REPRO_SEQS      ?= 6
REPRO_CITY_SEQS ?= 60
REPRO_OUT       ?= report.json
BENCH_OUT       ?= bench.txt
BENCH_COUNT     ?= 3
BENCH_GATE_TIME ?= 3x
SWEEP_OUT       ?= sweep.txt
TRACE_OUT       ?= trace.jsonl
PROFILE_BENCH   ?= BenchmarkServeOverload|BenchmarkServeParallelStep|BenchmarkClusterOverload|BenchmarkClusterNew
STATICCHECK     ?= staticcheck
# The one place the staticcheck version is pinned: lint-install (used
# by CI) and the local install hint both read it, so the version CI
# enforces and the version the hint suggests cannot drift.
STATICCHECK_VERSION ?= 2024.1.1
FUZZ_TIME       ?= 20s

.PHONY: all fmt vet bench-vet lint lint-install lint-det build test race cover fuzz bench bench-diff cluster-determinism cluster-failover profile repro sweep trace surface clean

all: fmt vet build test

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The benchmark harness (perfbench/) is its own module, so `vet` and
# `build` above never compile it: vet it on its own, against this
# checkout, so a change that breaks the benchmark fails here.
bench-vet:
	cd perfbench && GOWORK=off $(GO) vet ./...

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

# The full suite under the race detector, then the serving determinism
# matrices, the lookahead and fail-at pipeline tests, the trace-equals-
# books test (its served events at StepWorkers 2/8 come from launches
# stepped on the pool), the shared-world test and the parallel world
# warm-up test five more times: their background workers interleave
# differently on every run, so repeats are what give a race a chance.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 -run '^(TestDeterminism|TestAdaptiveDeterminism|TestChaosDeterminism|TestLookaheadMatchesDispatchPricing|TestFailAtWithStepsInFlight|TestTraceEqualsBooks|TestSharedWorldsMatchPrivate|TestWorldsWarmUpMatchesGenerate)$$' ./internal/serve

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
# values, then the greedy region merge against its O(n^3) reference for
# arbitrary grid boxes and launch overheads. CI runs this as a smoke
# pass; raise FUZZ_TIME locally for a real hunt.
fuzz:
	$(GO) test ./internal/serve -run '^FuzzSubmit$$' -fuzz '^FuzzSubmit$$' \
		-fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/geom -run '^FuzzMaskSpan$$' -fuzz '^FuzzMaskSpan$$' \
		-fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/geom -run '^FuzzGreedyMerge$$' -fuzz '^FuzzGreedyMerge$$' \
		-fuzztime $(FUZZ_TIME)

# One iteration of every benchmark: a smoke pass that also emits the
# headline reproduction metrics (b.ReportMetric) into $(BENCH_OUT).
bench:
	@$(GO) test -run '^$$' -bench . -benchtime 1x ./... > $(BENCH_OUT) 2>&1; \
		st=$$?; cat $(BENCH_OUT); exit $$st

# Allocation regression gate: the working tree against its parent
# commit, on this host. The base is HEAD when the tree has uncommitted
# changes and HEAD^ otherwise (a clean checkout, as in CI); it is
# checked out into a temporary detached worktree that is removed on
# exit, failure included. Base and head benchmark passes alternate
# BENCH_COUNT times (BENCH_GATE_TIME iterations each, -benchmem) into
# bench_base.txt and bench_head.txt, and cmd/benchdiff fails when a
# benchmark's allocs/op grew past the base's own spread. Speed is not
# gated here: ns/op swings between identical runs on one host, and
# perfbench (BENCHMARK.json) judges speed.
bench-diff:
	@if [ -n "$$(git status --porcelain)" ]; then base=HEAD; else base=HEAD^; fi; \
		wt=$$(mktemp -d) || exit 1; \
		trap 'git worktree remove --force "$$wt" 2>/dev/null; rm -rf "$$wt"; git worktree prune' EXIT; \
		trap 'exit 130' INT TERM; \
		git worktree add --detach --quiet "$$wt" "$$base" || exit 1; \
		echo "bench-diff: base $$base ($$(git rev-parse --short "$$base")) vs working tree"; \
		: > bench_base.txt; : > bench_head.txt; \
		for i in $$(seq $(BENCH_COUNT)); do \
			for side in base head; do \
				dir=.; [ $$side = base ] && dir="$$wt"; \
				(cd "$$dir" && $(GO) test -run '^$$' -bench . -benchtime $(BENCH_GATE_TIME) \
					-benchmem ./...) >> bench_$$side.txt 2>&1 || \
					{ cat bench_$$side.txt; exit 1; }; \
			done; \
		done; \
		$(GO) run ./cmd/benchdiff bench_base.txt bench_head.txt

# Byte-identity of the merged cluster books across shard counts, static
# executor counts and step-worker fan-outs, under the race detector:
# the determinism contract the sharding/migration/autoscaling layer is
# pinned to (see internal/serve/cluster).
cluster-determinism:
	$(GO) test -race -run '^TestClusterDeterminism$$' -v ./internal/serve/cluster/

# Byte-identical merged books with shard kills, revivals and every
# failover policy live, across shard counts and step-worker fan-outs
# under the race detector — plus the empty-FaultPlan golden byte
# identity (the fault machinery must be free when unused) and the live
# Stats fleet row reconciling with the merged books under each policy.
cluster-failover:
	$(GO) test -race -run '^(TestFailoverDeterminism|TestNoFaultPlanMatchesCluster|TestStatsMatchResult)$$' -v ./internal/serve/cluster/

# CPU and heap profiles of the serving and cluster hot paths (see
# PROFILE_BENCH).
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
# frames per modeled dollar — followed by the adaptive grid: a dense
# crowd on one executor, every static scheduler x batch row against
# the same grid under the baseline controller, with the Pareto "dom"
# column marking static rows an adaptive row beats. The tables make
# scheduling/batching, chaos-robustness, elastic-economics and
# control-plane regressions visible per PR (CI uploads $(SWEEP_OUT) as
# an artifact).
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
		st=$$?; if [ $$st -ne 0 ]; then cat $(SWEEP_OUT); exit $$st; fi; \
		echo >> $(SWEEP_OUT); \
		$(GO) run ./cmd/serve -preset crowd -streams 3 -fps 4 -arrivals poisson \
		-duration 6 -executors 1 -queue-cap 16 -controller baseline \
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

# Code-surface counts, printed by the CI test job so net lines and
# knobs are tracked change by change: non-test Go lines in tracked
# files, then how many of them are the benchmark (perfbench/) and the
# lint fixtures, so a deletion in the program reads apart; exported declarations over every package (each symbol
# `go doc -short` lists, plus the exported methods it folds under their
# types); the exported fields of serve.Config and cluster.Config, the
# serving knobs a caller can turn; and the exported fields of the knob
# structs nested inside them (control.Config, serve.Chaos and the
# cluster's Migration, Autoscale and FaultPlan).
surface:
	@echo "go lines (non-test): $$(git ls-files '*.go' ':!:*_test.go' | xargs cat | wc -l)"
	@echo "  of which perfbench/: $$(git ls-files '*.go' ':!:*_test.go' | grep '^perfbench/' | xargs cat | wc -l)"
	@echo "  of which lint fixtures (internal/lint/testdata): $$(git ls-files '*.go' ':!:*_test.go' \
		| grep '^internal/lint/testdata/' | xargs cat | wc -l)"
	@n=0; for p in $$($(GO) list ./...); do \
		n=$$((n + $$($(GO) doc -short $$p 2>/dev/null | wc -l) \
			+ $$($(GO) doc -all $$p 2>/dev/null | grep -c '^func ('))); \
	done; echo "exported declarations: $$n"
	@echo "config fields: $$({ $(GO) doc -short ./internal/serve Config; \
		$(GO) doc -short ./internal/serve/cluster Config; } | grep -cE '^[[:space:]][A-Z]')"
	@echo "nested knob fields: $$({ $(GO) doc -short ./internal/serve/control Config; \
		$(GO) doc -short ./internal/serve Chaos; \
		for t in Migration Autoscale FaultPlan; do $(GO) doc -short ./internal/serve/cluster $$t; done; } \
		| grep -cE '^[[:space:]][A-Z]')"

clean:
	rm -f $(REPRO_OUT) $(BENCH_OUT) bench_base.txt bench_head.txt \
		$(SWEEP_OUT) $(TRACE_OUT) cpu.prof mem.prof repro.test
