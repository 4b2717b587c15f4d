# Convenience targets for the Dolos reproduction.

GO ?= go

.PHONY: all build test test-short vet fmt bench bench-par bench-smoke bench-gen bench-masu bench-misu fuzz-smoke smoke-patterns mcore-smoke fast-smoke scheme-smoke pprof ci profile reproduce validate serve load-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Regenerate every table and figure (EXPERIMENTS.md reference scale).
# Sweeps parallelize across cores by default; output is byte-identical
# at any -parallel setting (DESIGN.md §9).
reproduce:
	$(GO) run ./cmd/dolos-bench -exp all -txns 1000

# The same grid pinned serial and wide — `diff` of the two outputs is
# the quickest manual determinism check.
bench-par:
	$(GO) run ./cmd/dolos-bench -exp all -txns 200 -parallel 1 -format csv | grep -v "completed in" > /tmp/dolos-serial.csv
	$(GO) run ./cmd/dolos-bench -exp all -txns 200 -format csv | grep -v "completed in" > /tmp/dolos-parallel.csv
	diff /tmp/dolos-serial.csv /tmp/dolos-parallel.csv
	@echo "serial and parallel grids are byte-identical"

# Check every qualitative claim of the paper's evaluation.
validate:
	$(GO) run ./cmd/dolos-bench -exp validate -txns 500

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of the headline benchmarks — catches bit-rot in the
# bench harness without paying for a full statistical run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Fig12|Table2' -benchtime=1x ./...

# Trace generation at the repository benchmark's cell sizes (Hashmap
# and Btree at 1000 txns, YCSB at 3000 txns with 95% reads): ns/op,
# B/op and allocs/op, fixed iterations and repeats so runs compare.
bench-gen:
	$(GO) test -run '^$$' -bench 'GenerateCell' -benchmem -benchtime 20x -count 5 ./internal/whisper

# Ma-SU layer at the same fixed sizes: ProcessWrite on the eager BMT
# and the lazy ToC, a verified ReadLine, a crash with Anubis and with
# Osiris recovery, the audit of a written image (BenchmarkAudit) and the
# checkpoint load of a ycsb-read-lazy and a hashmap-eager cell
# (BenchmarkLoadCheckpoint).
# A write's data-line MAC and ECC are computed where they are observed,
# so the crash and the audit are where that work now lands. Fixed
# iterations and five repeats, so a change reports the median and
# quartiles of each.
bench-masu:
	$(GO) test -run '^$$' -bench 'ProcessWrite|ReadLine' -benchmem -benchtime 200000x -count 5 ./internal/masu
	$(GO) test -run '^$$' -bench 'AnubisRecovery|OsirisRecovery|Audit' -benchmem -benchtime 200x -count 5 ./internal/masu
	$(GO) test -run '^$$' -bench 'LoadCheckpoint' -benchmem -benchtime 20x -count 5 ./internal/masu

# Mi-SU layer: one insert per design (the insert computes no MAC; the
# owed MACs are hashed at the drain) and a 13-entry Partial-WPQ drain +
# recovery, which is where that hashing lands. Fixed iterations and five
# repeats, so a change reports the median and quartiles of each.
bench-misu:
	$(GO) test -run '^$$' -bench 'Protect' -benchmem -benchtime 200000x -count 5 ./internal/misu
	$(GO) test -run '^$$' -bench 'DrainRecover' -benchmem -benchtime 200x -count 5 ./internal/misu

# Every native fuzz target of the root module for 10 s each, listed as
# package:target. go test -fuzz takes one target per invocation, so this
# loops over them; a failure stops the loop and leaves the crashing input
# under the package's testdata/fuzz. Minimizing a new interesting input
# may take up to a minute by default, which would stall a 10 s run, so it
# is capped at 1 s. A new Fuzz* function goes on this list. Runs in CI.
FUZZ_TARGETS := ./internal/trace:FuzzLoad ./internal/scheme:FuzzParse ./internal/service:FuzzNormalize \
	./internal/masu:FuzzLoadImage ./internal/misu:FuzzDrainRecover ./internal/whisper:FuzzResolve
fuzz-smoke:
	@set -e; for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; t=$${pt#*:}; \
		echo "fuzz $$t in $$pkg for 10s"; \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s -fuzzminimizetime 1s $$pkg; \
	done

# The whole CI run: .github/workflows/ci.yml runs exactly this target.
# The tree must be gofmt-clean (`gofmt -l .` lists nothing).
# The timeout on the grid run is the wall-time tripwire: the full
# parallel evaluation at small scale must finish well inside it, so an
# accidental serialization or a sim-hot-path regression fails CI instead
# of silently tripling runtime. The benchmark is a module of its own,
# which the root `go test ./...` does not reach, so its tests run here.
# Bit-identity of the simulated output is Tier-1: TestGoldenRecords in
# internal/core pins every RunRecord, functional and fast, at 50
# transactions and, on the Dolos, related-work and multi-core cells, at
# 200 transactions (the `/txns200` keys).
ci:
	$(GO) build ./...
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(MAKE) smoke-patterns
	$(GO) test -race ./...
	cd benchmark && $(GO) test ./...
	$(GO) test -run '^$$' -bench 'Fig12|Table2' -benchtime=1x ./...
	$(GO) test -run '^$$' -bench 'GenerateCell' -benchtime 1x ./internal/whisper
	$(GO) test -run '^$$' -bench 'ProcessWrite|ReadLine|Recovery|Audit|LoadCheckpoint' -benchtime 1x ./internal/masu
	$(GO) test -run '^$$' -bench 'Protect|DrainRecover' -benchtime 1x ./internal/misu
	$(GO) build -o /tmp/dolos-bench-ci ./cmd/dolos-bench
	timeout 300 /tmp/dolos-bench-ci -exp all -txns 50 > /dev/null
	$(MAKE) mcore-smoke
	$(MAKE) fast-smoke
	$(MAKE) scheme-smoke
	$(MAKE) load-smoke
	$(MAKE) fuzz-smoke

# The test selections of the smoke targets below: a -run pattern per
# `go test` line. `go test -run` with a pattern that matches nothing
# passes, so a renamed test would quietly empty its smoke target;
# smoke-patterns (part of `make ci`) fails unless every |-separated
# name of every pattern matches a test that `go test -list` finds in
# the line's packages. A new smoke line gets its pattern here and a
# smoke_list line in smoke-patterns.
MCORE_SMOKE_CORE := TestMCoreSmoke|TestCoresOneMatchesLegacy
MCORE_SMOKE_CPU := TestOoOWindowOneMatchesInOrder|TestMultiCoreDeterminism
FAST_SMOKE_CORE := TestFastMode
FAST_SMOKE_CRYPT := TestFastEngine|TestDispatchAllocFree
FAST_SMOKE_CRASH := TestFastMode|TestCrashRefused|TestNewDriverRejects
SCHEME_SMOKE_CRASH := TestSchemeSmokeRegistry|TestRelatedSchemesCrashRecovery|TestRecoveryRuntimeTradeoffOrdering|TestCrashThenAttackMatrix
SCHEME_SMOKE_CLI := TestSchemeSetsMatchRegistry|TestParseScheme
SCHEME_SMOKE_CORE := TestSchemeGridsCoverRegistry

# $(call smoke_list,PATTERN,PACKAGES) fails unless every |-separated
# name in PATTERN matches a test listed in PACKAGES.
smoke_list = @listed="$$($(GO) test -list '$(1)' $(2) | grep -E '^(Test|Fuzz|Example)')"; \
	for n in $$(echo '$(1)' | tr '|' ' '); do \
		echo "$$listed" | grep -Eq "$$n" || { echo "smoke pattern $$n matches no test in $(2)"; exit 1; }; \
	done

smoke-patterns:
	$(call smoke_list,$(MCORE_SMOKE_CORE),./internal/core)
	$(call smoke_list,$(MCORE_SMOKE_CPU),./internal/cpu)
	$(call smoke_list,$(FAST_SMOKE_CORE),./internal/core)
	$(call smoke_list,$(FAST_SMOKE_CRYPT),./internal/crypt)
	$(call smoke_list,$(FAST_SMOKE_CRASH),./internal/attack ./internal/crash)
	$(call smoke_list,$(SCHEME_SMOKE_CRASH),./internal/crash)
	$(call smoke_list,$(SCHEME_SMOKE_CLI),./internal/cliutil)
	$(call smoke_list,$(SCHEME_SMOKE_CORE),./internal/core)

# Multi-core determinism smoke under the race detector: a Cores>1 grid
# run serially and at executor parallelism 4 must produce byte-identical
# results and metrics snapshots (TestMCoreSmoke), plus the window 0 ≡
# window 1 and Cores=1 ≡ single-core differential pins and a 2-core
# machine's run-to-run determinism (internal/cpu). Runs in CI.
mcore-smoke:
	$(GO) test -race -run '$(MCORE_SMOKE_CORE)' ./internal/core
	$(GO) test -race -run '$(MCORE_SMOKE_CPU)' ./internal/cpu

# Fast-mode smoke: the exhaustive scheme×workload differential against
# the functional records and the dispatch-order proof under the race
# detector. Runs in CI.
fast-smoke:
	$(GO) test -race -run '$(FAST_SMOKE_CORE)' ./internal/core
	$(GO) test -run '$(FAST_SMOKE_CRYPT)' ./internal/crypt
	$(GO) test -run '$(FAST_SMOKE_CRASH)' ./internal/attack ./internal/crash

# Scheme-registry smoke: every registered scheme (Dolos designs and the
# related-work competitors — Triad-NVM, SuperMem, Phoenix, STUM) runs,
# crashes mid-flight, recovers and passes the durability audit; the
# recovery/runtime trade-off ordering pins hold; the CLI alias tables
# stay derived from the registry; and the registry-driven bench grids
# have one row per entry. Runs in CI.
scheme-smoke:
	$(GO) test -run '$(SCHEME_SMOKE_CRASH)' ./internal/crash
	$(GO) test -run '$(SCHEME_SMOKE_CLI)' ./internal/cliutil
	$(GO) test -run '$(SCHEME_SMOKE_CORE)' ./internal/core
	$(GO) run ./cmd/dolos-bench -exp schemes -txns 50 -fast > /dev/null

# CPU and heap profiles of the root Figure 12 benchmark (one
# iteration), ready for `go tool pprof -top cpu.pprof`.
pprof:
	$(GO) test -run '^$$' -bench '^BenchmarkFig12' -benchtime 1x -o /tmp/dolos-pprof.test -cpuprofile cpu.pprof -memprofile mem.pprof .

# One traced run: trace.json (open in ui.perfetto.dev) and the run's
# RunRecord, telemetry included, in metrics.json.
profile:
	$(GO) run ./cmd/dolos-sim -scheme dolos-partial -workload Hashmap -txns 200 -trace trace.json -json > metrics.json

# Run the simulation service in the foreground (Ctrl-C drains and
# prints a final Prometheus snapshot). See README "Running as a service".
serve:
	$(GO) run ./cmd/dolos-serve -addr 127.0.0.1:8080

# End-to-end service smoke: start dolos-serve, drive it with dolos-load
# for 5 seconds (zero errors, at least one cache hit), then run a
# streaming pass against the same server — every grid job's cells must
# arrive over SSE exactly once, in order, with zero errors (DESIGN.md
# §16) — then SIGTERM and verify the drain exits cleanly. Runs in CI.
load-smoke:
	$(GO) build -o /tmp/dolos-serve-ci ./cmd/dolos-serve
	$(GO) build -o /tmp/dolos-load-ci ./cmd/dolos-load
	/tmp/dolos-serve-ci -addr 127.0.0.1:8099 & \
	pid=$$!; \
	/tmp/dolos-load-ci -addr 127.0.0.1:8099 -duration 5s -concurrency 4 \
		-txns 100 -min-hits 1 -max-errors 0 && \
	/tmp/dolos-load-ci -addr 127.0.0.1:8099 -stream -tenant smoke \
		-workloads Hashmap,Btree -schemes baseline,dolos-partial \
		-duration 3s -concurrency 2 -txns 200 -max-errors 0; rc=$$?; \
	kill -TERM $$pid; wait $$pid || rc=$$?; \
	exit $$rc

clean:
	$(GO) clean ./...
