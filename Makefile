# Convenience targets for the Dolos reproduction.

GO ?= go

.PHONY: all build test test-short vet fmt bench bench-par bench-smoke bench-gen bench-masu bench-json bench-delta fuzz-smoke mcore-smoke fast-smoke scheme-smoke pprof ci profile reproduce validate serve load-smoke chaos-smoke clean

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
# checkpoint load of one ycsb-read-lazy cell (BenchmarkLoadCheckpoint).
# A write's data-line MAC and ECC are computed where they are observed,
# so the crash and the audit are where that work now lands. Fixed
# iterations and five repeats, so a change reports the median and
# quartiles of each.
bench-masu:
	$(GO) test -run '^$$' -bench 'ProcessWrite|ReadLine' -benchmem -benchtime 200000x -count 5 ./internal/masu
	$(GO) test -run '^$$' -bench 'AnubisRecovery|OsirisRecovery|Audit' -benchmem -benchtime 200x -count 5 ./internal/masu
	$(GO) test -run '^$$' -bench 'LoadCheckpoint' -benchmem -benchtime 20x -count 5 ./internal/masu

# Every native fuzz target of the root module for 10 s each, listed as
# package:target. go test -fuzz takes one target per invocation, so this
# loops over them; a failure stops the loop and leaves the crashing input
# under the package's testdata/fuzz. Minimizing a new interesting input
# may take up to a minute by default, which would stall a 10 s run, so it
# is capped at 1 s. A new Fuzz* function goes on this list. Runs in CI.
FUZZ_TARGETS := ./internal/trace:FuzzLoad ./internal/fault:FuzzParse ./internal/scheme:FuzzParse
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
# The profile grid (legacy, related-work, multi-core and fast-mode
# records) is compared against the committed BENCH_pr13.json: one
# divergent deterministic field exits 1, so CI checks bit-identity.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(GO) test -race ./...
	cd benchmark && $(GO) test ./...
	$(GO) test -run '^$$' -bench 'Fig12|Table2' -benchtime=1x ./...
	$(GO) test -run '^$$' -bench 'GenerateCell' -benchtime 1x ./internal/whisper
	$(GO) test -run '^$$' -bench 'ProcessWrite|ReadLine|Recovery|Audit|LoadCheckpoint' -benchtime 1x ./internal/masu
	$(GO) build -o /tmp/dolos-bench-ci ./cmd/dolos-bench
	timeout 300 /tmp/dolos-bench-ci -exp all -txns 50 > /dev/null
	$(GO) run ./cmd/dolos-profile -grid -related -mcore -fast -txns 200 -o /tmp/dolos-grid-ci.json -compare BENCH_pr13.json
	$(MAKE) mcore-smoke
	$(MAKE) fast-smoke
	$(MAKE) scheme-smoke
	$(MAKE) load-smoke
	$(MAKE) chaos-smoke
	$(MAKE) fuzz-smoke

# Multi-core determinism smoke under the race detector: a Cores>1 grid
# run serially and at executor parallelism 4 must produce byte-identical
# results and metrics snapshots (TestMCoreSmoke), plus the window 0 ≡
# window 1 and Cores=1 ≡ single-core differential pins. Runs in CI.
mcore-smoke:
	$(GO) test -race -run 'TestMCoreSmoke|TestCoresOneMatchesLegacy' ./internal/core
	$(GO) test -race -run 'TestOoOWindowOneMatchesInOrder|TestMultiCoreDeterminism' ./internal/mcore

# Fast-mode smoke: the grid re-run with the latency-only provider,
# diffed in-run against the functional records (one divergent
# deterministic field fails), plus the exhaustive scheme×workload
# differential and the dispatch-order proof under the race detector.
# Runs in CI.
fast-smoke:
	$(GO) run ./cmd/dolos-profile -grid -fast -txns 50 -o /tmp/dolos-fast-smoke.json
	$(GO) test -race -run 'TestFastMode' ./internal/core
	$(GO) test -run 'TestFastEngine|TestDispatchAllocFree' ./internal/crypt
	$(GO) test -run 'TestFastMode|TestCrashRefused|TestNewDriverRejects' ./internal/attack ./internal/crash

# Scheme-registry smoke: every registered scheme (Dolos designs and the
# related-work competitors — Triad-NVM, SuperMem, Phoenix, STUM) runs,
# crashes mid-flight, recovers and passes the durability audit; the
# recovery/runtime trade-off ordering pins hold; the CLI alias tables
# stay derived from the registry; and the registry-driven bench grids
# have one row per entry. Runs in CI.
scheme-smoke:
	$(GO) test -run 'TestSchemeSmokeRegistry|TestRelatedSchemesCrashRecovery|TestRecoveryRuntimeTradeoffOrdering|TestCrashThenAttackMatrix' ./internal/crash
	$(GO) test -run 'TestSchemeSetsMatchRegistry|TestParseScheme' ./internal/cliutil
	$(GO) test -run 'TestSchemeGridsCoverRegistry' ./internal/core
	$(GO) run ./cmd/dolos-bench -exp schemes -txns 50 -fast > /dev/null

# Regenerate BENCH_baseline.json: a small fixed-seed scheme×workload
# grid of RunRecords. Commit the result so perf drifts show up in review.
bench-json:
	$(GO) run ./cmd/dolos-profile -grid -txns 200 -o BENCH_baseline.json

# Re-run the baseline grid against BENCH_baseline.json: fails if any
# deterministic field (cycles, event counts, retry counters) diverges
# from the committed trajectory, and reports the host-side throughput
# delta (sim_events_per_sec geomean). The refreshed grid — extended
# with the related-work scheme records (-related, carrying the
# recovery_cycles axis), the multi-core contention records (-mcore) and
# the fast-mode re-runs (-fast), all of which append after the legacy
# cells and so never perturb the comparison — lands in BENCH_pr13.json
# so the current trajectory point is committed next to the baseline it
# is measured against.
# The trajectory run is pinned -parallel 1 so every record — functional
# and fast alike — is measured serially on an otherwise-idle machine:
# the printed fast/functional geomean is then an identical-conditions
# comparison, not an artifact of worker contention.
# -repeat 3 keeps the fastest wall time per cell: deterministic fields
# are identical across repeats, so best-of-N only damps GC/scheduler
# noise out of the throughput columns.
bench-delta:
	$(GO) run ./cmd/dolos-profile -grid -fast -txns 200 -repeat 3 -o /tmp/dolos-delta.json -compare BENCH_baseline.json
	$(GO) run ./cmd/dolos-profile -grid -related -mcore -fast -parallel 1 -txns 200 -repeat 3 -o BENCH_pr13.json

# CPU+heap profile of a serial grid run, ready for `go tool pprof`.
pprof:
	$(GO) run ./cmd/dolos-profile -grid -txns 1000 -parallel 1 \
		-cpuprofile cpu.pprof -memprofile mem.pprof -o /tmp/dolos-grid-profiled.json
	@echo "wrote cpu.pprof and mem.pprof; try: go tool pprof -top cpu.pprof"

# One profiled run: trace.json (open in ui.perfetto.dev) + metrics.json.
profile:
	$(GO) run ./cmd/dolos-profile -scheme DolosPartial -workload Hashmap

# Run the simulation service in the foreground (Ctrl-C drains and
# prints a final Prometheus snapshot). See README "Running as a service".
serve:
	$(GO) run ./cmd/dolos-serve -addr 127.0.0.1:8080

# End-to-end service smoke: start dolos-serve on a durable store in a
# temp directory, drive it with dolos-load for 5 seconds (zero errors,
# at least one cache hit), then run a streaming pass against the same
# server — every grid job's cells must arrive over SSE exactly once, in
# order, with zero errors (DESIGN.md §16) — then SIGTERM and verify the
# drain exits cleanly. Runs in CI.
load-smoke:
	$(GO) build -o /tmp/dolos-serve-ci ./cmd/dolos-serve
	$(GO) build -o /tmp/dolos-load-ci ./cmd/dolos-load
	storedir=$$(mktemp -d /tmp/dolos-load-smoke.XXXXXX); \
	/tmp/dolos-serve-ci -addr 127.0.0.1:8099 -store-dir $$storedir & \
	pid=$$!; \
	/tmp/dolos-load-ci -addr 127.0.0.1:8099 -duration 5s -concurrency 4 \
		-txns 100 -min-hits 1 -max-errors 0 && \
	/tmp/dolos-load-ci -addr 127.0.0.1:8099 -stream -tenant smoke \
		-workloads Hashmap,Btree -schemes baseline,dolos-partial \
		-duration 3s -concurrency 2 -txns 200 -max-errors 0; rc=$$?; \
	kill -TERM $$pid; wait $$pid || rc=$$?; \
	rm -rf $$storedir; \
	exit $$rc

# Chaos smoke: the same pairing with deterministic fault injection
# armed on the server (pinned spec + seed, DESIGN.md §11) and the load
# generator in -faults mode — the run must finish with zero errors AND
# the client's retry/resubmission machinery must have fired, proving
# the resilience path absorbed the injected panics, rejections and
# stalls. Runs in CI next to load-smoke.
chaos-smoke:
	$(GO) build -o /tmp/dolos-serve-ci ./cmd/dolos-serve
	$(GO) build -o /tmp/dolos-load-ci ./cmd/dolos-load
	/tmp/dolos-serve-ci -addr 127.0.0.1:8098 \
		-faults 'job-panic:0.3,queue-full:0.1,cell-latency:0.3:1ms' -faults-seed 42 & \
	pid=$$!; \
	/tmp/dolos-load-ci -addr 127.0.0.1:8098 -duration 5s -concurrency 4 \
		-txns 100 -faults -min-hits 1 -max-errors 0; rc=$$?; \
	kill -TERM $$pid; wait $$pid || rc=$$?; \
	exit $$rc

clean:
	$(GO) clean ./...
