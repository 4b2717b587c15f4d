# Convenience targets for the Dolos reproduction.

GO ?= go

.PHONY: all build test test-short vet fmt bench bench-par bench-smoke bench-gen bench-loop bench-sim bench-cache bench-masu bench-misu fuzz-smoke fuzz-targets pprof ci profile reproduce validate serve load-smoke clean

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

# A cell's set-up at the repository benchmark's cell sizes: trace
# generation (Hashmap and Btree at 1000 txns, YCSB at 3000 txns with 95%
# reads, BenchmarkGenerateCell) and the whole cpu.start span, NewSystem
# and Start, on the ycsb-read-lazy and hashmap-eager traces
# (BenchmarkStartCell). ns/op, B/op and allocs/op, fixed iterations and
# repeats so runs compare.
bench-gen:
	$(GO) test -run '^$$' -bench 'GenerateCell' -benchmem -benchtime 20x -count 5 ./internal/whisper
	$(GO) test -run '^$$' -bench 'StartCell' -benchmem -benchtime 20x -count 5 ./internal/cpu

# The event loop alone (BenchmarkLoopCell): Engine.Run from Start to the
# end of a btree-fast cell's 1000-txn Btree trace (latency-only crypto,
# eager BMT) under Pre-WPQ-Secure and each Dolos design, with the
# machine build and Start outside the timer. Each Dolos time over the
# Pre-WPQ one is the host cost of simulating the split write path.
# Fixed iterations and five repeats, so a change reports the median and
# quartiles of each.
bench-loop:
	$(GO) test -run '^$$' -bench 'LoopCell' -benchmem -benchtime 20x -count 5 ./internal/cpu

# Ma-SU layer at the same fixed sizes: ProcessWrite on the eager BMT
# and the lazy ToC over a 256 KB loop on the 5-level test layout, and at
# a cell's scale (BenchmarkProcessWriteCell: the flush stream of a
# Hashmap and a Btree trace on the eager BMT and of a ycsb-read-lazy
# trace on the lazy ToC, each after its checkpoint image, on the 8-level
# default layout), a verified ReadLine, a crash with Anubis and with
# Osiris recovery, the audit of a written image (BenchmarkAudit), the
# checkpoint load of a ycsb-read-lazy and a hashmap-eager cell
# (BenchmarkLoadCheckpoint) and the counter-block codec (Encode,
# DecodeBlock).
# A write's data-line ciphertext, MAC and ECC are computed where they
# are observed, one pad per line and no decrypt, so neither a write nor
# the checkpoint load computes a pad or a hash; the crash, the audit's
# page count and a read of a filled line are where that work lands.
# Fixed iterations and five repeats, so a change reports the median and
# quartiles of each.
bench-masu:
	$(GO) test -run '^$$' -bench 'ProcessWrite|ReadLine' -benchmem -benchtime 200000x -count 5 ./internal/masu
	$(GO) test -run '^$$' -bench 'AnubisRecovery|OsirisRecovery|Audit' -benchmem -benchtime 200x -count 5 ./internal/masu
	$(GO) test -run '^$$' -bench 'LoadCheckpoint' -benchmem -benchtime 20x -count 5 ./internal/masu
	$(GO) test -run '^$$' -bench 'Encode|DecodeBlock' -benchmem -benchtime 1000000x -count 5 ./internal/ctr

# Mi-SU layer: one insert per design (the insert computes no MAC; the
# owed MACs are hashed at the drain) and a 13-entry Partial-WPQ drain +
# recovery, which is where that hashing lands. Fixed iterations and five
# repeats, so a change reports the median and quartiles of each.
bench-misu:
	$(GO) test -run '^$$' -bench 'Protect' -benchmem -benchtime 200000x -count 5 ./internal/misu
	$(GO) test -run '^$$' -bench 'DrainRecover' -benchmem -benchtime 200x -count 5 ./internal/misu

# Event engine: BenchmarkEngineQueue holds 16, 64, 512 or 4096 events
# pending (a benchmark cell, the contention cells, -exp schemes' deepest
# cell, an 8-core eADR run) under the measured delay mix and under a FIFO
# one; the others time a one-event chain, a fan-out of scattered events,
# a Server's and a PipeServer's jobs from submission to completion, and
# the bare pending list against the container/heap reference. Fixed
# iterations and five repeats, so a change reports the median and
# quartiles of each.
bench-sim:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1000000x -count 5 ./internal/sim

# Cache layer: a hit, an LLC stream that fills every way of every set,
# an LLC held at a hashmap-eager cell's 11% occupancy where every access
# misses (BenchmarkAccessSparseLLC), and a read hit and a write through
# the whole hierarchy. Fixed iterations and five repeats, so a change
# reports the median and quartiles of each.
bench-cache:
	$(GO) test -run '^$$' -bench 'AccessHit|AccessStream|AccessSparseLLC|HierarchyReadHit|HierarchyWrite' -benchmem -benchtime 1000000x -count 5 ./internal/cache

# Every native fuzz target of the root module for 10 s each, listed as
# package:target. go test -fuzz takes one target per invocation, so this
# loops over them; a failure stops the loop and leaves the crashing input
# under the package's testdata/fuzz. Minimizing a new interesting input
# may take up to a minute by default, which would stall a 10 s run, so it
# is capped at 1 s. A new Fuzz* function goes on this list; fuzz-targets
# (part of `make ci`) fails when one is missing. Runs in CI.
FUZZ_TARGETS := ./internal/trace:FuzzLoad ./internal/scheme:FuzzParse ./internal/service:FuzzNormalize \
	./internal/masu:FuzzLoadImage ./internal/misu:FuzzDrainRecover ./internal/whisper:FuzzResolve \
	.:FuzzSystem
fuzz-smoke:
	@set -e; for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; t=$${pt#*:}; \
		echo "fuzz $$t in $$pkg for 10s"; \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s -fuzzminimizetime 1s $$pkg; \
	done

# Fails unless every func Fuzz* in the root module's test files is on
# FUZZ_TARGETS, so a new fuzz target cannot be left out of fuzz-smoke.
# `go list` stops at the module boundary, so benchmark/ is not scanned.
fuzz-targets:
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		pkg=.$${d#$(CURDIR)}; \
		for t in $$(cat $$d/*_test.go 2>/dev/null | grep -oE '^func Fuzz[A-Za-z0-9_]*' | cut -d' ' -f2); do \
			case " $(strip $(FUZZ_TARGETS)) " in \
			*" $$pkg:$$t "*) ;; \
			*) echo "fuzz target $$pkg:$$t is missing from FUZZ_TARGETS"; exit 1;; \
			esac; \
		done; \
	done

# The whole CI run: .github/workflows/ci.yml runs exactly this target.
# The tree must be gofmt-clean (`gofmt -l .` lists nothing).
# The timeout on the grid run is the wall-time tripwire: the full
# parallel evaluation at small scale must finish well inside it, so an
# accidental serialization or a sim-hot-path regression fails CI instead
# of silently tripling runtime. The benchmark is a module of its own,
# which the root `go test ./...` does not reach, so its tests run here.
# Bit-identity of the simulated output is Tier-1: TestGoldenRecords in
# internal/core pins every RunRecord, on the functional and the
# latency-only crypto engine, at 50 transactions and, on the Dolos,
# related-work and multi-core cells, at 200 transactions (the `/txns200`
# keys). Every test of the root module runs once, in `go test -race
# ./...`, and `-exp all` includes `-exp schemes`.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(MAKE) fuzz-targets
	$(GO) test -race ./...
	cd benchmark && $(GO) test ./...
	$(GO) test -run '^$$' -bench 'Fig12|Table2' -benchtime=1x ./...
	$(GO) test -run '^$$' -bench 'GenerateCell' -benchtime 1x ./internal/whisper
	$(GO) test -run '^$$' -bench 'StartCell' -benchtime 1x ./internal/cpu
	$(GO) test -run '^$$' -bench 'LoopCell' -benchtime 1x ./internal/cpu
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim
	$(GO) test -run '^$$' -bench 'ProcessWrite|ReadLine|Recovery|Audit|LoadCheckpoint' -benchtime 1x ./internal/masu
	$(GO) test -run '^$$' -bench 'Protect|DrainRecover' -benchtime 1x ./internal/misu
	$(GO) build -o /tmp/dolos-bench-ci ./cmd/dolos-bench
	timeout 300 /tmp/dolos-bench-ci -exp all -txns 50 > /dev/null
	$(MAKE) load-smoke
	$(MAKE) fuzz-smoke

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
# §16) — then SIGTERM and verify the drain exits cleanly. The server's
# stderr, which ends with its final Prometheus snapshot, goes to a file:
# the target fails unless that snapshot's service_jobs_retained is at
# most maxSettledJobs (read from internal/service/service.go). The
# 5-second pass alone settles tens of thousands of jobs, so the bound is
# exercised. Runs in CI.
load-smoke:
	$(GO) build -o /tmp/dolos-serve-ci ./cmd/dolos-serve
	$(GO) build -o /tmp/dolos-load-ci ./cmd/dolos-load
	/tmp/dolos-serve-ci -addr 127.0.0.1:8099 2>/tmp/dolos-serve-ci.log & \
	pid=$$!; \
	/tmp/dolos-load-ci -addr 127.0.0.1:8099 -duration 5s -concurrency 4 \
		-txns 100 -min-hits 1 -max-errors 0 && \
	/tmp/dolos-load-ci -addr 127.0.0.1:8099 -stream \
		-workloads Hashmap,Btree -schemes baseline,dolos-partial \
		-duration 3s -concurrency 2 -txns 200 -max-errors 0; rc=$$?; \
	kill -TERM $$pid; wait $$pid || rc=$$?; \
	cat /tmp/dolos-serve-ci.log >&2; \
	awk 'FNR == NR { if ($$1 == "const" && $$2 == "maxSettledJobs") max = $$4; next } \
		$$1 == "service_jobs_retained" { seen = 1; v = $$2 } \
		END { \
			if (max == "" || !seen) { print "load-smoke: no bound or no service_jobs_retained in the final snapshot"; exit 1 } \
			if (v + 0 > max + 0) { print "load-smoke: service_jobs_retained " v " exceeds " max; exit 1 } \
			print "load-smoke: service_jobs_retained " v " (bound " max ")" \
		}' internal/service/service.go /tmp/dolos-serve-ci.log || rc=1; \
	exit $$rc

clean:
	$(GO) clean ./...
