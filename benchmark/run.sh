#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; the arguments go to the benchmark:
#
#   bash benchmark/run.sh --workload hashmap-eager --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, temporary files and telemetry, and a
# traced run's spans and profile go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout. Building
# needs the repository's own module one directory up; without it the
# build fails and no result is printed.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its telemetry counters under the user config dir.
(cd benchmark && XDG_CONFIG_HOME=$out/config go build -o "$out/dolos-benchmark" .)
exec "$out/dolos-benchmark" -trace-dir "$out/trace" "$@"
