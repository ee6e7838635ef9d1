#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash _perfbench/run.sh --workload fig7-paper --seed 1 --seconds 30 --trace 0
#   bash _perfbench/run.sh --smoke
#
# Everything the build and the run write goes under .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd _perfbench && go build -o "$out/perfbench" .)
export PERFBENCH_COMMAND="bash _perfbench/run.sh $*"
exec "$out/perfbench" "$@"
