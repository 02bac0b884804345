#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash bench/run.sh --workload batch_topic --seed 7 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary, temporary files) stays
# under .bench_build/ at the repository root, so a run reads and writes only
# inside its checkout. The working directory of the benchmark is the
# repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
cd "$root"
go build -C bench -o "$build/drybell-bench" .
exec "$build/drybell-bench" "$@"
