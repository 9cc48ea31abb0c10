#!/bin/bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout and runs it there with the arguments given:
#
#   bash benchmark/run.sh --workload fanout_small --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The unix:// row of the transport layer binds a socket under TMPDIR; keep
# it in the checkout too, when the path still fits a socket address.
if [ "${#build}" -lt 60 ]; then export TMPDIR="$build/tmp"; fi
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -outdir "$here/out" -bounds "$root/BENCHMARK.json" "$@"
