#!/usr/bin/env bash
# Builds the benchmark from source into the build directory and runs it
# with the arguments given, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload rsgt-banking --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (binary, Go build cache,
# temporary WAL directories, span files) stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export BENCH_BUILD_DIR=$build

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
