#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload lib-unique --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spill
# files, trace files) goes under $CARGO_TARGET_DIR, default .bench_build,
# inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export GOMODCACHE=$build/gomodcache
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOENV=off
export XDG_CONFIG_HOME=$build/config
export TMPDIR=$build/tmp

go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" -out "$build" "$@"
