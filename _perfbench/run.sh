#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the root of a checkout of the repository:
#
#   bash _perfbench/run.sh --workload synth --seed 0 --seconds 30 --trace 0
#
# Every file the build writes (Go build cache, temporary files, the binary)
# goes under the build directory inside the checkout: $CARGO_TARGET_DIR if
# set, else .bench_build. Without the repository around _perfbench/ the
# build fails and so does the run.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOENV=off

go -C _perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
