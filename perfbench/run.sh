#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs one
# workload, e.g.
#
#   bash perfbench/run.sh --workload corpus-compile --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary, traces and the serve
# workload's socket and cache all live under $CARGO_TARGET_DIR (default
# .bench_build, relative to the checkout root), so nothing is written
# outside the checkout. The toolchain is never downloaded.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C perfbench build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
