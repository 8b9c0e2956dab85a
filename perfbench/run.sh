#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig1 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, the binary and the
# benchmark's scratch files all live under .bench_build in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-run" "$@"
