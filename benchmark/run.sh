#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the checkout it
# is run in, then runs it with the given arguments. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload sim-verify-ff --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (binary, Go build cache,
# temporary files, trace spans) stays under .bench_build/ in the
# checkout. The build needs no network: the benchmark module's only
# dependency is the enclosing module, replaced by its directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off \
	GOFLAGS=-buildvcs=false

bin="$out/benchmark"
go -C "$root/benchmark" build -o "$bin.$$" .
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
