#!/usr/bin/env bash
# Builds mobibench from source and runs it with the given arguments. Run it
# from the repository root, for example:
#
#   bash cmd/mobibench/bench.sh --workload agg-fanout --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, build and module caches, go command
# state) stays under .bench_build/ at the repository root, and nothing is
# fetched: the benchmark module resolves mobicache through its replace
# directive. Outside a full checkout the build fails and so does the script.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

go -C cmd/mobibench build -o "$out/mobibench" .
cd cmd/mobibench
exec "$out/mobibench" "$@"
