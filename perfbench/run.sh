#!/usr/bin/env bash
# Builds cmd/server and the benchmark's load generator from source, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload search-scan --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 15
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory (Go build cache included).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/server || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/server and perfbench/ are required)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/server" ./cmd/server
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/server" -work "$out/runs" "$@"
