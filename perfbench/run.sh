#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the given arguments (see perfbench/README.md). Run from the root of the
# repository:
#
#   bash perfbench/run.sh --workload submit-grade --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/platform ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a webgpu repository checkout" >&2
	exit 2
fi
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin"
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
