#!/usr/bin/env bash
# Builds the benchmark from the repository's source and runs it.
#
#   bash perfbench/run.sh --workload pairs --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the compiler's temporary files and the
# span dumps stay under .bench_build/ at the repository root, and git (run
# for the build stamp) looks no higher than the repository root. The result
# is the last line of standard output. Outside a full checkout the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
