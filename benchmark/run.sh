#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's source and runs it.
#
#   bash benchmark/run.sh --workload steady|churn|live-kv --seed N --seconds S --trace 0|1
#
# Every build product (binary, Go build cache, temporary files) stays
# under .bench_build at the checkout root. The build needs the whole
# checkout: without the repository's go.mod beside this directory it
# fails, and the script exits non-zero without printing a result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local
go -C "$here" build -o "$out/mspastry-benchmark" .
exec "$out/mspastry-benchmark" "$@"
