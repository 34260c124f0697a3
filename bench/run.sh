#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh --workload serve-hit --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh compare -base a.jsonl b.jsonl -change c.jsonl d.jsonl
#   bash bench/run.sh sweep
#
# The build cache and the binary live in .bench_build/ under the directory
# the script is run from, so nothing is written outside the checkout and no
# module is downloaded. Without the repository around bench/ the build
# fails and the script exits non-zero.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/saphyra-bench" .)
exec "$out/saphyra-bench" "$@"
