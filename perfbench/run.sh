#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one
# workload: bash perfbench/run.sh --workload <name> --seed <n>
# --seconds <s> --trace <0|1>. Run it from the repository root. Build
# cache, binary, generated inputs, traces and records all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir .bench_build/perfbench "$@"
