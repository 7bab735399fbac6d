#!/usr/bin/env bash
# Builds ringsimd, ringsim-worker and the ringbench program from the
# checkout in the current directory (untimed), then runs ringbench with
# the given arguments:
#
#   bash ringbench/run.sh --workload sweep-cold --seed 1 --seconds 12 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bin/" ./cmd/ringsimd ./cmd/ringsim-worker
go -C ringbench build -o "$out/bin/ringbench" .
exec "$out/bin/ringbench" -root "$root" -bin "$out/bin" "$@"
