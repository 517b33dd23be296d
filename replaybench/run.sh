#!/usr/bin/env bash
# Builds the replay benchmark from the sources of the checkout it sits in
# and runs it, passing every argument through:
#
#   bash replaybench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary, the data
# directories and the trace files all go under .bench_build/ there.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C replaybench build -o "$out/replaybench" .
exec "$out/replaybench" -workdir "$out" "$@"
