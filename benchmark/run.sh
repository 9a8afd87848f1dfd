#!/usr/bin/env bash
# Builds the benchmark once per checkout (go's build cache makes repeats a
# no-op) and runs it; compile time is therefore outside every metric.
# Everything written lands in .bench_build/ under the checkout root: the
# binary, go's build cache, and go's telemetry counters (XDG_CONFIG_HOME).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C "$here" -o "$out/zapc-benchmark" .
exec "$out/zapc-benchmark" "$@"
