#!/usr/bin/env bash
# Builds the benchmark and dmgm-serve from the sources of the checkout it is
# run in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload warm-ref --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, reports, span files and server logs
# all go under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
# Keep the toolchain's caches, temp files and telemetry inside the checkout.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/dmgm-serve" ./cmd/dmgm-serve 1>&2
(cd perfbench && go build -o "$out/bin/perfbench" .) 1>&2
exec "$out/bin/perfbench" -serve-bin "$out/bin/dmgm-serve" -out "$out/perfbench" "$@"
