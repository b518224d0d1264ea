#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload grid-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod required)" >&2
	exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# Keep the go command's cache, temporary files, module path and user
# configuration (telemetry counters included) inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
