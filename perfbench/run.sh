#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload report-http --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, the warehouses the
# run creates (removed when it ends) and the span files of traced runs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" -out "$out" "$@"
