#!/usr/bin/env bash
# Builds the benchmark and gsuserve from the sources of this checkout,
# then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload family-sweep --seed 1 --seconds 30 --trace 0
#
# Build caches, binaries and the traced run's span files go under
# .bench_build/perfbench; the Go toolchain's caches are pointed there too,
# so a run writes nothing outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(
	cd perfbench
	go build -o "$out/perfbench" .
	go build -o "$out/gsuserve" guardedop/cmd/gsuserve
) >&2

exec "$out/perfbench" --gsuserve "$out/gsuserve" --out "$out" "$@"
