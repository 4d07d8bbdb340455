#!/usr/bin/env bash
# Builds the XPlacer benchmark from the checkout it sits in and runs it:
#
#	bash perfbench/run.sh --workload lulesh-scalar --seed 1 --seconds 20 --trace 0
#
# Run from the root of the checkout. Every build artifact and cache goes
# under .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
