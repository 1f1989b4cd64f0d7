#!/usr/bin/env bash
# Builds the figperf benchmark from the sources of this checkout and runs
# it with the given arguments. Run from the repository root:
#
#   bash figperf/run.sh --workload mix8-warm --seed 1 --seconds 15 --trace 0
#   bash figperf/run.sh compare a.log b.log
#
# Build outputs and the Go build cache stay inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build). The build needs no network: the
# module's only dependency is the enclosing repro module (replace => ../),
# so outside a full checkout the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
export GOTELEMETRY=off

go -C "$root/figperf" build -o "$out/figperf" .
exec "$out/figperf" "$@"
