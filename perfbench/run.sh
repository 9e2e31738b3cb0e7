#!/usr/bin/env bash
# Builds the hdmm daemon and the perfbench driver from this checkout into
# .bench_build, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload answer --seed 3 --seconds 20 --trace 0
#
# Every build and scratch file stays inside the checkout: the Go build
# cache, module cache and config directories all live under .bench_build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

# With telemetry on (the default mode is "local"), the go command forks a
# detached telemetry child that can outlive this script. Mode "off" in the
# config directory's telemetry mode file keeps it from starting.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$out/hdmm" ./cmd/hdmm) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

cd "$root"
exec "$out/perfbench" -daemon "$out/hdmm" -workdir "$out" "$@"
