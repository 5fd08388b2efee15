#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it from
# the checkout root with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload svc-small --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare -base base.log -head head.log
#
# Build outputs and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout, so nothing is written outside it.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod required)" >&2
	exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out="$root/$out"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
export PERFBENCH_DIR="$out"
exec "$out/perfbench" "$@"
