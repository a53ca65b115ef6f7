#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload kernels --seed 1 --seconds 40 --trace 0
# Everything the Go toolchain writes goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
