#!/usr/bin/env bash
# Builds rexbench from source into .bench_build/ at the repository root and
# runs it with the given arguments, e.g.
#
#   bash _rexbench/run.sh --workload exchange-solve --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the toolchain writes (build
# cache, module cache, temporaries, the binary) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The go command's config and telemetry live under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/_rexbench" && go build -o "$out/rexbench" .)
exec "$out/rexbench" "$@"
