#!/usr/bin/env bash
# Builds termnode and the load generator from this checkout, then runs the
# generator. Everything it writes (Go build cache, binaries, localnet
# workspaces) stays under .bench_build/ at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/bin"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomod
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$build/bin/" ./e2e termproto/cmd/termnode
# A fresh build leaves hundreds of MB of dirty pages; written back during
# the run they stall the daemons' fsyncs. Flush them before any timing.
sync -f "$build"
cd "$root"
exec "$build/bin/e2e" -termnode "$build/bin/termnode" -workdir "$build/run" "$@"
