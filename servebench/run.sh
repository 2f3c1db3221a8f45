#!/usr/bin/env bash
# Builds the benchmark driver and bwaver-server from this checkout, then runs
# the driver with the given arguments, e.g.
#   bash servebench/run.sh --workload exact-fpga --seed 1 --seconds 15 --trace 0
# Every build product and Go cache stays under <checkout>/.bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOENV=off
cd "$root/servebench"
go build -o "$build/servebench" .
go build -o "$build/bwaver-server" bwaver/cmd/bwaver-server
# Flush the build's writes now, so their writeback does not compete with the
# servers' journal fsyncs inside the timed window.
sync
cd "$root"
exec "$build/servebench" -root "$root" -server "$build/bwaver-server" "$@"
