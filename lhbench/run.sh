#!/bin/sh
# Builds the benchmark from the checkout's source and runs it. Run it from
# the repository root:
#
#   bash lhbench/run.sh --workload verify-full --seed 1 --seconds 30 --trace 0
#
# The build cache and binary live under .bench_build in the checkout; the
# build never reaches the network.
set -e
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOENV=off GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
go -C "$root/lhbench" build -o "$out/lhbench" .
exec "$out/lhbench" "$@"
