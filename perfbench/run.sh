#!/bin/sh
# Builds the benchmark from this checkout and runs one workload:
#
#   sh perfbench/run.sh --workload grade --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, build temporaries and the go command's
# own configuration and telemetry files stay under .bench_build at the
# root of the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
