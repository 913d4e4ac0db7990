#!/usr/bin/env bash
# Builds adhocd and the servebench binary from this checkout, then runs one
# benchmark pass against the freshly built daemon. Run from the repository
# root:
#
#   bash servebench/run.sh --workload route_small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, daemon
# logs, span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/adhocd" ] || [ ! -f "$root/servebench/go.mod" ]; then
	echo "servebench: run from the repository root (needs go.mod, cmd/adhocd and servebench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -buildvcs=false -o "$out/bin/adhocd" ./cmd/adhocd
(cd servebench && go build -buildvcs=false -o "$out/bin/servebench" .)
exec "$out/bin/servebench" -adhocd "$out/bin/adhocd" -out "$out" "$@"
