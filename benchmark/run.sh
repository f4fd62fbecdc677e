#!/usr/bin/env bash
# Builds the benchmark once and runs the binary, so that compile time
# never lands in a measurement (setup_s least of all). Run it from the
# repository root or from this directory; arguments go to the binary:
#
#   bash benchmark/run.sh --workload serve-cold --seed 3 --seconds 25 --trace 0
#
# Everything it writes (the binary, the Go build cache, trace files)
# stays under benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
export GOCACHE="$here/out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o out/bench .
exec "$here/out/bench" "$@"
