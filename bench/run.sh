#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#   bash bench/run.sh --workload svc-miss --seed 1 --seconds 12 --trace 0
#
# Every build product, Go cache and report stays under .bench_build in the
# checkout. Both the benchmark and avfd are built with the committed PGO
# profile, as `make build` builds the binaries.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
pgo=off
if [ -f "$root/default.pgo" ]; then
	pgo=$root/default.pgo
fi
(cd bench && go build -buildvcs=false -pgo="$pgo" -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
