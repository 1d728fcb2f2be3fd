#!/usr/bin/env bash
# Builds the benchmark harness and the system under test from this
# checkout, then runs one benchmark workload. Run it from the repository
# root:
#
#   bash booterbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
#
# Everything it builds, generates or writes lands in .bench_build/ under
# the checkout (Go build cache included), so the checkout is the only
# directory it touches.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/booterserve" ] || [ ! -d "$root/booterbench" ]; then
	echo "booterbench: run from the root of a booters checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/booterbench" && go build -o "$build/bin/booterbench" .)
exec "$build/bin/booterbench" -root "$root" "$@"
