#!/usr/bin/env bash
# Builds tools/rmwbench from this checkout's source and runs it from the
# checkout root, passing every argument through. Everything the build and
# the run leave behind goes to .bench_build/ in the checkout.
#
#   bash tools/rmwbench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-runs N]
#   bash tools/rmwbench/run.sh -compare a.json b.json
set -euo pipefail
cd "$(dirname "$0")/../.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C tools/rmwbench build -o "$build/rmwbench" . >&2
exec "$build/rmwbench" "$@"
