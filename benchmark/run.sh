#!/usr/bin/env bash
# Builds the numamig host-time benchmark from source and runs it.
#
#   bash benchmark/run.sh                                  # every workload
#   bash benchmark/run.sh --workload grid-all --seed 3 --seconds 10 --trace 0
#
# The build cache, the binary, temporary files and traces all stay under
# .bench_build/ at the repository root: HOME and the go command's caches
# point there, so nothing the toolchain writes leaves the checkout, and
# GOPROXY=off keeps it off the network. The benchmark is its own module
# (benchmark/go.mod) that builds against the repository through a local
# replace directive, so it fails to build, and exits non-zero, when the
# rest of the repository is absent.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/home" "$build/tmp"

export HOME="$build/home"
export GOCACHE="$build/gocache"
export GOPATH="$build/home/go"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=
export GOWORK=off

(cd "$here" && go build -o "$build/numamig-bench" .)
cd "$root"
exec "$build/numamig-bench" "$@"
