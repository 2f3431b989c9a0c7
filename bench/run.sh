#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the build and
# the run write (go build cache, binary, store directories) stays under
# .bench_build/ and bench/out/, inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# -buildvcs=auto stamps the commit where there is a git checkout; fall back
# when git is present but unusable.
(cd "$here" && { go build -o "$build/bench" . 2>"$build/build.log" || go build -buildvcs=false -o "$build/bench" .; })
cd "$root"
exec "$build/bench" "$@"
