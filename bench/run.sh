#!/usr/bin/env bash
# Builds the step benchmark from source and runs it with the arguments
# given: the entry point BENCHMARK.json names. It runs from the root of a
# checkout and keeps everything the go tool writes (build cache included)
# inside the checkout, under $CARGO_TARGET_DIR or .bench_build.
set -euo pipefail

root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/home"

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
commit=$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)
(
	cd "$here"
	HOME=$build/home GOCACHE=$build/gocache GOPATH=$build/gopath GOPROXY=off GOTOOLCHAIN=local \
		go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/stepbench" .
)
exec "$build/stepbench" "$@"
