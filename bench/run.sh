#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. Everything the build writes (binary, Go
# build cache, Go's own config) stays in .bench_build/ inside the checkout.
# The build fails, and this script exits non-zero without printing a result,
# where the repository's module (../go.mod, ../internal) is absent.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

env GOCACHE="$build/go-cache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOENV=off XDG_CONFIG_HOME="$build/config" \
	go build -C "$here" -o "$build/cxfs-bench" .

exec "$build/cxfs-bench" "$@"
