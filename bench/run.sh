#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the benchmark from source inside
# the checkout and runs it with the driver's arguments. Every byte the build
# writes (Go build cache, module cache, link work dir, the binary) lands
# under .bench_build/ in the current directory, never in $HOME or /tmp.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The module replaces "nucleus" with the parent directory, so this fails
# (and the script exits non-zero) when the repository's sources are absent.
go build -C "$here" -o "$out/nucleus-bench" . >&2
exec "$out/nucleus-bench" "$@"
