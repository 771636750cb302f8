#!/usr/bin/env bash
# Builds the serving benchmark from source and runs one workload.
#
#   bash servebench/run.sh --workload csv-direct --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go
# caches, the binary, server state, span files) stays under
# .bench_build/ in that directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOENV=off

(cd "$root/servebench" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" -out "$out" "$@"
