#!/usr/bin/env bash
# Builds the job benchmark from source and runs it, passing every argument
# through (--workload, --seed, --seconds, --trace). Run it from the
# repository root: bash jobbench/run.sh --workload terasort --seed 1 ...
# Build outputs, the Go build cache, the go command's own files and the
# span files all stay under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C jobbench -o "$out/jobbench" .
exec "$out/jobbench" "$@"
