#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash geckobench-e2e/run.sh --workload sync-uniform --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache and the traced run's output all stay under
# .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd geckobench-e2e && go build -buildvcs=false -o "$out/geckobench-e2e" .)
exec "$out/geckobench-e2e" "$@"
