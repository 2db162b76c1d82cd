#!/usr/bin/env bash
# Builds the advisor benchmark from the checkout it sits in and runs it with
# the given arguments, e.g.
#
#   bash advisorbench/run.sh --workload cold-solve --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, the binary)
# goes under .bench_build/ in the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"

export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOMODCACHE="${out}/gopath/pkg/mod"
export XDG_CONFIG_HOME="${out}/config"
export XDG_CACHE_HOME="${out}/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

# Build output goes to stderr so the benchmark's last stdout line stays its
# result.
(cd "${root}/advisorbench" && go build -o "${out}/advisorbench" .) >&2

cd "${root}"
exec "${out}/advisorbench" "$@"
