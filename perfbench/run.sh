#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs one
# workload:
#
#   bash perfbench/run.sh --workload faust-router --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# root of the tree (Go build cache, binary, traces), so the benchmark
# neither reads nor writes outside the checkout and needs no network.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off
export CGO_ENABLED=0

(cd "$here" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" -trace-dir "$out/traces" "$@"
