#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload frame-bound --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

commit=unknown
if [ -d "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

(cd "$root/perfbench" && go build -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
