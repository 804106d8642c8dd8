#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# execs it with the given arguments:
#
#   bash perfbench/run.sh --workload train-apt --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artefact and Go cache lives
# under .bench_build/ in that root, so nothing is read or written outside
# the checkout apart from the Go toolchain itself.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" HOME="$out/home" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench.tmp" .
mv -f "$out/perfbench.tmp" "$out/perfbench"
exec "$out/perfbench" "$@"
