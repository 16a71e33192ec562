#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it from the
# checkout root, forwarding every argument:
#
#	bash perfbench/run.sh --workload stream-delta --seed 1 --seconds 20 --trace 0
#
# Build cache, temporary files and the binary all stay under .bench_build/ in
# the checkout. Outside a checkout (no ../go.mod) the build fails and the
# script exits nonzero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
