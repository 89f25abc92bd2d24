#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 42 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and traced-run spans stay under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
if [ ! -f "$here/../go.mod" ]; then
	echo "perfbench: the hwgc module (go.mod) is not next to $here; run from a full checkout" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
