#!/usr/bin/env bash
# Builds the end-to-end benchmark, and the swm packages it imports, from
# source inside the checkout, then runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload http-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, cache and
# temporary file stays under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -workdir "$out" "$@"
