#!/usr/bin/env bash
# Builds the benchmark program and pebbled from this checkout into
# .bench_build/, then runs the program with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload exact-small --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and Go's own configuration stay under .bench_build/ too.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/pebbled" joinpebble/cmd/pebbled) >&2
exec "$out/perfbench" --pebbled "$out/pebbled" --spans "$out/spans" "$@"
