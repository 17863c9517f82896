#!/usr/bin/env bash
# Builds the quditd benchmark and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload ghz_trajectory --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, daemon work directories,
# reports, span files) stays under .bench_build/ in the repository root.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/bench" build -o "$out/quditbench" .
exec "$out/quditbench" -root "$root" "$@"
