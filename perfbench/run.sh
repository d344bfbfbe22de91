#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload ckpt-1m --seed 1 --seconds 30 --trace 0
# All build state (Go cache, temp files, the binary) and the span files of
# traced runs stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# Pin the run to one CPU (the first one this shell may use). The vCPUs of
# a small VM drift in speed independently, so an unpinned run mixes their
# states from one wake-up to the next. Each workload sets its own
# GOMAXPROCS (see main.go).
cpu=$(taskset -pc $$ 2>/dev/null | sed 's/.*: *//; s/[,-].*//' || true)
if [ -z "$cpu" ]; then
	echo "perfbench: taskset unavailable, running unpinned" >&2
	exec "$out/perfbench" --out "$out/trace" "$@"
fi
exec taskset -c "$cpu" "$out/perfbench" --out "$out/trace" "$@"
