#!/usr/bin/env bash
# Builds the benchmark from the checkout this is run in, and runs it there:
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the go tool and the benchmark write — build cache, temporary
# files, datasets — stays under .bench_build/ of that checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d pcr ]; then
	echo "bench/run.sh: no program to measure here (run from the root of a checkout with go.mod and pcr/)" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
# With a fresh HOME the go command would fork a detached telemetry child that
# outlives this script; mode "off" means it starts no process but its own.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/pcrbench" ./bench
exec "$build/pcrbench" "$@"
