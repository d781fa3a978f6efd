#!/usr/bin/env bash
# The benchmark's one command (see BENCHMARK.json): build bench from
# source and run it with the driver's arguments. Everything the build
# writes (Go's caches, the binary) stays under .bench_build/ in the
# checkout, so nothing outside the checkout is read or written.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: the program's source is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
# The go command forks a detached telemetry sidecar of itself (in mode
# "local", the default, too) that outlives the build; the mode file is
# the only switch, so turn it off before the first go invocation.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/idldp-bench" ./bench
exec "$build/idldp-bench" "$@"
