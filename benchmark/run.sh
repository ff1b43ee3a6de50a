#!/usr/bin/env bash
# The driver's entry point: build the benchmark from the checkout it sits
# in, then run it with the arguments given. Everything the build and the
# run write — binary, Go build cache, scratch data, traces — stays under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod next to benchmark/: it builds and measures the repository it is part of" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
