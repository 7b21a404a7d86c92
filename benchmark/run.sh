#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it,
# passing every argument through:
#
#   bash benchmark/run.sh --workload evaluate-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, the
# go command's own state (its home, where telemetry counters go) and the
# run's scratch files all stay under the build directory inside the
# checkout ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/benchmark" && HOME=$out/home XDG_CONFIG_HOME=$out/home/.config go build -o "$out/refocus-bench" .)
exec "$out/refocus-bench" -out "$out" "$@"
