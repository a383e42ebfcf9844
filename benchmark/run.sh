#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash benchmark/run.sh --workload screen --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# run write (Go build cache, binary, temporary stores, trace files) goes
# under $CARGO_TARGET_DIR when set, else .bench_build, so the run touches
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

# The Go toolchain's own state stays inside the build directory too, and
# the build never reaches for the network.
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/autocat-bench" .)
exec "$out/autocat-bench" -workdir "$out/tmp" "$@"
