#!/usr/bin/env bash
# Builds faultbench from this checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload cheap-cells -seed 7 -seconds 30 -trace 0
#   bash bench/run.sh compare A.json B.json
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory: the Go build cache,
# the binary, and the scratch files of every pass.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/faultbench" .)
exec "$out/faultbench" "$@"
