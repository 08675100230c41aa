#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, from the
# root of a checkout of the repository:
#
#   bash e2ebench/run.sh --workload dense-solve --seed 1 --seconds 20 --trace 0
#
# The benchmark is a Go module of its own that imports the repository's
# module through a replace directive, so it is built here from source.
# The binary and Go's caches and configuration go to the build
# directory ($CARGO_TARGET_DIR, default .bench_build) and traced runs
# write their span files to .bench_build/spans, all inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
