#!/usr/bin/env bash
# Builds tmperf from this checkout and runs it with the given arguments,
# e.g. `bash bench/run.sh -workload fleet-steady -seed 1 -trace 0`.
# Run it from the root of the repository. The build cache, temporary
# files, the binary and tmperf's default output directory all live under
# .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$out/bin/tmperf" ./tmperf
exec "$out/bin/tmperf" "$@"
