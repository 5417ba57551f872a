#!/usr/bin/env bash
# Builds selbench from the checkout it is started in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/selbench/bench.sh --workload paper-dispatch --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and the Go tool's own state stay under
# .bench_build/ in the checkout, and no module is downloaded. Outside a
# full checkout the build fails, so the script exits non-zero.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C cmd/selbench build -o "$out/selbench" .
exec "$out/selbench" "$@"
