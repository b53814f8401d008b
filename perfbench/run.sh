#!/usr/bin/env bash
# Builds the eoml benchmark from the source of the checkout it sits in
# and runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload <day-batch|downlink-stream|fleet-wan|all> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, run directories and the
# spans file.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-build" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out" "$@"
