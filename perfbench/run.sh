#!/usr/bin/env bash
# Builds mocktailsd and the benchmark program from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binaries, Go build cache, temp files)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mocktailsd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root: go.mod, cmd/mocktailsd or perfbench/go.mod is missing" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
# The go command's telemetry counters live under the user config dir.
export XDG_CONFIG_HOME="$out/config"

go build -o "$out/bin/mocktailsd" ./cmd/mocktailsd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/mocktailsd" -root "$root" "$@"
