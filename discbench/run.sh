#!/usr/bin/env bash
# Builds the benchmark harness, cmd/discserve and cmd/experiments from
# this checkout, then runs the harness with the given arguments. Run it
# from the repository root:
#
#   bash discbench/run.sh --workload serve_paper4 --seed 1 --seconds 15 --trace 0
#   bash discbench/run.sh steady --runs 10 --seconds 15
#
# Everything the build writes (binaries, the Go build cache) stays under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/discserve || ! -d cmd/experiments || ! -f discbench/go.mod ]]; then
	echo "discbench: run from the root of a DISC checkout (cmd/discserve, cmd/experiments and discbench/ must be present)" >&2
	exit 2
fi

root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/bin/" ./cmd/discserve ./cmd/experiments >&2
(cd discbench && go build -o "$out/bin/discbench" .) >&2

if [[ ${1:-} == steady ]]; then
	shift
	exec "$out/bin/discbench" steady -root "$root" "$@"
fi
exec "$out/bin/discbench" -root "$root" "$@"
