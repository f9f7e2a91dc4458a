#!/usr/bin/env bash
# Builds hftserve and the servebench program from the checkout,
# then runs one benchmark invocation with the given arguments, e.g.
#
#   bash servebench/run.sh --workload hot-repeat --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/hftserve || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the repository root (need go.mod, cmd/hftserve, servebench/go.mod)" >&2
	exit 1
fi
build="$root/.bench_build"
# Keep every Go cache and config write inside the checkout, and never
# reach for the network or another toolchain.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	TMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$build/bin" "$build/tmp"
go build -o "$build/bin/hftserve" ./cmd/hftserve >&2
(cd servebench && go build -o "$build/bin/servebench" .) >&2
exec "$build/bin/servebench" --bin "$build/bin" --out "$build/servebench" "$@"
