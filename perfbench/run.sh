#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload gw-stream --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# (or under $CARGO_TARGET_DIR when it is set).
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the root of a full grout checkout" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out"

# Keep the Go build cache and config inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -out "$out" "$@"
