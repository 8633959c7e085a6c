#!/usr/bin/env bash
# Builds chainserve and the ledgerbench program from this checkout into
# .bench_build, then runs ledgerbench with the given arguments, e.g.
#   bash ledgerbench/run.sh --workload plan-hot --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The build needs nothing beyond this checkout, the standard library and
# the installed toolchain, and keeps its cache, temporary files and
# toolchain config (telemetry counters) inside the checkout.
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOTMPDIR="$out/tmp" \
	GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config"
(cd "$root" && go build -o "$out/chainserve" ./cmd/chainserve) >&2
(cd "$root/ledgerbench" && go build -o "$out/ledgerbench" .) >&2
exec "$out/ledgerbench" -root "$root" -server "$out/chainserve" "$@"
