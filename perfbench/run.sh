#!/usr/bin/env bash
# Builds the benchmark and the lcrbd daemon from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload offline-enron --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, daemon logs and result files all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/run"

# Keep every Go toolchain write (build cache, module cache, telemetry and
# config) inside the checkout, and never fetch a toolchain or a module.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTELEMETRY=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/lcrbd" ./cmd/lcrbd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -lcrbd "$out/bin/lcrbd" -workdir "$out/run" -root "$root" "$@"
