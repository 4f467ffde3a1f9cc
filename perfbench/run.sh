#!/usr/bin/env bash
# Builds the benchmark and stampserve from this checkout, then runs the
# benchmark from the checkout's root with the given arguments:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# The binaries, the Go build cache, temporary files and span files all
# stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/stampserve || ! -d internal/experiments ]]; then
  echo "run.sh: $root does not hold the repository's sources" >&2
  exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME holds the go command's config and telemetry; the build
# never fetches modules or toolchains; the checkout need not be a git
# repository, so the commit is recorded by the benchmark, not the build.
export GOCACHE="$out/gocache" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# With telemetry on, the first go command under a fresh config starts a
# detached sidecar process that can outlive this script. "go telemetry off"
# starts none and keeps every later go command from starting one.
go telemetry off >&2
go build -o "$out/stampserve" ./cmd/stampserve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$out/perfbench" --build-dir "$out" --commit "$commit" "$@"
