#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload serve-miss --seed 3 --seconds 15 --trace 0
#   bash perfbench/run.sh compare base.jsonl change.jsonl
#
# Run it from the root of a source tree. The Go build cache, temporary
# files and the binary all stay under .bench_build in that root. Build
# output goes to standard error, so the last line on standard output is
# always the benchmark's own result line.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
  GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS= GOWORK=off \
  GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0 XDG_CONFIG_HOME="$build/config"

(cd perfbench && go build -trimpath -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
