#!/usr/bin/env bash
# Builds the v6lab benchmark from this checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload study|fleet|timeline --seed N --seconds S --trace 0|1
#
# The binary, the Go build cache and the traced runs' span files go under
# .bench_build/ in the checkout. The last line of standard output is the
# JSON result; the exit status is non-zero when the build or any check
# fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
