#!/usr/bin/env bash
# Build run_e2e from this checkout's sources and run it; arguments pass
# through (see run_e2e.cpp). Build output goes to stderr, so the last line of
# stdout stays run_e2e's JSON summary.
#
#   bash bench/e2e/run.sh --workload cascade --seed 7 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../../.bench_build/e2e"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target run_e2e -j 4 >&2
exec "$build/run_e2e" --out "$build" "$@"
