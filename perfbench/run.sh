#!/usr/bin/env bash
# Build the benchmark from source, then run it; arguments pass through to
# main.exe (see main.ml). Run from the root of a checkout:
#   bash perfbench/run.sh --workload tpcb-mw --seed 1 --seconds 20 --trace 0
# Build output goes to .bench_build inside the checkout, with dune's shared
# cache off so that nothing is written outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --build-dir .bench_build --profile release \
  perfbench/main.exe >&2
exec .bench_build/default/perfbench/main.exe "$@"
