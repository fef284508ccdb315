#!/usr/bin/env bash
# Build the benchmark harness and the ckpt CLI from source, then run the
# harness with this script's arguments (see README.md).  Run from any
# directory; paths resolve against the repository root.
set -euo pipefail
cd "$(dirname "$0")/../.."
# Keep every build artifact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/e2e/ckpt_bench.exe bin/ckpt.exe 1>&2
exec _build/default/bench/e2e/ckpt_bench.exe "$@"
