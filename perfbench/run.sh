#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full repository checkout" >&2
  exit 2
fi
# --cache=disabled keeps every build artefact inside the checkout.
dune build --root . --cache=disabled ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
