#!/usr/bin/env bash
# Build omc and the benchmark from source, then run one workload:
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr; the
# last line of stdout is the result record (see bench/e2e/README.md).
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -d bin ]]; then
  echo "e2e: run from the root of an objectmath checkout (dune-project, lib/ and bin/ not found)" >&2
  exit 2
fi

# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . bin/omc.exe bench/e2e/e2e.exe >&2

exec ./_build/default/bench/e2e/e2e.exe run "$@"
