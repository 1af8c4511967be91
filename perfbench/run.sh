#!/usr/bin/env bash
# One benchmark run from the root of a source checkout: builds the server
# and the load generator from source, then hands over to the generator.
#   bash perfbench/run.sh --workload hot|miss|churn --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a source checkout (dune-project, lib/ or bin/ missing)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./bin/selest_cli.exe ./perfbench/loadgen.exe >&2
exec ./_build/default/perfbench/loadgen.exe "$@"
