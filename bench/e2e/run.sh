#!/usr/bin/env bash
# Runs one benchmark workload from the root of a checkout: builds rspan
# and the benchmark from source, then hands every argument to e2e.exe.
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds go to _build/, run state and result files to .bench_build/e2e/.
# Nothing is read or written outside the checkout (the dune cache is off).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/rspan.ml ] || [ ! -d lib ]; then
  echo "run.sh: not at the root of a remote_spanner checkout (need dune-project, bin/rspan.ml, lib/)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . bin/rspan.exe bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe --rspan ./_build/default/bin/rspan.exe --work .bench_build/e2e "$@"
