#!/usr/bin/env bash
# Prints the line counts a refactor reports: non-test lines are those
# before the first `#[cfg(test)]` of each tracked `.rs` file outside
# `simbench/` and any `tests/` directory; test lines are the rest
# (including every line of the files under `tests/` directories).
#
#   scripts/loc.sh        # run from anywhere inside the repository
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

git ls-files -z -- '*.rs' ':!:simbench/**' | xargs -0 awk '
    FNR == 1 { test = (FILENAME ~ /(^|\/)tests\//) }
    /#\[cfg\(test\)\]/ { test = 1 }
    { if (test) t++; else n++ }
    END { printf "non-test lines: %d\ntest lines: %d\n", n, t }
'
