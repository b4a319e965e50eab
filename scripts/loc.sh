#!/usr/bin/env bash
# Count the non-test source lines of each crate: every line of every
# `.rs` file under `crates/*/src` up to that file's first `#[cfg(test)]`
# (blank and comment lines included), then the total.
#
#   ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for src in crates/*/src; do
    find "$src" -name '*.rs' -print0 | xargs -0 awk -v src="$src" '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test { n++ }
        END { printf "%7d  %s\n", n, src }'
done | awk '{ print; total += $1 } END { printf "%7d  total\n", total }'
