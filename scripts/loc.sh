#!/usr/bin/env bash
# Net line count is a tracked metric (ROADMAP needle 2): per crate, raw
# product vs test lines of every .rs file, a file's test part starting
# at the `#[cfg(test)]` line directly above its `mod tests` (a test-only
# item elsewhere, such as a thread counter, stays on the product side);
# everything under a tests/ directory is test. Needs nothing beyond
# find, sort and awk.
#
#   scripts/loc.sh [tree]     # default: this checkout
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# examples/ was deleted in PR 25; it still counts in older checkouts.
dirs=(crates src tests)
if [ -d examples ]; then dirs+=(examples); fi
find "${dirs[@]}" -name '*.rs' -not -path '*/target/*' | sort | xargs awk '
FNR == 1 {
    split(FILENAME, part, "/")
    group = part[1] == "crates" ? part[1] "/" part[2] : part[1]
    if (!(group in product)) { order[++groups] = group; product[group] = test[group] = 0 }
    in_test = FILENAME ~ /(^|\/)tests\//
    held = 0
}
# A `#[cfg(test)]` line is held until the next line says which side it
# is on.
held && /^[ \t]*mod tests([ \t{;]|$)/ { in_test = 1 }
held { held = 0; if (in_test) test[group]++; else product[group]++ }
/^[ \t]*#\[cfg\(test\)\][ \t]*$/ && !in_test { held = 1; next }
{ if (in_test) test[group]++; else product[group]++ }
END {
    printf "%-18s %8s %8s\n", "", "product", "test"
    for (i = 1; i <= groups; i++) {
        g = order[i]
        printf "%-18s %8d %8d\n", g, product[g], test[g]
        p += product[g]; t += test[g]
    }
    printf "%-18s %8d %8d\n", "total", p, t
}'
