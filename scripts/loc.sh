#!/usr/bin/env bash
# Net line count is a tracked metric (ROADMAP needle 2): per crate, raw
# product vs test lines of every .rs file, a file's test part starting
# at its first `#[cfg(test)]`; everything under a tests/ directory is
# test. Needs nothing beyond find, sort and awk.
#
#   scripts/loc.sh [tree]     # default: this checkout
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find crates src examples tests -name '*.rs' -not -path '*/target/*' | sort | xargs awk '
FNR == 1 {
    split(FILENAME, part, "/")
    group = part[1] == "crates" ? part[1] "/" part[2] : part[1]
    if (!(group in product)) { order[++groups] = group; product[group] = test[group] = 0 }
    in_test = FILENAME ~ /(^|\/)tests\//
}
/^[ \t]*#\[cfg\(test\)\]/ { in_test = 1 }
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
