#!/usr/bin/env bash
# A before/after row for a performance claim, in one command: two
# prebuilt `bench` binaries (perfbench/) run one workload in N
# alternating pairs, seeds 2017 … 2017+N−1, 10 s per run. The order
# inside a pair flips every pair (parent first, then change first), so
# a slow drift of the machine lands on both sides. Prints each pair's
# end-to-end values, then per metric how many pairs the change won and
# each side's median and quartiles. Throughput (unit 1/s) is better
# higher, every other metric better lower. Needs nothing beyond bash
# and awk.
#
#   scripts/pairs.sh PARENT_BENCH CHANGE_BENCH WORKLOAD [N=10]
#
# Build each side's binary in its own checkout and copy it out first:
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml --bin bench
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT_BENCH CHANGE_BENCH WORKLOAD [N=10]" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 n=${4:-10}
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "$0: $bin is not an executable" >&2; exit 2; }
done

rows=$(mktemp)
trap 'rm -f "$rows"' EXIT

# One run → "PAIR SIDE METRIC VALUE UNIT" rows: the bench's end-to-end
# lines ("WORKLOAD METRIC VALUE UNIT") and the failed count of its JSON.
run() {
    local pair=$1 side=$2 bin=$3
    "$bin" --workload "$workload" --seed $((2017 + pair)) --seconds 10 --trace 0 2>/dev/null |
        awk -v pair="$pair" -v side="$side" -v w="$workload" '
            $1 == w && NF == 4 { print pair, side, $2, $3, $4 }
            match($0, /"failed": [0-9]+/) { print pair, side, "failed", substr($0, RSTART + 10, RLENGTH - 10), "count" }
        ' >>"$rows"
}

for ((pair = 0; pair < n; pair++)); do
    if ((pair % 2 == 0)); then
        run "$pair" parent "$parent"
        run "$pair" change "$change"
    else
        run "$pair" change "$change"
        run "$pair" parent "$parent"
    fi
    echo "pair $((pair + 1))/$n done (seed $((2017 + pair)))" >&2
done

awk '
function higher_better(m) { return unit[m] == "1/s" }
# Sorts a[1..k] in place (insertion sort: k is a handful of runs).
function sort(a, k,    i, j, x) {
    for (i = 2; i <= k; i++) {
        x = a[i]
        for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
        a[j + 1] = x
    }
}
# The q-quantile of sorted a[1..k], linearly interpolated.
function quantile(a, k, q,    pos, lo) {
    pos = 1 + (k - 1) * q
    lo = int(pos)
    return lo >= k ? a[k] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
function summary(side, m,    a, k, p) {
    k = 0
    for (p = 0; p < pairs; p++) if ((side, p, m) in v) a[++k] = v[side, p, m]
    sort(a, k)
    med[side] = quantile(a, k, 0.5)
    return sprintf("%.6g [%.6g, %.6g]", med[side], quantile(a, k, 0.25), quantile(a, k, 0.75))
}
{
    v[$2, $1, $3] = $4
    unit[$3] = $5
    if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 }
    if ($1 + 1 > pairs) pairs = $1 + 1
}
END {
    printf "%-5s %-5s %-16s %14s %14s\n", "pair", "seed", "metric", "parent", "change"
    for (p = 0; p < pairs; p++)
        for (i = 1; i <= metrics; i++) {
            m = order[i]
            printf "%-5d %-5d %-16s %14.6g %14.6g\n", p + 1, 2017 + p, m, v["parent", p, m], v["change", p, m]
        }
    printf "\n%-16s %-6s %6s  %-38s %-38s %s\n", "metric", "unit", "wins", "parent median [q1, q3]", "change median [q1, q3]", "change/parent"
    for (i = 1; i <= metrics; i++) {
        m = order[i]
        wins = 0
        for (p = 0; p < pairs; p++) {
            a = v["parent", p, m]; b = v["change", p, m]
            if (higher_better(m) ? b > a : b < a) wins++
        }
        ps = summary("parent", m); cs = summary("change", m)
        ratio = med["parent"] == 0 ? "-" : sprintf("%.3f", med["change"] / med["parent"])
        printf "%-16s %-6s %3d/%-2d  %-38s %-38s %s\n", m, unit[m], wins, pairs, ps, cs, ratio
    }
}' "$rows"
