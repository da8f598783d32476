#!/usr/bin/env bash
# A before/after row for a performance claim, in one command: two
# prebuilt `bench` binaries (perfbench/) run one workload in N
# alternating pairs, seeds SEED0 … SEED0+N−1 (SEED0 defaults to 2017;
# confirm a claim on a seed range not used while writing the change),
# 10 s per run. The order
# inside a pair flips every pair (parent first, then change first), so
# a slow drift of the machine lands on both sides. Prints each pair's
# end-to-end values, then per metric how many pairs the change won,
# each side's median and quartiles, and a verdict:
#   gain        the change won at least 9 pairs in 10 and its median is
#               better than the parent's by more than the parent's
#               interquartile range;
#   worse       the change's median is worse than the parent's by more
#               than the metric's bound in BENCHMARK.json (0 for a
#               metric it gives none, such as `failed`);
#   unresolved  the parent's interquartile range, over its median,
#               exceeds that bound: the runs spread too widely to tell;
#   flat        anything else.
# Throughput (unit 1/s) is better higher, every other metric better
# lower. Needs nothing beyond bash and awk.
#
#   scripts/pairs.sh PARENT_BENCH CHANGE_BENCH WORKLOAD [N=10] [SEED0=2017]
#
# Build each side's binary in its own checkout and copy it out first:
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml --bin bench
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT_BENCH CHANGE_BENCH WORKLOAD [N=10] [SEED0=2017]" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 n=${4:-10} seed0=${5:-2017}
benchmark=$(dirname "$0")/../BENCHMARK.json
[ -r "$benchmark" ] || { echo "$0: cannot read $benchmark" >&2; exit 2; }
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "$0: $bin is not an executable" >&2; exit 2; }
done

rows=$(mktemp)
trap 'rm -f "$rows"' EXIT

# One run → "PAIR SIDE METRIC VALUE UNIT" rows: the bench's end-to-end
# lines ("WORKLOAD METRIC VALUE UNIT") and the failed count of its JSON.
run() {
    local pair=$1 side=$2 bin=$3
    "$bin" --workload "$workload" --seed $((seed0 + pair)) --seconds 10 --trace 0 2>/dev/null |
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
    echo "pair $((pair + 1))/$n done (seed $((seed0 + pair)))" >&2
done

awk -v seed0="$seed0" '
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
    iqr[side] = quantile(a, k, 0.75) - quantile(a, k, 0.25)
    return sprintf("%.6g [%.6g, %.6g]", med[side], quantile(a, k, 0.25), quantile(a, k, 0.75))
}
function abs(x) { return x < 0 ? -x : x }
# The verdict on metric m, once summary() has filled med[] and iqr[].
function verdict(m, wins,    p, c, b, gap) {
    p = med["parent"]; c = med["change"]; b = bound[m] + 0
    gap = higher_better(m) ? c - p : p - c
    if (wins * 10 >= pairs * 9 && gap > iqr["parent"]) return "gain"
    if (-gap > b * abs(p)) return "worse"
    if (p != 0 ? iqr["parent"] / abs(p) > b : iqr["parent"] > 0) return "unresolved"
    return "flat"
}
# BENCHMARK.json first: in it a "bound" follows the "name" of the
# end-to-end metric it belongs to, and no other entry has one.
FNR == NR {
    if (match($0, /"name": *"[^"]*"/)) {
        name = substr($0, RSTART, RLENGTH)
        sub(/^"name": *"/, "", name); sub(/"$/, "", name)
    }
    if (match($0, /"bound": *[0-9.eE+-]+/)) {
        b = substr($0, RSTART, RLENGTH)
        sub(/^"bound": */, "", b); bound[name] = b
    }
    next
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
            printf "%-5d %-5d %-16s %14.6g %14.6g\n", p + 1, seed0 + p, m, v["parent", p, m], v["change", p, m]
        }
    printf "\n%-16s %-6s %6s  %-38s %-38s %-13s %s\n", "metric", "unit", "wins",
        "parent median [q1, q3]", "change median [q1, q3]", "change/parent", "verdict"
    for (i = 1; i <= metrics; i++) {
        m = order[i]
        wins = 0
        for (p = 0; p < pairs; p++) {
            a = v["parent", p, m]; b = v["change", p, m]
            if (higher_better(m) ? b > a : b < a) wins++
        }
        ps = summary("parent", m); cs = summary("change", m)
        ratio = med["parent"] == 0 ? "-" : sprintf("%.3f", med["change"] / med["parent"])
        printf "%-16s %-6s %3d/%-2d  %-38s %-38s %-13s %s\n", m, unit[m], wins, pairs, ps, cs,
            ratio, verdict(m, wins)
    }
}' "$benchmark" "$rows"
