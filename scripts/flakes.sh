#!/usr/bin/env bash
# A flake census of the tier-1 suite: runs `cargo test -q --no-fail-fast`
# N times, every other run (the 2nd, 4th, …) beside exactly two
# busy-spin processes competing for the CPUs, and prints one line per
# run, then each failing test's name with how many quiet and how many
# busy runs it failed in. A trap kills the spinners on every exit, so
# none is left running. Writes nothing into the tree: the run logs live
# in a temporary directory removed on exit, and a failing run that names
# no test (a crash, a build error) has its log's tail printed instead.
#
#   scripts/flakes.sh N
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -ne 1 ] || ! [[ $1 =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: $0 N" >&2
    exit 2
fi
n=$1

logs=$(mktemp -d)
spinners=()
stop_spinners() {
    if [ ${#spinners[@]} -gt 0 ]; then
        kill "${spinners[@]}" 2>/dev/null || true
        wait "${spinners[@]}" 2>/dev/null || true
        spinners=()
    fi
}
trap 'stop_spinners; rm -rf "$logs"' EXIT
trap 'exit 130' INT TERM

# Build once up front, so no run's wall time or load includes compiling.
cargo test -q --offline --no-run

for run in $(seq 1 "$n"); do
    load=quiet
    if [ $((run % 2)) -eq 0 ]; then
        load=busy
        for _ in 1 2; do
            (while :; do :; done) &
            spinners+=($!)
        done
    fi
    log="$logs/$run.$load"
    started=$(date +%s)
    status=0
    cargo test -q --offline --no-fail-fast >"$log" 2>&1 || status=$?
    stop_spinners
    read -r passed failed < <(awk '/^test result:/ {
        for (i = 1; i <= NF; i++) {
            if ($(i + 1) ~ /^passed/) p += $i
            if ($(i + 1) ~ /^failed/) f += $i
        }
    } END { print p + 0, f + 0 }' "$log")
    echo "run $run ($load): exit $status, $(($(date +%s) - started)) s, $passed passed, $failed failed"
    if [ "$status" -ne 0 ] && ! grep -q '^---- .* stdout ----$' "$log"; then
        echo "run $run failed naming no test; its log ends:" >&2
        tail -n 20 "$log" >&2
    fi
done

# `---- <test> stdout ----` opens each failed test's captured output.
echo "failing tests (quiet runs / busy runs):"
for log in "$logs"/*; do
    sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log" | sort -u | sed "s/\$/ ${log##*.}/"
done | awk '
    { quiet[$1] += ($2 == "quiet"); busy[$1] += ($2 == "busy"); names[$1] = 1 }
    END {
        for (name in names) { printf "  %s: %d / %d\n", name, quiet[name], busy[name]; any = 1 }
        if (!any) print "  none"
    }'
