#!/usr/bin/env bash
# Tier-1 verification, run fully offline: the workspace must build and
# test with no registry access (see "hermetic build policy" in README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# `default-members` makes these two cover the root package and every
# crate under crates/ — the integration tests in tests/ and each crate's
# unit tests, including the gates below at test sizes.
cargo build --release --offline
cargo test -q --offline

# The same serving plane and clients without the syscall shim: the
# shim's entry points report `Unsupported`, the server falls back to its
# std loop, and each client lane — resolver or load — waits in a
# blocking `recv` on a thread of its own instead of in a shared `poll`.
cargo test -q --offline -p dnswild-netio -p dnswild-mmsg --no-default-features

# The gates at CI sizes. Each is one `dnswild::lab::Scenario` run by
# `lab::run` (crates/core/src/lab.rs) — the runner `dnswild smoke` and
# the tests use — twice where reproducibility is the claim, with the
# seed-deterministic lines compared in Rust. A gate exits non-zero and
# names every expectation that broke; `dnswild gate list` says what each
# one re-checks. Each gate's wall time is printed after it, so a gate
# that got slower shows in the log (no bound is applied).
while read -r gate _; do
    started=$(date +%s%N)
    ./target/release/dnswild gate "$gate"
    echo "gate $gate: wall $(( ($(date +%s%N) - started) / 1000000 )) ms"
done < <(./target/release/dnswild gate list)

# Committed results match the code: every figure/table binary's default
# output (default scale, seed 2017) is byte-identical to its file under
# results/ — regenerate the file on purpose when the model changes.
for exp in table1 fig2 fig3 fig4_table2 fig5 fig6 fig7 guidance outage ablation; do
    "./target/release/exp_$exp" | cmp - "results/exp_$exp.txt"
done
echo "results: all ten exp_* outputs match results/"

# Performance is not gated here: perfbench/ is the ruler (see
# perfbench/README.md and BENCHMARK.json).

# Lint gate: the observability plane rides the hot path, so keep the
# whole workspace — tests included — clippy-clean at -D warnings.
cargo clippy --workspace --all-targets --offline -q -- -D warnings
# The no-shim build compiles the fallback arms the line above never sees.
cargo clippy -p dnswild-netio -p dnswild-mmsg --no-default-features --all-targets --offline -q -- -D warnings
echo "clippy: workspace and tests clean at -D warnings, with and without the shim"

# Net line count is a tracked metric (ROADMAP needle 2): print the
# product/test total so every run's log carries it. Not a gate.
scripts/loc.sh | grep '^total'
