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

# The same serving plane and resolver client without the syscall shim:
# the shim's entry points report `Unsupported`, the server falls back to
# its std loop, and each resolver lane waits in a blocking `recv` on a
# thread of its own instead of in a shared `poll`.
cargo test -q --offline -p dnswild-netio -p dnswild-mmsg --no-default-features

# The gates at CI sizes. Each is one typed function of `dnswild::lab`
# (crates/core/src/lab.rs) — the same code `dnswild smoke` and the tests
# call — run twice where reproducibility is the claim, with the
# seed-deterministic lines compared in Rust. A gate exits non-zero and
# names every expectation that broke; `dnswild gate list` says what each
# one re-checks.
while read -r gate _; do
    ./target/release/dnswild gate "$gate"
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
echo "clippy: workspace and tests clean at -D warnings"
