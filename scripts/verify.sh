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

# The gates at CI sizes. Each is one typed function of `dnswild::lab`
# (crates/core/src/lab.rs) — the same code `dnswild smoke` and the tests
# call — run twice where reproducibility is the claim, with the
# seed-deterministic lines compared in Rust. A gate exits non-zero and
# names every expectation that broke; `dnswild gate list` says what each
# one re-checks.
while read -r gate _; do
    ./target/release/dnswild gate "$gate"
done < <(./target/release/dnswild gate list)

# Performance is not gated here: perfbench/ is the ruler (see
# perfbench/README.md and BENCHMARK.json).

# Lint gate: the observability plane rides the hot path, so keep the
# whole workspace — tests included — clippy-clean at -D warnings.
cargo clippy --workspace --all-targets --offline -q -- -D warnings
echo "clippy: workspace and tests clean at -D warnings"
