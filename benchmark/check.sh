#!/usr/bin/env bash
# The benchmark's own gate: format, lints, self-tests (one of which
# fails when the metrics and workloads the code declares, which are
# the ones a run prints, differ from BENCHMARK.json), and a smoke run of
# all four workloads (closed and open phases of 1 s, traced run
# included) that fails on any failed operation or invalid run. Run from
# anywhere in the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run --smoke
