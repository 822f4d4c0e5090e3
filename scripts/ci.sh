#!/usr/bin/env bash
# The full local gate: formatting, lints (warnings are errors), docs,
# tests. Everything resolves inside the workspace (no network), so this
# runs the same everywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
# `--lib`: harbor-fleet's `harbor-pulse` and `harbor-tower` binaries carry
# the names of two library crates, so documenting them would overwrite
# those crates' pages.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "== cargo build --release && cargo test -q"
# The root's default members are every crate, so this builds and tests
# the whole workspace: every suite, the viewers' own tests and the
# doctests. The functional suites sweep every engine in
# mini_sos::ENGINES (reference, turbo, prove, turbo+prove) in-process,
# with the reference as the oracle.
cargo build --release
cargo test -q

echo "== harbor_benchmark tests and default-seed pins"
# The benchmark is its own package (outside the workspace), so the steps
# above never build it. Its tests run at tiny sizes; `--seconds 0` runs
# episode 0 of all four workloads and exits non-zero on any pin mismatch
# (the `admit_verify` outcome pin covers every admission verdict,
# certificate digest and refusal string of its 16,384 images).
# `--locked` fails the step if a change to a path dependency's manifest
# would rewrite the benchmark's lockfile.
cargo test --locked --manifest-path harbor_benchmark/Cargo.toml
cargo run --release --offline --quiet --locked --manifest-path harbor_benchmark/Cargo.toml -- --seconds 0

echo "== ci: all green"
