#!/usr/bin/env bash
# The full local gate: formatting, lints (warnings are errors), tests.
# Everything resolves inside the workspace (no network), so this runs the
# same everywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test -q"
# The functional suites sweep every engine in mini_sos::ENGINES (reference,
# turbo, prove, turbo+prove) in-process, with the reference as the oracle.
cargo test --workspace -q

echo "== harbor_prove --check"
# Gate: store certificates are deterministic, per-module elision rates
# stay above their pinned floors, and an 8-node fleet reports identical
# telemetry with elision on and off.
cargo run -q -p harbor-bench --bin harbor_prove -- --check

echo "== harbor-flow lint-modules -D"
cargo run -q -p harbor-flow --bin lint-modules -- -D

echo "== harbor-trace --check"
cargo run -q -p mini-sos --bin harbor-trace -- --check

echo "== harbor-postmortem --check"
cargo run -q -p harbor-fleet --bin harbor-postmortem -- --check

echo "== harbor-tower --check"
# Gate: rollup bytes identical across serial/parallel stepping and turbo,
# every rollup entry reconciled exactly against the sum of the nodes'
# counter tables, prove differing only in stores_elided, and a seeded
# 512-node crash-loop campaign that must flag exactly the faulted cohort
# as unhealthy.
cargo run -q --release -p harbor-fleet --bin harbor-tower -- --check

echo "== harbor-pulse --check"
# Gate: phase timers reconcile (Σ phases ≤ wall, per-worker busy ≤ span ≤
# finish ≤ step), the idle-work ledger exactly matches a host-side census
# and the post-quiescence radio delta, and pulse-enabled runs keep fleet
# telemetry byte-identical to pulse-off runs across serial and parallel
# stepping. Every gate runs on the reference engine and on turbo+prove.
cargo run -q --release -p harbor-fleet --bin harbor-pulse -- --check

echo "== harbor-helm --check"
# Gate: on a 512-node 8-cohort fleet a healthy image promotes through the
# full canary ladder, a crash-looping image auto-rolls-back with every
# canary node restored to its exact pre-rollout flash generation (and no
# other node ever flashed), decision logs are byte-identical across
# serial/parallel stepping, turbo and prove, and a fleet
# with an idle controller attached reports byte-identical telemetry. The
# 512-node campaign gates run on the reference engine and on turbo+prove.
cargo run -q --release -p harbor-helm --bin harbor-helm -- --check

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
