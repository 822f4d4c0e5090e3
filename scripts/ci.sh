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
cargo test --workspace -q

echo "== cargo test -q (HARBOR_TURBO=1 matrix leg)"
# Same systems, stepped through the harbor-turbo fast path: every identity
# and kernel test must pass with the engine substituted in.
HARBOR_TURBO=1 cargo test -q -p mini-sos -p harbor-sfi -p harbor-fleet -p harbor-repro

echo "== cargo test -q (HARBOR_PROVE=1 matrix leg)"
# Same systems with certified-store elision substituted in: UMPU elision is
# byte-identical, so every kernel and identity test must still pass.
HARBOR_PROVE=1 cargo test -q -p mini-sos -p harbor-sfi -p harbor-fleet -p harbor-repro

echo "== cargo test -q (HARBOR_TURBO=1 HARBOR_PROVE=1 combined leg, tower attached)"
# Both substitutions at once, exercised through the tower pipeline: the
# fleet_tower suite attaches the aggregator to turbo+prove fleets and
# reconciles every rolled-up counter against raw telemetry.
HARBOR_TURBO=1 HARBOR_PROVE=1 cargo test -q -p harbor-repro --test fleet_tower

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
# Gate: rollup bytes identical across serial/parallel stepping and shard
# counts, exact reconciliation against raw NodeTelemetry (including the
# turbo and prove legs), and a seeded 512-node crash-loop campaign that
# must flag exactly the faulted cohort as unhealthy.
cargo run -q --release -p harbor-fleet --bin harbor-tower -- --check

echo "== harbor-pulse --check"
# Gate: phase timers reconcile (Σ phases ≤ wall, per-worker busy ≤ span ≤
# finish ≤ step), the idle-work ledger exactly matches a host-side census
# and the post-quiescence radio delta, and pulse-enabled runs keep fleet
# telemetry byte-identical to pulse-off runs across serial and parallel
# stepping.
cargo run -q --release -p harbor-fleet --bin harbor-pulse -- --check

echo "== harbor-pulse --check (HARBOR_TURBO=1 HARBOR_PROVE=1 combined leg)"
# Same gate with both execution substitutions active: profiling must stay
# observational no matter which engine steps the nodes.
HARBOR_TURBO=1 HARBOR_PROVE=1 cargo run -q --release -p harbor-fleet --bin harbor-pulse -- --check

echo "== harbor-helm --check"
# Gate: on a 512-node 8-cohort fleet a healthy image promotes through the
# full canary ladder, a crash-looping image auto-rolls-back with every
# canary node restored to its exact pre-rollout flash generation (and no
# other node ever flashed), decision logs are byte-identical across
# serial/parallel stepping, shard counts, turbo and prove, and a fleet
# with an idle controller attached reports byte-identical telemetry.
cargo run -q --release -p harbor-helm --bin harbor-helm -- --check

echo "== harbor-helm --check (HARBOR_TURBO=1 HARBOR_PROVE=1 combined leg)"
# Same gate with both execution substitutions active: the control plane
# must reach the same decisions no matter which engine steps the nodes.
HARBOR_TURBO=1 HARBOR_PROVE=1 cargo run -q --release -p harbor-helm --bin harbor-helm -- --check

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
