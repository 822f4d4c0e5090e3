//! # harbor-tower — fleet-scale telemetry aggregation
//!
//! The ingestion half of the OTA control plane: a streaming pipeline
//! that turns per-node counter tables, blackbox postmortem dumps and
//! watchdog alerts into bounded-memory per-cohort rollups a canary
//! promote/rollback decision can consume.
//!
//! ```text
//!   node counter tables ─┐  per-round deltas
//!   Postmortem dumps ────┼─▶ Tower
//!   Watchdog alerts ─────┘     │  CounterSet sums per cohort
//!                              │  log-bucket QuantileSketch
//!                              │  bounded window series (fold, not drop)
//!                              ▼
//!                        Tower::rollup()
//!                              │
//!                              ▼
//!                        FleetRollup ──▶ JSON / tables / Perfetto
//!                              │
//!                              ▼
//!                        CohortHealth (score + rising-edge regression)
//! ```
//!
//! Two properties carry the whole design:
//!
//! * **Bounded memory.** The tower holds O(cohorts × windows + top-K)
//!   state — no per-node and no per-round retention. Evicted windows
//!   are *folded* into a residual sum, so `totals == folded + Σ live
//!   windows` always reconciles exactly.
//! * **Exact reconciliation.** Every aggregate is a sum of the nodes'
//!   per-round table deltas, so the rollup totals equal the sum of the
//!   nodes' own counter tables, entry for entry, plus whatever a
//!   checkpoint restore rewound. The fleet feeds nodes in id order, so
//!   the rollup bytes are also identical for any stepping schedule.
//!   `harbor-tower --check` enforces both in CI.

pub mod counters;
pub mod export;
pub mod health;
pub mod query;
pub mod sketch;
pub mod tower;

pub use counters::{CounterSet, RoundSample};
pub use export::chrome_trace;
pub use health::{score_cohort, CohortHealth, HealthConfig};
pub use sketch::QuantileSketch;
pub use tower::{
    dump_id, CohortSeries, DumpRef, FleetRollup, NodeStat, Tower, TowerConfig, Window,
};
