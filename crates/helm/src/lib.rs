//! # harbor-helm — closed-loop OTA control plane
//!
//! The actuation half of the fleet story: `harbor-tower` already turns a
//! thousand nodes' counters into per-cohort health scores and rising-edge
//! regression events; this crate closes the loop by *deciding* with them.
//! A [`RolloutPlan`] fixes a staged canary ladder (1 cohort → 2 → 4 → all)
//! with promotion windows and health thresholds at admission; the
//! [`Helm`] state machine then consumes one [`FleetRollup`] per round and
//! decides hold / promote / roll-back:
//!
//! ```text
//! Admitting → Canary(stage) → … → Promoting → Done
//!                  ↘ RollingBack → RolledBack
//! ```
//!
//! Admission reuses the `harbor-flow` deep store verifier (and, under
//! SFI, rehearses the fleet's `LoadPolicy`) so an unsound image never
//! spends a radio round. Promotion requires every cohort of the stage
//! fully flashed and healthy for a configurable streak. Rollback
//! quarantines the image fleet-wide and restores every canary node's
//! pre-flash checkpoint — the exact pre-rollout flash generation — and
//! the verdict carries typed evidence: the regressing cohort, its score
//! and fault rate, the rising-edge window and resolvable postmortem dump
//! ids.
//!
//! Every decision is a pure function of `(plan, rollup)`. The fleet's
//! crown-jewel identity — serial ≡ parallel rollup bytes — therefore
//! lifts to the control plane: decision logs are byte-identical across
//! stepping schedules and engines, and `harbor-helm --check` gates on
//! exactly that.
//!
//! [`FleetRollup`]: harbor_tower::FleetRollup

#![warn(missing_docs)]

pub mod admit;
pub mod controller;
pub mod drive;
pub mod export;
pub mod plan;
pub mod query;

pub use admit::{verify_image, Admission, AdmitError};
pub use controller::{
    DecisionRecord, Helm, HelmCommand, RegressionEvidence, RolloutState, RolloutVerdict,
};
pub use drive::HelmRun;
pub use export::chrome_trace;
pub use plan::{Baseline, PlanConfig, RolloutPlan};
