//! harbor-pulse: host-side performance observability for the fleet
//! pipeline.
//!
//! The guest side of this repository is thoroughly observed — scope traces,
//! blackbox postmortems, tower rollups — but the *host* simulator that must
//! scale to 100k+ nodes was a black box: parallel stepping barely beat
//! serial, and nothing said where the wall-clock goes or how much of it is
//! wasted stepping nodes that had nothing to do. This
//! crate answers both questions, and its numbers are the acceptance
//! baseline for the planned event-driven fleet rearchitecture:
//!
//! * [`probe`] — the [`Pulse`] recorder: per-round, per-[`Phase`]
//!   wall-clock timers (deliver, step, collect, tower feed), per-worker
//!   busy/span/barrier-wait stats from the parallel step phase, and
//!   guest-cycles-per-host-microsecond throughput, all folded through
//!   `harbor-tower`'s [`QuantileSketch`](harbor_tower::QuantileSketch) so
//!   memory stays bounded no matter how many rounds a soak campaign runs;
//! * [`ledger`] — the idle-work ledger: per round, how many nodes had
//!   pending work ([`PendingWork`]: inbox non-empty, OTA chunks
//!   outstanding, kernel queue non-empty) versus how many were stepped
//!   anyway — a direct measurement of the event-driven-scheduling
//!   opportunity;
//! * [`report`] — the [`PulseReport`] snapshot: per-phase tables, the
//!   idle-fraction timeline, deterministic ledger JSON (byte-identical
//!   between serial and parallel runs of one seed), full JSON time series,
//!   and the [`PulseReport::reconcile`] invariant check CI gates on;
//! * [`export`] — Perfetto host-track export on the shared guest-cycle
//!   clock, so host phase spans interleave with the existing guest traces
//!   in one viewer document.
//!
//! Pulse is strictly observational: it reads node state (inbox length,
//! dissemination progress, kernel queue depth, cycle counters) and the
//! host clock, and never touches a machine, an RNG or the telemetry JSON —
//! a pulse-enabled run is byte-identical to a pulse-disabled run, which
//! `tests/fleet_pulse.rs` asserts.

#![warn(missing_docs)]

pub mod export;
pub mod ledger;
pub mod probe;
pub mod report;

pub use export::chrome_trace;
pub use ledger::{LedgerTotals, PendingWork, RoundLedger};
pub use probe::{Phase, Pulse, RoundTiming, StepStats, WorkerStat};
pub use report::{PhaseStats, PulseReport, RoundRecord, SketchStats};
