//! harbor-turbo: a table-driven fast-path execution engine for `avr-core`.
//!
//! The reference interpreter ([`avr_core::exec::Cpu::step`]) fetches,
//! classifies and decodes every instruction through a match chain on every
//! step. This crate removes that per-instruction work without touching the
//! reference:
//!
//! * [`DecodeTable`] — a 64k-entry predecode table covering every possible
//!   first opcode word, built once per process from the reference decoder
//!   (so it cannot diverge) and shared by all engines;
//! * [`TurboEngine`] — a per-CPU engine stepping from one whole
//!   [`DecodedImage`] of flash, keyed on a **flash generation counter**
//!   supplied by the host (the simulated CPU cannot write flash, so
//!   host-side writes are the only invalidation source). Images are shared
//!   behind an `Arc`: every clone of a primed engine reads its image, and a
//!   host that keeps a memo of live images by content hands one to every
//!   engine whose flash matches ([`TurboEngine::adopt`]), so a fleet's
//!   worth of nodes reads a single cache-hot copy. The engine steps the
//!   reference CPU through [`avr_core::exec::Cpu::exec_decoded`].
//!
//! The engine is *cycle-identical* to the reference by construction: the
//! interrupt latch, per-store MMC arbitration and the execute match itself
//! are all the reference's own code — only the fetch/decode bookkeeping is
//! hoisted out of the per-instruction path. Fetch-side CFI is either
//! checked per word exactly as the reference would
//! ([`avr_core::exec::Env::check_fetch`]) or covered by a whole-page grant
//! proved under the current [`avr_core::exec::Env::cfi_epoch`] — and
//! granted checks are side-effect free, so skipping their re-execution is
//! unobservable. Nothing is batched that the paper's hardware would check
//! per access. See `DESIGN.md` §6 for the full argument and the lockstep
//! differential harness that enforces it.

#![warn(missing_docs)]

mod engine;
mod table;

pub use engine::{DecodedImage, TurboEngine, TurboStats};
pub use table::DecodeTable;
