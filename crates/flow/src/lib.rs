//! harbor-flow: flow-sensitive static analysis for sandboxed AVR modules.
//!
//! Harbor's safety argument "depends only upon the correctness of the
//! verifier" — and the paper's verifier is a two-pass linear scan that
//! checks instruction *syntax*, not *flow*. This crate closes that trust
//! gap with a static-analysis subsystem over decoded machine code:
//!
//! * [`cfg`](mod@cfg) — control-flow-graph reconstruction from a module image:
//!   basic blocks, fall-through/branch/skip successor edges, the
//!   intra-module call graph, and cross-domain call sites resolved through
//!   the `harbor_xdom_call` inline operands (with Graphviz export);
//! * [`verify`] — the [`CfgVerifier`]: phase 1 is the linear scan itself
//!   (so every linear rejection is preserved verbatim), phase 2 is a
//!   flow-sensitive pass proving that every reachable path to a run-time
//!   check is well-formed. It rejects corruption classes the linear scan
//!   provably accepts — a branch that bypasses a store check's value
//!   staging, an intra-module call into a function missing its
//!   `harbor_save_ret` prologue, and a reachable path that falls off the
//!   module end — sharing the [`harbor_sfi::VerifyError`] surface;
//! * [`stack`] — a worklist abstract interpretation of worst-case stack
//!   depth (push/pop/call effects joined by maximum over the CFG,
//!   cross-domain calls charged at the safe-stack frame cost) emitting a
//!   per-module [`StackCertificate`] that the `mini-sos` loader can gate
//!   on *before* a module ever executes;
//! * [`dataflow`] — an interprocedural abstract interpretation tracking
//!   per-register value intervals and pointer provenance, emitting a
//!   per-PC [`StoreCertificate`] of stores statically proven to land
//!   inside the module's own segment — the input to run-time check
//!   elision in `umpu`, `sfi` and `turbo` (see `DESIGN.md` §7);
//! * [`lint`](mod@lint) — non-fatal findings with stable `HF####` diagnostic codes
//!   (unreachable blocks, unbalanced push/pop, skip-into-operand,
//!   call-depth overflow), printed by the `lint-modules` binary alongside
//!   dot exports of the CFG and the cross-domain call graph.

#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod lint;
pub mod stack;
pub mod verify;

pub use cfg::{Block, CallEdge, Cfg, Slot, XdomSite};
pub use dataflow::{
    certify_module_stores, certify_stores, DataflowConfig, Interval, Provenance, StoreCertificate,
};
pub use lint::{lint, Lint};
pub use stack::{analyze_stack, certify, StackAnalysis, StackCertificate};
pub use verify::{CfgVerifier, ModuleAnalysis};
