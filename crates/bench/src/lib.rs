//! Benchmark harness regenerating every table and figure of the Harbor/UMPU
//! DAC 2007 evaluation (Section 6 of the paper).
//!
//! Each module reproduces one artefact and returns structured rows; the
//! `all` binary prints them side by side with the paper's reported numbers
//! (`cargo run -p harbor-bench --bin all`). Absolute cycle counts come from
//! the cycle-accurate simulator, so the comparison against the paper's
//! ModelSim measurements is direct; small deltas reflect re-implemented (not
//! disassembled) check routines, as documented in `EXPERIMENTS.md`. The
//! values EXPERIMENTS.md quotes are pinned by each module's tests.
//!
//! The `harbor_prove` binary prints the store-certificate table, and its
//! tests pin it. Host time is measured by `harbor_benchmark`, not here.

pub mod report;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

pub mod figures;
