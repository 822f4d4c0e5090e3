//! mini-SOS: a miniature SOS-like operating system for the simulated
//! ATmega103, the application substrate of the Harbor/UMPU evaluation.
//!
//! SOS (Han et al., 2005) runs a statically-installed trusted kernel plus
//! dynamically loaded binary modules that communicate by message passing and
//! cross-domain function calls. This crate reproduces the parts the paper's
//! evaluation exercises:
//!
//! * a **kernel written in AVR machine code** (via `avr-asm`) providing the
//!   memory-map-aware dynamic memory API of Table 4 — `malloc`, `free`,
//!   `change_own` — plus message posting and a dispatch scheduler;
//! * a **module ABI and loader**: per-domain flash slots, jump-table pages
//!   with `rjmp` entries (empty entries redirect to an in-jump-table error
//!   stub returning `0xff`, modelling SOS's failed dynamic linking), code
//!   regions, and — under SFI — rewriting + verification at load time;
//! * **three protection builds** of the same system:
//!   [`Protection::None`] (stock AVR), [`Protection::Umpu`] (hardware
//!   extensions) and [`Protection::Sfi`] (binary rewriting), so benchmarks
//!   can compare them on identical workloads;
//! * the paper's **Surge / Tree-Routing** war-story modules: Surge uses the
//!   unchecked error return of a cross-domain call as a buffer offset — the
//!   memory-corruption bug Harbor caught in deployment.
//!
//! # Example
//!
//! Boot the protected system, deliver three timer messages to the Blink
//! module through the scheduler, and read its counter back:
//!
//! ```
//! use harbor::DomainId;
//! use mini_sos::{modules, Protection, SosSystem, MSG_TIMER};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sys = SosSystem::build(Protection::Umpu, &[modules::blink(0)], |a, api| {
//!     api.run_scheduler(a);
//!     a.brk();
//! })?;
//! sys.boot()?;
//! for _ in 0..3 {
//!     sys.post(DomainId::new(0)?, MSG_TIMER);
//! }
//! sys.run_to_break(1_000_000)?;
//! assert_eq!(sys.sram(sys.layout.state_addr(0)), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod kernel;
pub mod layout;
pub mod loader;
pub mod modules;
mod share;
pub mod system;

pub use kernel::{JtEntry, KernelApi, KernelImage, MSG_INIT, MSG_TIMER};
pub use layout::SosLayout;
pub use loader::{LoadError, LoadPolicy, ModuleSource};
pub use system::{FaultRecord, Protection, SosSystem, ENGINES};
