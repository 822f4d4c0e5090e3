//! Harbor SFI: software-based fault isolation for AVR modules — the
//! software-only implementation of the paper's protection system
//! (Sections 1.2 and 4, and the "AVR Binary Rewrite" column of Table 3).
//!
//! Three cooperating pieces:
//!
//! * [`SfiRuntime`] — the trusted run-time check routines, generated as real
//!   AVR machine code and resident in the kernel domain: per-addressing-mode
//!   store checks (the software memory-map checker), the cross-domain
//!   call/return stubs, the save/restore-return-address stubs that maintain
//!   the software safe stack, and the computed-call/jump checks;
//! * [`rewriter`] — the **binary rewriter** that sandboxes a compiled
//!   module: every store becomes a call into the corresponding check, every
//!   `ret` exits through the restore stub, every jump-table call goes
//!   through the cross-domain stub, and skip instructions are rebuilt so
//!   the expanded code preserves the original semantics;
//! * [`verifier`] — the **on-node verifier** that independently validates a
//!   rewritten binary with constant state, so Harbor's safety depends only
//!   on the verifier and run-time, never on the rewriter.
//!
//! A third, flow-sensitive verifier (`harbor_flow::CfgVerifier`, in
//! `crates/flow`) layers CFG reconstruction and abstract interpretation on
//! top of this crate; it shares the [`VerifyError`] surface and derives its
//! allow-lists from the same [`StubRole`] table as the linear verifiers.
//!
//! Violations detected at run time are reported by writing the
//! [`harbor::fault_code`] to the simulator panic port
//! ([`avr_core::mem::PORT_PANIC`]), the software analogue of the UMPU
//! exception signal.

#![warn(missing_docs)]

mod layout;
mod memo;
pub mod rewriter;
mod runtime;
pub mod verifier;

pub use layout::SfiLayout;
pub use memo::LayoutMemo;
pub use rewriter::{rewrite, rewrite_with_elision, RewriteError, RewrittenModule};
pub use runtime::{store_stub_name, SfiRuntime, StubRole, STUB_TABLE};
pub use verifier::{raw_stores, verify, verify_constant_memory, VerifierConfig, VerifyError};
