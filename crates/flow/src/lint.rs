//! The lint pass: non-fatal findings over a reconstructed CFG.
//!
//! Lints flag shapes that are *suspicious* rather than unsafe — the
//! run-time still contains every one of them (an unbalanced loop
//! eventually trips the safe-stack overflow check, a skip into an operand
//! is already a verify error), but a clean module build should produce
//! none, and `lint-modules`' tests hold its corpus to zero findings.
//!
//! Every finding carries a **stable diagnostic code** (`HF0001`-style,
//! [`Lint::code`]) that tooling may match on; the codes are append-only —
//! a code is never reused or renumbered, even if its lint is retired. The
//! rendered form is pinned by the snapshot test in
//! `tests/lint_snapshot.rs`.

use crate::cfg::Cfg;
use crate::stack::analyze_stack;
use crate::verify::CfgVerifier;
use avr_core::isa::Instr;
use std::fmt;

/// One lint finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// A basic block no path from the origin or any entry reaches.
    UnreachableBlock {
        /// Block start address.
        start: u32,
    },
    /// Two paths reach a block with different stack depths, or a path pops
    /// below its function's entry depth.
    UnbalancedPushPop {
        /// Block start address.
        block: u32,
    },
    /// A skip instruction's landing is the inline operand of a
    /// cross-domain call (the linear verifier also rejects this; the lint
    /// names the shape precisely).
    SkipIntoOperand {
        /// Word address of the skip.
        addr: u32,
        /// The operand word it would land on.
        landing: u32,
    },
    /// The certified safe-stack demand exceeds the layout's safe-stack
    /// region (or the analysis saturated), so a deep enough call chain
    /// faults at run time.
    CallDepthOverflow {
        /// Certified safe-stack bytes (`u16::MAX` when saturated).
        safe_stack_bytes: u16,
        /// Capacity of the safe-stack region.
        capacity: u16,
    },
}

impl Lint {
    /// The finding's stable diagnostic code. Codes are append-only: never
    /// reused, never renumbered (tooling and suppression lists match on
    /// them).
    pub const fn code(&self) -> &'static str {
        match self {
            Lint::UnreachableBlock { .. } => "HF0001",
            Lint::UnbalancedPushPop { .. } => "HF0002",
            Lint::SkipIntoOperand { .. } => "HF0003",
            Lint::CallDepthOverflow { .. } => "HF0004",
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.code())?;
        match *self {
            Lint::UnreachableBlock { start } => {
                write!(f, "unreachable block at {start:#06x}")
            }
            Lint::UnbalancedPushPop { block } => {
                write!(f, "unbalanced push/pop on some path into {block:#06x}")
            }
            Lint::SkipIntoOperand { addr, landing } => {
                write!(f, "skip at {addr:#06x} lands on inline operand at {landing:#06x}")
            }
            Lint::CallDepthOverflow { safe_stack_bytes, capacity } => {
                write!(
                    f,
                    "certified safe-stack demand {safe_stack_bytes} exceeds the \
                     {capacity}-byte region"
                )
            }
        }
    }
}

/// Lints `cfg`, returning findings in address order.
pub fn lint(cfg: &Cfg, v: &CfgVerifier) -> Vec<Lint> {
    let mut out = Vec::new();
    for (bi, block) in cfg.blocks.iter().enumerate() {
        if !cfg.reachable[bi] {
            out.push(Lint::UnreachableBlock { start: block.start });
        }
    }
    for (i, s) in cfg.slots.iter().enumerate() {
        let skip = matches!(
            s.instr,
            Instr::Cpse { .. }
                | Instr::Sbrc { .. }
                | Instr::Sbrs { .. }
                | Instr::Sbic { .. }
                | Instr::Sbis { .. }
        );
        if !skip {
            continue;
        }
        if let Some(n) = cfg.slots.get(i + 1) {
            let landing = n.addr + n.instr.words();
            if let Some((oaddr, _)) = n.xdom_operand {
                if landing == oaddr {
                    out.push(Lint::SkipIntoOperand { addr: s.addr, landing });
                }
            }
        }
    }
    let analysis = analyze_stack(cfg, v);
    for block in analysis.unbalanced {
        out.push(Lint::UnbalancedPushPop { block });
    }
    let cert = analysis.certificate;
    if cert.saturated || cert.safe_stack_bytes > v.safe_stack_capacity() {
        out.push(Lint::CallDepthOverflow {
            safe_stack_bytes: cert.safe_stack_bytes,
            capacity: v.safe_stack_capacity(),
        });
    }
    out
}
