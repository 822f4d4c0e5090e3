//! The flow-sensitive deep verifier.
//!
//! [`CfgVerifier`] strictly strengthens the linear verifiers in
//! `harbor-sfi`: phase 1 *is* the linear scan (so every binary the linear
//! verifier rejects, this verifier rejects, with the same error), and
//! phase 2 walks the reconstructed CFG to prove properties the linear scan
//! cannot even state:
//!
//! * **store-check integrity** — on every reachable path, a call to a
//!   store-check stub is preceded (within its basic block, which is how the
//!   rewriter emits the glue) by an instruction staging the checked value
//!   in `r0` (and the displacement in `r24` for the `std` stubs). A branch
//!   that lands directly on the `call` — a perfectly aligned, linearly
//!   legal target — is rejected as [`VerifyError::StoreCheckBypass`];
//! * **return-address discipline** — every intra-module call (and every
//!   declared entry) targets a function whose first instruction is
//!   `call harbor_save_ret`, so no return address ever stays on the
//!   unprotected run-time stack ([`VerifyError::MissingSaveRetPrologue`]);
//! * **containment** — no reachable path falls off the end of the image,
//!   neither by straight-line fall-through nor by a skip whose landing is
//!   exactly the module end ([`VerifyError::FallsOffEnd`]).

use crate::cfg::Cfg;
use crate::dataflow::{DataflowConfig, StoreCertificate};
use crate::lint::{lint, Lint};
use crate::stack::{certify, StackCertificate};
use avr_core::isa::{Instr, IwPair, Reg};
use harbor_sfi::{LayoutMemo, SfiLayout, SfiRuntime, StubRole, VerifierConfig, VerifyError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Bitmask of the registers `i` writes (bit `n` = `rn`). Used by the
/// dataflow clobber masks and, via [`writes_reg`], by the
/// store-check-window proof (conservative: unknown instructions write
/// nothing).
pub(crate) fn written_regs(i: Instr) -> u32 {
    use Instr::*;
    let bit = |r: Reg| 1u32 << r.index();
    match i {
        Add { d, .. }
        | Adc { d, .. }
        | Sub { d, .. }
        | Sbc { d, .. }
        | And { d, .. }
        | Or { d, .. }
        | Eor { d, .. }
        | Mov { d, .. }
        | Subi { d, .. }
        | Sbci { d, .. }
        | Andi { d, .. }
        | Ori { d, .. }
        | Ldi { d, .. }
        | Com { d }
        | Neg { d }
        | Swap { d }
        | Inc { d }
        | Asr { d }
        | Lsr { d }
        | Ror { d }
        | Dec { d }
        | Ld { d, .. }
        | Ldd { d, .. }
        | Lds { d, .. }
        | Lpm { d, .. }
        | Elpm { d, .. }
        | In { d, .. }
        | Pop { d }
        | Bld { d, .. } => bit(d),
        Movw { d, .. } => 0b11 << d.index(),
        Mul { .. }
        | Muls { .. }
        | Mulsu { .. }
        | Fmul { .. }
        | Fmuls { .. }
        | Fmulsu { .. }
        | Lpm0
        | Elpm0 => 0b11,
        Adiw { p, .. } | Sbiw { p, .. } => 0b11 << p.lo().index(),
        _ => 0,
    }
}

/// Does `i` write register `reg`? (See [`written_regs`].)
pub(crate) fn writes_reg(i: Instr, reg: Reg) -> bool {
    written_regs(i) & (1 << reg.index()) != 0
}

const _: () = {
    // `IwPair::W` writes r24 — relied on by the displaced-store window.
    assert!(IwPair::W.lo().index() == 24);
};

/// Everything the deep verifier learns about an accepted module.
#[derive(Debug, Clone)]
pub struct ModuleAnalysis {
    /// The reconstructed control-flow graph.
    pub cfg: Cfg,
    /// The certified worst-case stack bounds.
    pub certificate: StackCertificate,
    /// Non-fatal findings (see [`crate::lint`]).
    pub lints: Vec<Lint>,
}

/// The CFG-based deep verifier. Build one per runtime with
/// [`CfgVerifier::for_runtime`], or share the process-wide one with
/// [`CfgVerifier::shared`]; it derives its stub knowledge from the same
/// [`StubRole`] table as the linear verifiers.
///
/// Every check runs over one reconstructed [`Cfg`]: build it with
/// [`CfgVerifier::cfg`], then hand it to [`CfgVerifier::verify_cfg`],
/// [`CfgVerifier::certify_cfg_stores`] and [`crate::certify`]. The
/// word-slice methods ([`CfgVerifier::verify`], [`CfgVerifier::certify`],
/// …) each build their own.
#[derive(Debug, Clone)]
pub struct CfgVerifier {
    config: VerifierConfig,
    roles: BTreeMap<u32, StubRole>,
    safe_stack_capacity: u16,
    /// The stub calls the store dataflow treats specially (segment unset).
    stub_calls: DataflowConfig,
}

impl CfgVerifier {
    /// Builds the verifier matching a generated run-time.
    pub fn for_runtime(rt: &SfiRuntime) -> CfgVerifier {
        let l = rt.layout();
        let roles: BTreeMap<u32, StubRole> = rt.stub_roles().into_iter().collect();
        let mut stub_calls = DataflowConfig::default();
        for (&addr, &role) in &roles {
            if role == StubRole::SaveRet {
                stub_calls.transparent_calls.insert(addr);
            } else if role.is_store_check() {
                stub_calls.pointer_clobber_calls.insert(addr);
            }
        }
        CfgVerifier {
            config: VerifierConfig::for_runtime(rt),
            roles,
            safe_stack_capacity: l.safe_stack_limit - l.safe_stack_base,
            stub_calls,
        }
    }

    /// The process-wide verifier for the run-time
    /// [`SfiRuntime::shared`]`(layout, origin)`: built on first use and
    /// shared afterwards, like the run-time itself.
    pub fn shared(layout: SfiLayout, origin: u32) -> Arc<CfgVerifier> {
        static VERIFIERS: LayoutMemo<CfgVerifier> = LayoutMemo::new();
        VERIFIERS.get_or_build(layout, origin, || {
            CfgVerifier::for_runtime(&SfiRuntime::shared(layout, origin))
        })
    }

    /// Total bytes in the safe-stack region of the layout this verifier
    /// was built for.
    pub const fn safe_stack_capacity(&self) -> u16 {
        self.safe_stack_capacity
    }

    /// The linear-verifier configuration this verifier extends.
    pub const fn config(&self) -> &VerifierConfig {
        &self.config
    }

    /// This verifier with `set` allow-listed as certified raw stores (see
    /// [`harbor_sfi::VerifierConfig`]'s `certified_raw_stores`): both
    /// verification phases then accept those — and only those — raw store
    /// instructions. Callers must populate `set` exclusively from a
    /// certificate derived by [`CfgVerifier::certify_stores`] on the same
    /// image.
    pub fn allowing_raw_stores(mut self, set: BTreeSet<u32>) -> CfgVerifier {
        self.config.certified_raw_stores = set;
        self
    }

    /// Role of the stub a resolved call/jump target names, if any.
    pub(crate) fn role_of(&self, target: u32) -> Option<StubRole> {
        self.roles.get(&target).copied()
    }

    /// Address of the stub with role `role` (the table is injective for
    /// the single-stub roles used here).
    fn stub_with_role(&self, role: StubRole) -> Option<u32> {
        self.roles.iter().find(|&(_, r)| *r == role).map(|(&a, _)| a)
    }

    /// Reconstructs the CFG of a rewritten image with this verifier's stub
    /// knowledge (see [`Cfg::build`]). The CFG does not depend on
    /// [`CfgVerifier::allowing_raw_stores`], so one CFG serves both.
    ///
    /// # Errors
    ///
    /// Only the decode-level errors from [`Cfg::build`] — the ones the
    /// linear scan's first pass reports, in the same order.
    pub fn cfg(&self, words: &[u16], origin: u32, entries: &[u32]) -> Result<Cfg, VerifyError> {
        Cfg::build(words, origin, entries, &self.config)
    }

    /// Verifies a module image at word address `origin` with declared
    /// entry points `entries` (word addresses inside the image; pass the
    /// translated entries the loader registers in the jump table, or an
    /// empty slice for a module only ever entered at its origin).
    ///
    /// # Errors
    ///
    /// Every [`VerifyError`] the linear verifier can report, plus the three
    /// flow-sensitive classes ([`VerifyError::StoreCheckBypass`],
    /// [`VerifyError::MissingSaveRetPrologue`], [`VerifyError::FallsOffEnd`]).
    pub fn verify(&self, words: &[u16], origin: u32, entries: &[u32]) -> Result<(), VerifyError> {
        let cfg = self.cfg(words, origin, entries)?;
        self.verify_cfg(words, entries, &cfg)
    }

    /// [`CfgVerifier::verify`] over `cfg`, which must be
    /// [`CfgVerifier::cfg`]`(words, origin, entries)`.
    ///
    /// The linear scan runs first, so every binary it rejects is rejected
    /// with the identical error; building the CFG first changes no result,
    /// because its only errors are the scan's own first-pass errors.
    ///
    /// # Errors
    ///
    /// Same as [`CfgVerifier::verify`].
    pub fn verify_cfg(&self, words: &[u16], entries: &[u32], cfg: &Cfg) -> Result<(), VerifyError> {
        // Phase 1: the linear scan. Anything it rejects, we reject — with
        // the identical error.
        harbor_sfi::verify(words, cfg.origin, &self.config)?;
        self.deep_checks(cfg, entries)
    }

    /// Runs the full pipeline — linear scan, deep checks, stack
    /// certification and lints — returning the analysis for an accepted
    /// module.
    ///
    /// # Errors
    ///
    /// Same as [`CfgVerifier::verify`].
    pub fn analyze(
        &self,
        words: &[u16],
        origin: u32,
        entries: &[u32],
    ) -> Result<ModuleAnalysis, VerifyError> {
        let cfg = self.cfg(words, origin, entries)?;
        self.verify_cfg(words, entries, &cfg)?;
        let certificate = certify(&cfg, self);
        let lints = lint(&cfg, self);
        Ok(ModuleAnalysis { cfg, certificate, lints })
    }

    /// Builds the CFG and certifies stack bounds *without* the deep
    /// verification errors (the loader uses this when only the stack gate
    /// is enabled; the linear verifier has already accepted the module).
    ///
    /// # Errors
    ///
    /// Only the decode-level errors from [`Cfg::build`].
    pub fn certify(
        &self,
        words: &[u16],
        origin: u32,
        entries: &[u32],
    ) -> Result<StackCertificate, VerifyError> {
        Ok(certify(&self.cfg(words, origin, entries)?, self))
    }

    /// Derives the [`crate::dataflow::StoreCertificate`] of a *rewritten*
    /// image against the segment `[seg_base, seg_base + seg_len)`, with
    /// stub knowledge from this verifier's role table: `harbor_save_ret`
    /// preserves all registers, the store-check stubs preserve everything
    /// but the pointer pairs, every other out-of-module call havocs the
    /// whole file. The loader uses this to *independently* re-derive the
    /// certificate a rewriter claims — correctness never depends on the
    /// rewriter.
    ///
    /// # Errors
    ///
    /// Only the decode-level errors from [`Cfg::build`].
    pub fn certify_stores(
        &self,
        words: &[u16],
        origin: u32,
        entries: &[u32],
        seg_base: u16,
        seg_len: u16,
    ) -> Result<StoreCertificate, VerifyError> {
        Ok(self.certify_cfg_stores(&self.cfg(words, origin, entries)?, seg_base, seg_len))
    }

    /// [`CfgVerifier::certify_stores`] over an already reconstructed CFG.
    pub fn certify_cfg_stores(&self, cfg: &Cfg, seg_base: u16, seg_len: u16) -> StoreCertificate {
        let dc = DataflowConfig { seg_base, seg_len, ..self.stub_calls.clone() };
        crate::dataflow::certify_stores(cfg, &dc)
    }

    /// Phase 2: the flow-sensitive properties, over reachable code only
    /// (unreachable blocks are a lint, not a rejection).
    fn deep_checks(&self, cfg: &Cfg, entries: &[u32]) -> Result<(), VerifyError> {
        let save_ret = self.stub_with_role(StubRole::SaveRet);
        let has_prologue = |target: u32| {
            cfg.slot_at(target)
                .is_some_and(|s| matches!(s.instr, Instr::Call { k } if Some(k) == save_ret))
        };

        // Declared entries: the jump table transfers straight to them, so
        // they must be instruction boundaries and carry the prologue.
        for &e in entries {
            if cfg.slot_at(e).is_none() {
                return Err(VerifyError::MisalignedTarget { addr: e, target: e });
            }
            if !has_prologue(e) {
                return Err(VerifyError::MissingSaveRetPrologue { addr: e, target: e });
            }
        }

        for (bi, block) in cfg.blocks.iter().enumerate() {
            if !cfg.reachable[bi] {
                continue;
            }
            let (lo, hi) = block.slots;
            for (si, slot) in cfg.slots[lo..hi].iter().enumerate() {
                let target = match slot.instr {
                    Instr::Call { k } => k,
                    Instr::Rcall { k } => crate::cfg::rel_target(slot.addr, k),
                    _ => continue,
                };
                if (cfg.origin..cfg.end).contains(&target) {
                    if !has_prologue(target) {
                        return Err(VerifyError::MissingSaveRetPrologue {
                            addr: slot.addr,
                            target,
                        });
                    }
                    continue;
                }
                // Store-check calls must see their value staged within the
                // same block — the window the rewriter emits is leader-free
                // by construction, so a leader between staging and call
                // means some branch can bypass the staging.
                if let Some(role) = self.role_of(target) {
                    if role.is_store_check() {
                        let window = &cfg.slots[lo..lo + si];
                        let staged_r0 = window.iter().any(|w| writes_reg(w.instr, Reg::R0));
                        let staged_r24 = role != StubRole::DisplacedStoreCheck
                            || window.iter().any(|w| writes_reg(w.instr, Reg::R24));
                        if !(staged_r0 && staged_r24) {
                            return Err(VerifyError::StoreCheckBypass { addr: slot.addr });
                        }
                    }
                }
            }
            if let Some(addr) = block.falls_off {
                return Err(VerifyError::FallsOffEnd { addr });
            }
        }
        Ok(())
    }
}
