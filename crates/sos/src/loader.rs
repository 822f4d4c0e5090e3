//! The module loader and cross-domain linker: assembles module sources into
//! their flash slots, builds the per-domain jump tables, and — under SFI —
//! rewrites and verifies each binary before accepting it.

use crate::kernel::JtEntry;
use crate::layout::SosLayout;
use crate::system::Protection;
use avr_asm::{Asm, Object};
use avr_core::isa::{self, Instr};
use harbor::DomainId;
use harbor_flow::{Cfg, CfgVerifier, StoreCertificate};
use harbor_sfi::{rewrite_with_elision, verify, SfiRuntime, VerifierConfig, VerifyError};
use std::collections::BTreeSet;
use std::fmt;

/// Build-time context handed to module source code.
///
/// Modules are written once and run unmodified under all three protection
/// builds: inter-domain calls always target jump-table entries (plain
/// redirections under `None`, hardware-tracked under UMPU, rewritten into
/// the cross-domain stub under SFI).
#[derive(Debug, Clone, Copy)]
pub struct ModuleCtx {
    /// The system layout.
    pub layout: SosLayout,
    /// This module's domain.
    pub domain: DomainId,
    /// This module's static 32-byte state segment.
    pub state_addr: u16,
}

impl ModuleCtx {
    /// Emits a call to a kernel API function (through the trusted domain's
    /// jump table).
    pub fn call_kernel(&self, a: &mut Asm, f: JtEntry) {
        a.call_abs(self.layout.jt_entry(7, f as u16) as u32);
    }

    /// Emits a call to another module's exported function.
    pub fn call_module(&self, a: &mut Asm, dom: DomainId, entry: u16) {
        a.call_abs(self.layout.jt_entry(dom.index(), entry) as u32);
    }
}

/// A module body generator.
pub type ModuleBuilder = Box<dyn Fn(&mut Asm, &ModuleCtx)>;

/// A module's source: its domain, exported entry labels (jump-table entries
/// 0, 1, …) and a code generator.
pub struct ModuleSource {
    /// Human-readable name.
    pub name: &'static str,
    /// The domain the module is loaded into (0..=6).
    pub domain: DomainId,
    /// Label names of the exported functions, in jump-table-entry order.
    /// Entry 0 is the message handler (called with the message type in
    /// `r24`).
    pub entries: Vec<&'static str>,
    /// Emits the module body.
    pub build: ModuleBuilder,
}

impl fmt::Debug for ModuleSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModuleSource")
            .field("name", &self.name)
            .field("domain", &self.domain)
            .field("entries", &self.entries)
            .finish()
    }
}

/// A module ready to burn into flash.
#[derive(Debug, Clone)]
pub struct LoadedModule {
    /// Name, from the source.
    pub name: &'static str,
    /// Domain.
    pub domain: DomainId,
    /// Final machine code (rewritten under SFI).
    pub object: Object,
    /// Absolute word addresses of the exported entries (post-rewrite).
    pub entry_addrs: Vec<u32>,
}

/// Admission policy the loader applies to SFI modules *before* they are
/// burned into flash.
///
/// The certified stack bound comes from `harbor-flow`'s abstract
/// interpretation, so a module that would eventually overflow the shared
/// safe-stack region is rejected at load time with a typed error instead
/// of faulting at an arbitrary call depth at run time. Only the SFI build
/// is gated (the other builds have no safe stack to protect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadPolicy {
    /// Most certified safe-stack bytes a single module may demand
    /// (inbound cross-domain frame included). A saturated certificate —
    /// recursion, prologue re-entry, computed transfers — always exceeds
    /// this.
    pub safe_stack_allotment: u16,
    /// Also run the flow-sensitive deep verifier (`CfgVerifier`), not just
    /// the linear scan, before accepting the module.
    pub deep_verify: bool,
    /// Leave stores *raw* (no store-check stub) when the dataflow pass
    /// (`harbor-flow`'s `StoreCertificate`) proves they land inside the
    /// module's own state segment. The admission gate independently
    /// re-derives the certificate on the rewritten image and rejects any
    /// raw store it cannot prove — elision never widens what a module can
    /// write, it only removes checks on stores that could never fault.
    pub elide_certified: bool,
}

impl LoadPolicy {
    /// A policy with the given allotment, deep verification on, and store
    /// elision off.
    pub const fn with_allotment(safe_stack_allotment: u16) -> LoadPolicy {
        LoadPolicy { safe_stack_allotment, deep_verify: true, elide_certified: false }
    }

    /// The same policy with certified-store elision enabled.
    pub const fn with_elision(mut self) -> LoadPolicy {
        self.elide_certified = true;
        self
    }
}

/// Loading failed.
#[derive(Debug)]
pub enum LoadError {
    /// The module does not fit its flash slot.
    SlotOverflow {
        /// Module name.
        name: &'static str,
        /// Size in words after (any) rewriting.
        words: u32,
        /// Slot capacity in words.
        capacity: u32,
    },
    /// The SFI rewriter rejected the module.
    Rewrite(harbor_sfi::RewriteError),
    /// The SFI verifier rejected the (rewritten) module.
    Verify(harbor_sfi::VerifyError),
    /// The module's certified worst-case stack demand exceeds the load
    /// policy's safe-stack allotment (`certified == u16::MAX` means the
    /// analysis found no finite bound at all).
    StackBound {
        /// Module name.
        name: String,
        /// Certified safe-stack bytes.
        certified: u16,
        /// The policy's allotment.
        allotment: u16,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::SlotOverflow { name, words, capacity } => {
                write!(f, "module `{name}`: {words} words exceed the {capacity}-word slot")
            }
            LoadError::Rewrite(e) => write!(f, "rewriter rejected module: {e}"),
            LoadError::Verify(e) => write!(f, "verifier rejected module: {e}"),
            LoadError::StackBound { name, certified, allotment } => {
                write!(
                    f,
                    "module `{name}`: certified safe-stack demand {certified}B \
                     exceeds the {allotment}B allotment"
                )
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Applies `policy` to an already-verified SFI module image: optionally
/// the deep verifier, always the certified-stack-bound gate, and — when
/// the image contains raw stores — the claimed-⊆-derived store gate. This
/// is the single admission point — the local loader and `harbor-fleet`'s
/// dissemination install path both call it, so a module rejected here
/// never reaches flash by either route.
///
/// `state_seg` is `(base, len)` of the module's own state segment: the
/// only region a raw store may be statically certified against. Any raw
/// store the *re-derived* certificate does not cover — or any raw store at
/// all when the policy has elision off — is rejected as
/// [`harbor_sfi::VerifyError::RawStore`], so correctness never depends on
/// whoever produced (or rewrote) the image.
///
/// The verifier for `rt`'s layout comes from the process-wide memo
/// ([`CfgVerifier::shared`]); the image's CFG is reconstructed once and
/// [`check_policy_cfg`] runs over it.
///
/// # Errors
///
/// [`LoadError::Verify`] from the deep verifier or the store gate, or
/// [`LoadError::StackBound`] when the certificate exceeds the allotment
/// (or is saturated).
pub fn check_policy(
    policy: &LoadPolicy,
    name: &str,
    words: &[u16],
    origin: u32,
    entries: &[u32],
    rt: &SfiRuntime,
    state_seg: (u16, u16),
) -> Result<(), LoadError> {
    let verifier = &*CfgVerifier::shared(*rt.layout(), rt.object().origin());
    let cfg = verifier.cfg(words, origin, entries).map_err(|e| {
        // An image that does not decode is still refused for a raw store
        // ahead of the undecodable word first when elision is off.
        match harbor_sfi::raw_stores(words, origin, verifier.config()).first() {
            Some(&addr) if !policy.elide_certified => {
                LoadError::Verify(VerifyError::RawStore { addr })
            }
            _ => LoadError::Verify(e),
        }
    })?;
    let stores = || verifier.certify_cfg_stores(&cfg, state_seg.0, state_seg.1);
    check_policy_cfg(policy, name, words, entries, &cfg, verifier, stores)
}

/// [`check_policy`] over `cfg`, which must be
/// [`CfgVerifier::cfg`]`(words, origin, entries)`: the store gate, the
/// deep verifier and the stack certificate all run over this one CFG.
/// `stores` yields the image's store certificate against its state segment
/// ([`CfgVerifier::certify_cfg_stores`] on `cfg`); it is called only when
/// the image has raw stores and the policy allows them.
///
/// # Errors
///
/// Same as [`check_policy`].
pub fn check_policy_cfg(
    policy: &LoadPolicy,
    name: &str,
    words: &[u16],
    entries: &[u32],
    cfg: &Cfg,
    verifier: &CfgVerifier,
    stores: impl FnOnce() -> StoreCertificate,
) -> Result<(), LoadError> {
    // The CFG decoded every word, so its store slots are exactly
    // `harbor_sfi::raw_stores`.
    let raw: BTreeSet<u32> = cfg
        .slots
        .iter()
        .filter(|s| matches!(s.instr, Instr::St { .. } | Instr::Std { .. } | Instr::Sts { .. }))
        .map(|s| s.addr)
        .collect();
    let allowed;
    let mut verifier = verifier;
    if let Some(&first) = raw.first() {
        if !policy.elide_certified {
            return Err(LoadError::Verify(VerifyError::RawStore { addr: first }));
        }
        let stores = stores();
        if let Some(&addr) = raw.iter().find(|&&addr| !stores.certified(addr)) {
            return Err(LoadError::Verify(VerifyError::RawStore { addr }));
        }
        allowed = verifier.clone().allowing_raw_stores(raw);
        verifier = &allowed;
    }
    if policy.deep_verify {
        verifier.verify_cfg(words, entries, cfg).map_err(LoadError::Verify)?;
    }
    let cert = harbor_flow::certify(cfg, verifier);
    if cert.saturated || cert.safe_stack_bytes > policy.safe_stack_allotment {
        return Err(LoadError::StackBound {
            name: name.to_string(),
            certified: cert.safe_stack_bytes,
            allotment: policy.safe_stack_allotment,
        });
    }
    Ok(())
}

/// Assembles (and, under SFI, sandboxes) a module into its slot.
///
/// # Errors
///
/// See [`LoadError`].
pub fn load_module(
    src: &ModuleSource,
    layout: &SosLayout,
    protection: Protection,
    runtime: Option<&SfiRuntime>,
) -> Result<LoadedModule, LoadError> {
    load_module_with_policy(src, layout, protection, runtime, None)
}

/// [`load_module`] with an optional admission policy. The policy only
/// applies to the SFI build (the gate reasons about the safe stack, which
/// the other builds do not have).
///
/// # Errors
///
/// See [`LoadError`].
pub fn load_module_with_policy(
    src: &ModuleSource,
    layout: &SosLayout,
    protection: Protection,
    runtime: Option<&SfiRuntime>,
    policy: Option<&LoadPolicy>,
) -> Result<LoadedModule, LoadError> {
    let origin = layout.slot_for(src.domain.index());
    let ctx = ModuleCtx {
        layout: *layout,
        domain: src.domain,
        state_addr: layout.state_addr(src.domain.index()),
    };
    let mut a = Asm::new();
    (src.build)(&mut a, &ctx);
    let original = a.assemble(origin).expect("module source assembles");

    let (object, entry_addrs) = match protection {
        Protection::Sfi => {
            let rt = runtime.expect("SFI build has a runtime");
            let entry_points: Vec<u32> = src.entries.iter().map(|e| original.require(e)).collect();
            let state_seg = (ctx.state_addr, layout.state_len());
            // Stores certified against the module's own state segment stay
            // raw under an eliding policy; the admission gate re-derives
            // the certificate on the *rewritten* image below, so this
            // pre-rewrite pass is an optimisation hint, not a trust root.
            let elide: std::collections::BTreeSet<u32> = match policy {
                Some(p) if p.elide_certified => harbor_flow::certify_module_stores(
                    original.words(),
                    origin,
                    &entry_points,
                    state_seg.0,
                    state_seg.1,
                )
                .map(|c| c.certified_pcs().into_iter().collect())
                .unwrap_or_default(),
                _ => std::collections::BTreeSet::new(),
            };
            let rewritten =
                rewrite_with_elision(original.words(), origin, &entry_points, origin, rt, &elide)
                    .map_err(LoadError::Rewrite)?;
            let mut vcfg = VerifierConfig::for_runtime(rt);
            vcfg.certified_raw_stores = elide.iter().map(|&a| rewritten.translated(a)).collect();
            verify(rewritten.object.words(), origin, &vcfg).map_err(LoadError::Verify)?;
            let addrs: Vec<u32> = entry_points.iter().map(|&e| rewritten.translated(e)).collect();
            if let Some(p) = policy {
                check_policy(p, src.name, rewritten.object.words(), origin, &addrs, rt, state_seg)?;
            }
            (rewritten.object, addrs)
        }
        _ => {
            let addrs = src.entries.iter().map(|e| original.require(e)).collect();
            (original, addrs)
        }
    };

    let words = object.words().len() as u32;
    if words > layout.slot_words {
        return Err(LoadError::SlotOverflow { name: src.name, words, capacity: layout.slot_words });
    }
    Ok(LoadedModule { name: src.name, domain: src.domain, object, entry_addrs })
}

/// Builds all eight jump-table pages plus the in-table error stub.
///
/// * kernel API entries fill the trusted page (domain 7);
/// * loaded modules fill their pages;
/// * everything else redirects to the error stub (`ldi r24, 0xff ; ret`) —
///   the paper's "empty entries are filled with a jump to an exception
///   routine", which in SOS's dynamic-linking failure mode surfaces as an
///   error return code.
///
/// Returns `(base_word_addr, words)` covering the whole table region.
pub fn build_jump_tables(
    layout: &SosLayout,
    kernel_api: &[(JtEntry, u32)],
    modules: &[LoadedModule],
) -> (u32, Vec<u16>) {
    let base = layout.prot.jt_base as u32;
    let total = layout.prot.jt_domains as usize * 128;
    let stub_at = layout.jt_error_stub() as u32;

    let rjmp_to = |from: u32, target: u32| -> u16 {
        let k = target as i64 - (from as i64 + 1);
        assert!((-2048..=2047).contains(&k), "jump-table rjmp out of reach");
        isa::encode(Instr::Rjmp { k: k as i16 }).expect("valid rjmp").word0()
    };

    // Default: every entry redirects to the error stub.
    let mut words: Vec<u16> = (0..total as u32).map(|i| rjmp_to(base + i, stub_at)).collect();

    // The error stub itself occupies the last two words.
    let stub_idx = (stub_at - base) as usize;
    words[stub_idx] = isa::encode(Instr::Ldi { d: isa::Reg::R24, k: 0xff }).expect("ldi").word0();
    words[stub_idx + 1] = isa::encode(Instr::Ret).expect("ret").word0();

    // Kernel API entries.
    for &(entry, target) in kernel_api {
        let at = layout.jt_entry(7, entry as u16) as u32;
        words[(at - base) as usize] = rjmp_to(at, target);
    }

    // Module entries.
    for m in modules {
        for (i, &target) in m.entry_addrs.iter().enumerate() {
            let at = layout.jt_entry(m.domain.index(), i as u16) as u32;
            words[(at - base) as usize] = rjmp_to(at, target);
        }
    }

    (base, words)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial_module(dom: u8) -> ModuleSource {
        ModuleSource {
            name: "trivial",
            domain: DomainId::num(dom),
            entries: vec!["handler"],
            build: Box::new(|a, _ctx| {
                a.here("handler");
                a.ret();
            }),
        }
    }

    #[test]
    fn load_plain_module() {
        let l = SosLayout::default_layout();
        let m = load_module(&trivial_module(2), &l, Protection::None, None).unwrap();
        assert_eq!(m.object.origin(), l.slot_for(2));
        assert_eq!(m.entry_addrs, vec![l.slot_for(2)]);
    }

    #[test]
    fn load_sfi_module_rewrites() {
        let l = SosLayout::default_layout();
        let rt = SfiRuntime::build(l.prot, l.runtime_origin);
        let m = load_module(&trivial_module(2), &l, Protection::Sfi, Some(&rt)).unwrap();
        // The handler gained a save-ret prologue and a restore-ret exit:
        // strictly more words than the single-ret original.
        assert!(m.object.words().len() > 1);
    }

    #[test]
    fn jump_tables_cover_all_domains() {
        let l = SosLayout::default_layout();
        let m = load_module(&trivial_module(0), &l, Protection::None, None).unwrap();
        let (base, words) = build_jump_tables(
            &l,
            &[(JtEntry::Malloc, l.api_origin), (JtEntry::Post, l.api_origin + 8)],
            &[m],
        );
        assert_eq!(base, l.prot.jt_base as u32);
        assert_eq!(words.len(), 1024);
        // Module entry 0 decodes to an rjmp landing on the module slot.
        let at = (l.jt_entry(0, 0) as u32 - base) as usize;
        let instr = isa::decode(words[at], None).unwrap();
        let Instr::Rjmp { k } = instr else { panic!("not an rjmp") };
        assert_eq!((l.jt_entry(0, 0) as i64 + 1 + k as i64) as u32, l.slot_for(0));
        // An unused entry redirects to the error stub.
        let unused = (l.jt_entry(4, 50) as u32 - base) as usize;
        let Instr::Rjmp { k } = isa::decode(words[unused], None).unwrap() else {
            panic!("not an rjmp")
        };
        assert_eq!((l.jt_entry(4, 50) as i64 + 1 + k as i64) as u16, l.jt_error_stub());
    }
}
