//! Interprocedural dataflow certification of stores.
//!
//! The run-time cost model of the whole system is the per-store check: the
//! UMPU memory-map checker arbitrates every `ST`/`STD`/`STS`, and the SFI
//! rewriter turns each one into a ~75-cycle stub call. This pass is the
//! static counterpart: an abstract interpretation over the reconstructed
//! [`Cfg`] that tracks, per register, a value interval and a provenance
//! tag, and certifies every store it can *prove* lands inside the module's
//! own statically granted segment. The loader turns the resulting
//! [`StoreCertificate`] into run-time check elision (see `DESIGN.md` §7).
//!
//! ## The lattice
//!
//! Each of the 32 registers carries an [`Interval`] `[lo, hi]` over `u8`
//! (join = convex hull, ⊤ = `[0, 255]`) and a [`Provenance`]:
//!
//! * [`Provenance::Imm`] — the value derives from immediates only
//!   (`ldi`/`clr` chains closed under `mov`/`movw`/modelled arithmetic);
//! * [`Provenance::Frame`] — the value derives from the stack pointer
//!   (`in r, SPL/SPH`). Frame-relative pointers are *tracked* but never
//!   certified: the certified stack bound is a dynamic quantity (it moves
//!   with every cross-domain call), so no static interval can prove a
//!   frame-relative store safe — the dynamic stack-bound check stays;
//! * [`Provenance::Unknown`] — anything else (loads, I/O, clobbers).
//!
//! A 16-bit pointer is read as the composition of its two byte intervals:
//! if `lo ∈ [a,b]` and `hi ∈ [c,d]` then the pointer lies in
//! `[a + (c<<8), b + (d<<8)]` — a sound convex superset even when the two
//! bytes are correlated. `adiw`/`sbiw` are modelled exactly on that 16-bit
//! view (falling to ⊤ on possible wrap); `subi`/`sbci`-style carry chains
//! widen to ⊤ unless the no-borrow case is provable.
//!
//! The interval lattice has finite height (each bound moves monotonically
//! through at most 256 values), so the worklist terminates without
//! widening.
//!
//! ## Interprocedural model
//!
//! Analysis roots are the module origin, the declared entries and every
//! intra-module call target, each entered with ⊤ (sound for any caller).
//! A call site continues to the next instruction with the callee's
//! *written-register summary* havocked: summaries are the transitive
//! closure of per-function clobber sets over the [`Cfg::calls`] edges
//! (recursion or a call to an unknown target saturates to
//! "clobbers everything"). Calls that leave the module havoc every
//! register — with two allow-listed exceptions supplied by the caller
//! ([`DataflowConfig::transparent_calls`] for register-preserving stubs
//! like `harbor_save_ret`, [`DataflowConfig::pointer_clobber_calls`] for
//! the SFI store-check stubs, which preserve everything except the pointer
//! pairs they may post-increment).
//!
//! ## What gets certified
//!
//! * `STS k` — iff `k` lies inside the segment (no register state needed);
//! * `ST ptr` (plain mode) — iff the pointer's 16-bit interval is inside
//!   the segment. Post-increment/pre-decrement modes are never certified:
//!   their net address sequence depends on loop trip counts the interval
//!   domain cannot see;
//! * `STD ptr+q` — iff the displaced interval (no 16-bit wrap) is inside
//!   the segment;
//! * `PUSH` — never (the run-time stack is policed by the dynamic
//!   stack-bound rule, not the memory map).
//!
//! Certification is decided on the *fixpoint* state, so a store is marked
//! only if **every** path reaching it proves containment. Unreachable
//! stores are left uncertified (they count against the elision rate — the
//! certificate makes claims about executions, and an unreachable store has
//! none to claim about).

use crate::cfg::{rel_target, Cfg, Slot};
use crate::verify::written_regs;
use avr_core::isa::{Instr, Ptr, PtrMode, Reg};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A convex range of `u8` values a register may hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: u8,
    /// Largest possible value.
    pub hi: u8,
}

impl Interval {
    /// The unconstrained interval, ⊤.
    pub const TOP: Interval = Interval { lo: 0, hi: 0xff };

    /// The singleton interval `[k, k]`.
    pub const fn exact(k: u8) -> Interval {
        Interval { lo: k, hi: k }
    }

    /// Convex hull of two intervals (the lattice join).
    pub fn join(self, o: Interval) -> Interval {
        Interval { lo: self.lo.min(o.lo), hi: self.hi.max(o.hi) }
    }

    /// Is this the unconstrained interval?
    pub const fn is_top(self) -> bool {
        self.lo == 0 && self.hi == 0xff
    }
}

/// Where a register's value came from (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Derived from immediates only — certifiable.
    Imm,
    /// Derived from the stack pointer — tracked, never certified.
    Frame,
    /// Anything else.
    Unknown,
}

impl Provenance {
    fn join(self, o: Provenance) -> Provenance {
        if self == o {
            self
        } else {
            Provenance::Unknown
        }
    }
}

/// Abstract value of one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AbsReg {
    iv: Interval,
    prov: Provenance,
}

impl AbsReg {
    const TOP: AbsReg = AbsReg { iv: Interval::TOP, prov: Provenance::Unknown };

    fn join(self, o: AbsReg) -> AbsReg {
        AbsReg { iv: self.iv.join(o.iv), prov: self.prov.join(o.prov) }
    }
}

/// Abstract machine state: one [`AbsReg`] per register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct State {
    regs: [AbsReg; 32],
}

impl State {
    const TOP: State = State { regs: [AbsReg::TOP; 32] };

    fn join_into(&mut self, o: &State) -> bool {
        let mut changed = false;
        for i in 0..32 {
            let j = self.regs[i].join(o.regs[i]);
            if j != self.regs[i] {
                self.regs[i] = j;
                changed = true;
            }
        }
        changed
    }

    fn get(&self, r: Reg) -> AbsReg {
        self.regs[r.index() as usize]
    }

    fn set(&mut self, r: Reg, v: AbsReg) {
        self.regs[r.index() as usize] = v;
    }

    fn havoc(&mut self, r: Reg) {
        self.set(r, AbsReg::TOP);
    }

    fn havoc_mask(&mut self, mut mask: u32) {
        while mask != 0 {
            self.regs[mask.trailing_zeros() as usize] = AbsReg::TOP;
            mask &= mask - 1;
        }
    }

    /// Sound 16-bit interval of a `hi:lo` register pair.
    fn pair16(&self, lo: Reg, hi: Reg) -> (u16, u16, Provenance) {
        let l = self.get(lo);
        let h = self.get(hi);
        (
            (l.iv.lo as u16) | ((h.iv.lo as u16) << 8),
            (l.iv.hi as u16) | ((h.iv.hi as u16) << 8),
            l.prov.join(h.prov),
        )
    }

    /// Writes a 16-bit interval back into a `hi:lo` pair, decomposing it
    /// into sound byte intervals.
    fn set_pair16(&mut self, lo: Reg, hi: Reg, lo16: u16, hi16: u16, prov: Provenance) {
        let (lb, hb) = if lo16 >> 8 == hi16 >> 8 {
            // Same high byte everywhere: the low byte is itself an interval.
            (
                Interval { lo: (lo16 & 0xff) as u8, hi: (hi16 & 0xff) as u8 },
                Interval::exact((lo16 >> 8) as u8),
            )
        } else {
            (Interval::TOP, Interval { lo: (lo16 >> 8) as u8, hi: (hi16 >> 8) as u8 })
        };
        self.set(lo, AbsReg { iv: lb, prov });
        self.set(hi, AbsReg { iv: hb, prov });
    }
}

/// Register clobber mask of one instruction — an *over*-approximation of
/// the registers it may write (contrast [`written_regs`], which is the deep
/// verifier's under-approximation: it deliberately omits pointer
/// post-increments because a `st X+` does not *stage* a value). Calls are
/// handled separately by the interprocedural layer.
fn clobber_mask(i: Instr) -> u32 {
    let mut m = written_regs(i);
    // Pointer-updating addressing modes write the pair as a side effect.
    match i {
        Instr::Ld { ptr, mode, .. } | Instr::St { ptr, mode, .. } if mode != PtrMode::Plain => {
            m |= 1 << ptr.lo().index();
            m |= 1 << ptr.hi().index();
        }
        Instr::Lpm { inc: true, .. } | Instr::Elpm { inc: true, .. } => {
            m |= 1 << Ptr::Z.lo().index();
            m |= 1 << Ptr::Z.hi().index();
        }
        _ => {}
    }
    m
}

const ALL_REGS: u32 = u32::MAX;
const PTR_PAIRS: u32 = 0b1111_1100u32 << 24; // r26..r31 = X, Y, Z

/// What the pass needs to know beyond the CFG itself.
#[derive(Debug, Clone, Default)]
pub struct DataflowConfig {
    /// First byte of the module's statically granted segment.
    pub seg_base: u16,
    /// Segment length in bytes (0 ⇒ nothing is certifiable).
    pub seg_len: u16,
    /// Out-of-module call targets that preserve *all* registers
    /// (`harbor_save_ret`). Empty for original (UMPU) images.
    pub transparent_calls: BTreeSet<u32>,
    /// Out-of-module call targets that preserve everything except the
    /// pointer pairs (the SFI store-check stubs, whose post-increment
    /// variants advance X/Y/Z).
    pub pointer_clobber_calls: BTreeSet<u32>,
}

impl DataflowConfig {
    /// Configuration for an original (stub-free) module image granted
    /// `[seg_base, seg_base + seg_len)`.
    pub fn for_segment(seg_base: u16, seg_len: u16) -> DataflowConfig {
        DataflowConfig { seg_base, seg_len, ..DataflowConfig::default() }
    }

    fn seg_contains(&self, lo: u16, hi: u16) -> bool {
        let end = self.seg_base as u32 + self.seg_len as u32;
        self.seg_len > 0 && lo >= self.seg_base && (hi as u32) < end
    }
}

/// The per-PC store-safety certificate for one module image.
///
/// A set bit at word address `pc` asserts: *every* dynamic execution of
/// the store instruction at `pc`, in any reachable machine state of the
/// module, writes inside the module's own segment — so the run-time
/// memory-map check at that PC is redundant and may be elided. The
/// certificate is deterministic for a given image ([`StoreCertificate::digest`]
/// pins that in CI) and is invalidated with the image itself (the host's
/// `flash_generation`, exactly like a decoded turbo image).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreCertificate {
    origin: u32,
    len: u32,
    bits: Vec<u64>,
    /// Store instructions in the image (`ST`/`STD`/`STS`, reachable or not).
    pub total_stores: u32,
    /// Stores proven safe (always ≤ `total_stores`).
    pub certified_stores: u32,
    /// FNV-1a digest over origin, length and the bitmap — equal digests ⇔
    /// equal certificates, which `harbor_prove`'s determinism test compares.
    pub digest: u64,
}

impl StoreCertificate {
    /// Is the store at word address `pc` statically proven safe?
    pub fn certified(&self, pc: u32) -> bool {
        match pc.checked_sub(self.origin) {
            Some(off) if off < self.len => self.bits[(off / 64) as usize] & (1 << (off % 64)) != 0,
            _ => false,
        }
    }

    /// First word address the certificate covers.
    pub const fn origin(&self) -> u32 {
        self.origin
    }

    /// Number of words covered.
    pub const fn len(&self) -> u32 {
        self.len
    }

    /// Whether the image was empty.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Word addresses of every certified store, in order.
    pub fn certified_pcs(&self) -> Vec<u32> {
        (self.origin..self.origin + self.len).filter(|&pc| self.certified(pc)).collect()
    }

    /// Fraction of stores proven safe (0.0 when the image has none).
    pub fn elision_rate(&self) -> f64 {
        if self.total_stores == 0 {
            0.0
        } else {
            self.certified_stores as f64 / self.total_stores as f64
        }
    }

    fn finish(mut self) -> StoreCertificate {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        eat(self.origin as u64);
        eat(self.len as u64);
        for &w in &self.bits {
            eat(w);
        }
        self.digest = h;
        self
    }
}

/// A [`harbor_sfi::VerifierConfig`] for analysing *original* (stub-free)
/// module images, as loaded under UMPU or no protection: nothing is
/// allow-listed and the cross-domain-stub sentinel is unmatchable, so
/// [`Cfg::build`] folds no inline operands.
pub fn plain_verifier_config() -> harbor_sfi::VerifierConfig {
    harbor_sfi::VerifierConfig {
        jt_base: 0,
        jt_end: 0,
        allowed_call_stubs: BTreeSet::new(),
        allowed_jump_stubs: BTreeSet::new(),
        xdom_call_stub: u32::MAX,
        certified_raw_stores: BTreeSet::new(),
    }
}

/// Builds the CFG of an original (stub-free) module image and certifies
/// its stores against `[seg_base, seg_base + seg_len)`. This is the UMPU
/// admission path; rewritten SFI images go through
/// [`crate::CfgVerifier::certify_stores`], which knows the stub roles.
///
/// # Errors
///
/// Only the decode-level errors from [`Cfg::build`].
pub fn certify_module_stores(
    words: &[u16],
    origin: u32,
    entries: &[u32],
    seg_base: u16,
    seg_len: u16,
) -> Result<StoreCertificate, harbor_sfi::VerifyError> {
    let cfg = Cfg::build(words, origin, entries, &plain_verifier_config())?;
    Ok(certify_stores(&cfg, &DataflowConfig::for_segment(seg_base, seg_len)))
}

/// Runs the interprocedural pass over a reconstructed CFG and certifies
/// its stores against the segment in `dc`.
pub fn certify_stores(cfg: &Cfg, dc: &DataflowConfig) -> StoreCertificate {
    // Each slot's register effect, computed once: the clobber mask of a
    // local instruction, or the havoc mask of a call (which needs the
    // callee summaries, themselves built from the local masks).
    let mut masks: Vec<u32> = cfg.slots.iter().map(|s| clobber_mask(s.instr)).collect();
    let summaries = function_summaries(cfg, dc, &masks);
    for (mask, slot) in masks.iter_mut().zip(&cfg.slots) {
        if let Some(havoc) = call_havoc(slot, cfg, dc, &summaries) {
            *mask = havoc;
        }
    }
    let succs: Vec<Vec<usize>> = cfg
        .blocks
        .iter()
        .map(|b| b.succs.iter().map(|&t| cfg.block_idx(t).expect("successor is a block")).collect())
        .collect();

    // ── fixpoint over block-entry states ────────────────────────────────
    // Roots: origin, declared entries and intra-module call targets, all ⊤.
    let mut entry: Vec<Option<State>> = vec![None; cfg.blocks.len()];
    let mut work: VecDeque<usize> = VecDeque::new();
    let mut seed = |start: u32| {
        if let Some(bi) = cfg.block_idx(start) {
            if entry[bi].is_none() {
                entry[bi] = Some(State::TOP);
                work.push_back(bi);
            }
        }
    };
    if !cfg.slots.is_empty() {
        seed(cfg.origin);
    }
    for &e in &cfg.entries {
        seed(e);
    }
    for c in &cfg.calls {
        seed(c.to);
    }

    while let Some(bi) = work.pop_front() {
        let mut st = entry[bi].expect("queued blocks have an entry state");
        let (lo, hi) = cfg.blocks[bi].slots;
        for (slot, &mask) in cfg.slots[lo..hi].iter().zip(&masks[lo..hi]) {
            transfer(&mut st, slot.instr, mask);
        }
        for &succ in &succs[bi] {
            match &mut entry[succ] {
                Some(existing) => {
                    if existing.join_into(&st) {
                        work.push_back(succ);
                    }
                }
                none => {
                    *none = Some(st);
                    work.push_back(succ);
                }
            }
        }
    }

    // ── certification pass on the fixpoint ──────────────────────────────
    let len = cfg.end - cfg.origin;
    let mut cert = StoreCertificate {
        origin: cfg.origin,
        len,
        bits: vec![0u64; len.div_ceil(64) as usize],
        total_stores: 0,
        certified_stores: 0,
        digest: 0,
    };
    for slot in &cfg.slots {
        if matches!(slot.instr, Instr::St { .. } | Instr::Std { .. } | Instr::Sts { .. }) {
            cert.total_stores += 1;
        }
    }
    for (block, st0) in cfg.blocks.iter().zip(&entry) {
        let Some(mut st) = *st0 else { continue };
        let (lo, hi) = block.slots;
        for (slot, &mask) in cfg.slots[lo..hi].iter().zip(&masks[lo..hi]) {
            if store_is_safe(&st, slot.instr, dc) {
                let off = slot.addr - cfg.origin;
                cert.bits[(off / 64) as usize] |= 1 << (off % 64);
                cert.certified_stores += 1;
            }
            transfer(&mut st, slot.instr, mask);
        }
    }
    cert.finish()
}

/// Can the store execute only inside the segment, given the pre-state?
fn store_is_safe(st: &State, i: Instr, dc: &DataflowConfig) -> bool {
    match i {
        Instr::Sts { k, .. } => dc.seg_contains(k, k),
        Instr::St { ptr, mode: PtrMode::Plain, .. } => {
            let (lo, hi, prov) = st.pair16(ptr.lo(), ptr.hi());
            prov == Provenance::Imm && dc.seg_contains(lo, hi)
        }
        Instr::Std { ptr, q, .. } => {
            let (lo, hi, prov) = st.pair16(ptr.lo(), ptr.hi());
            let (dlo, dhi) = (lo as u32 + q as u32, hi as u32 + q as u32);
            prov == Provenance::Imm && dhi <= 0xffff && dc.seg_contains(dlo as u16, dhi as u16)
        }
        // Post-inc/pre-dec stores and pushes are never certified.
        _ => false,
    }
}

/// The abstract transfer function for one instruction; `mask` is the
/// slot's precomputed register effect (see [`certify_stores`]).
fn transfer(st: &mut State, i: Instr, mask: u32) {
    match i {
        // Calls: the callee decides what survives.
        Instr::Call { .. } | Instr::Rcall { .. } | Instr::Icall => st.havoc_mask(mask),
        _ => apply_local(st, i, mask),
    }
}

/// What a call slot havocs: the callee's summary for an intra-module call,
/// nothing for a transparent stub, the pointer pairs for a store-check
/// stub, everything otherwise (cross-domain, `icall`, kernel, unknown).
/// `None` for a slot that is not a call.
fn call_havoc(
    slot: &Slot,
    cfg: &Cfg,
    dc: &DataflowConfig,
    summaries: &BTreeMap<u32, u32>,
) -> Option<u32> {
    let target = match slot.instr {
        Instr::Call { k } if slot.xdom_operand.is_none() => Some(k),
        Instr::Rcall { k } => Some(rel_target(slot.addr, k)),
        Instr::Call { .. } /* xdom inline-operand form */ | Instr::Icall => None,
        _ => return None,
    };
    Some(match target {
        Some(t) if (cfg.origin..cfg.end).contains(&t) => {
            summaries.get(&t).copied().unwrap_or(ALL_REGS)
        }
        Some(t) if dc.transparent_calls.contains(&t) => 0,
        Some(t) if dc.pointer_clobber_calls.contains(&t) => PTR_PAIRS,
        _ => ALL_REGS,
    })
}

/// Non-call instructions: modelled precisely where profitable, otherwise
/// havocked via their [`clobber_mask`], passed in as `clobber`.
fn apply_local(st: &mut State, i: Instr, clobber: u32) {
    use Instr::*;
    match i {
        Ldi { d, k } => st.set(d, AbsReg { iv: Interval::exact(k), prov: Provenance::Imm }),
        Mov { d, r } => {
            let v = st.get(r);
            st.set(d, v);
        }
        Movw { d, r } => {
            let lo = st.get(r);
            let hi = st.get(Reg::num(r.index() + 1));
            st.set(d, lo);
            st.set(Reg::num(d.index() + 1), hi);
        }
        Eor { d, r } if d == r => {
            // `clr d` — the canonical zero idiom.
            st.set(d, AbsReg { iv: Interval::exact(0), prov: Provenance::Imm });
        }
        Inc { d } => {
            let v = st.get(d);
            let iv = if v.iv.hi < 0xff {
                Interval { lo: v.iv.lo + 1, hi: v.iv.hi + 1 }
            } else {
                Interval::TOP
            };
            st.set(d, AbsReg { iv, prov: v.prov });
        }
        Dec { d } => {
            let v = st.get(d);
            let iv = if v.iv.lo > 0 {
                Interval { lo: v.iv.lo - 1, hi: v.iv.hi - 1 }
            } else {
                Interval::TOP
            };
            st.set(d, AbsReg { iv, prov: v.prov });
        }
        Subi { d, k } => {
            let v = st.get(d);
            let iv = if v.iv.lo >= k {
                Interval { lo: v.iv.lo - k, hi: v.iv.hi - k }
            } else {
                Interval::TOP // possible borrow: the wrap leaves the hull
            };
            st.set(d, AbsReg { iv, prov: v.prov });
        }
        Andi { d, k } => {
            let v = st.get(d);
            st.set(d, AbsReg { iv: Interval { lo: 0, hi: v.iv.hi.min(k) }, prov: v.prov });
        }
        Ori { d, k } => {
            let v = st.get(d);
            st.set(d, AbsReg { iv: Interval { lo: v.iv.lo.max(k), hi: 0xff }, prov: v.prov });
        }
        Add { d, r } => {
            let a = st.get(d);
            let b = st.get(r);
            let hi = a.iv.hi as u16 + b.iv.hi as u16;
            let iv = if hi <= 0xff {
                Interval { lo: a.iv.lo + b.iv.lo, hi: hi as u8 }
            } else {
                Interval::TOP
            };
            st.set(d, AbsReg { iv, prov: a.prov.join(b.prov) });
        }
        Adiw { p, k } | Sbiw { p, k } => {
            let (lo16, hi16, prov) = st.pair16(p.lo(), p.hi());
            let sub = matches!(i, Sbiw { .. });
            let (nlo, nhi) = if sub {
                if lo16 >= k as u16 {
                    (lo16 - k as u16, hi16 - k as u16)
                } else {
                    (0, 0xffff)
                }
            } else if hi16 as u32 + k as u32 <= 0xffff {
                (lo16 + k as u16, hi16 + k as u16)
            } else {
                (0, 0xffff)
            };
            if (nlo, nhi) == (0, 0xffff) {
                st.havoc(p.lo());
                st.havoc(p.hi());
            } else {
                st.set_pair16(p.lo(), p.hi(), nlo, nhi, prov);
            }
        }
        In { d, a } if a == 0x3d || a == 0x3e => {
            // SPL/SPH: a frame-derived byte — tracked, never certifiable.
            st.set(d, AbsReg { iv: Interval::TOP, prov: Provenance::Frame });
        }
        _ => st.havoc_mask(clobber),
    }
}

/// Transitive written-register summaries, one per intra-module call
/// target, over the CFG's call edges. A function's summary covers its own
/// straight-line clobbers plus (transitively) everything its callees
/// clobber; any call that leaves the module — or any recursion, since the
/// fixpoint only grows — saturates toward [`ALL_REGS`]. `clobbers` holds
/// each slot's [`clobber_mask`].
fn function_summaries(cfg: &Cfg, dc: &DataflowConfig, clobbers: &[u32]) -> BTreeMap<u32, u32> {
    let targets: BTreeSet<u32> = cfg.calls.iter().map(|c| c.to).collect();
    if targets.is_empty() {
        return BTreeMap::new();
    }

    // Intraprocedural block set of each function: blocks reachable from
    // its entry block along successor edges (calls fall through, so this
    // over-covers shared tails — harmless, the mask only grows).
    let mut summaries: BTreeMap<u32, u32> = BTreeMap::new();
    let mut members: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for &f in &targets {
        let Some(entry) = cfg.block_idx(f) else {
            // A call to a mid-instruction address — the linear verifier
            // rejects it, but stay sound regardless.
            summaries.insert(f, ALL_REGS);
            members.insert(f, Vec::new());
            continue;
        };
        let mut seen = vec![false; cfg.blocks.len()];
        let mut stack: Vec<usize> = vec![entry];
        while let Some(bi) = stack.pop() {
            if std::mem::replace(&mut seen[bi], true) {
                continue;
            }
            stack.extend(cfg.blocks[bi].succs.iter().filter_map(|&t| cfg.block_idx(t)));
        }
        let blocks: Vec<usize> = (0..seen.len()).filter(|&bi| seen[bi]).collect();
        let mut mask = 0u32;
        for &bi in &blocks {
            let (lo, hi) = cfg.blocks[bi].slots;
            for (slot, &clobber) in cfg.slots[lo..hi].iter().zip(&clobbers[lo..hi]) {
                match slot.instr {
                    Instr::Call { .. } | Instr::Rcall { .. } | Instr::Icall => {} // below
                    _ => mask |= clobber,
                }
            }
        }
        summaries.insert(f, mask);
        members.insert(f, blocks);
    }

    // Propagate callee masks to fixpoint (≤ 32 bits per function, so this
    // converges in a handful of rounds).
    loop {
        let mut changed = false;
        for &f in &targets {
            let mut mask = summaries[&f];
            for &bi in &members[&f] {
                let (lo, hi) = cfg.blocks[bi].slots;
                for slot in &cfg.slots[lo..hi] {
                    mask |= call_havoc(slot, cfg, dc, &summaries).unwrap_or(0);
                }
            }
            if mask != summaries[&f] {
                summaries.insert(f, mask);
                changed = true;
            }
        }
        if !changed {
            return summaries;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_join_is_convex_hull() {
        let a = Interval { lo: 3, hi: 5 };
        let b = Interval { lo: 10, hi: 12 };
        assert_eq!(a.join(b), Interval { lo: 3, hi: 12 });
        assert!(Interval::TOP.is_top());
    }

    #[test]
    fn pair_decomposition_round_trips_exact_pointers() {
        let mut st = State::TOP;
        st.set_pair16(Reg::XL, Reg::XH, 0x0310, 0x0310, Provenance::Imm);
        let (lo, hi, prov) = st.pair16(Reg::XL, Reg::XH);
        assert_eq!((lo, hi), (0x0310, 0x0310));
        assert_eq!(prov, Provenance::Imm);
    }

    #[test]
    fn clobber_mask_covers_pointer_side_effects() {
        let m = clobber_mask(Instr::St { ptr: Ptr::X, mode: PtrMode::PostInc, r: Reg::R0 });
        assert_ne!(m & (1 << 26), 0, "st X+ clobbers XL");
        assert_ne!(m & (1 << 27), 0, "st X+ clobbers XH");
        let m = clobber_mask(Instr::St { ptr: Ptr::X, mode: PtrMode::Plain, r: Reg::R0 });
        assert_eq!(m, 0, "plain st writes no registers");
    }
}
