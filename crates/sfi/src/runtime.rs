//! The trusted run-time check routines, generated as real AVR machine code.
//!
//! Every routine lives in the kernel (trusted) domain; sandboxed modules
//! reach them only through the calls the rewriter plants. Violations write a
//! [`harbor::fault_code`] to the simulator panic port.
//!
//! Register discipline (this codebase's kernel ABI, a slight simplification
//! of avr-gcc's): `r0`, `r1`, `X` (r27:r26) and `Z` (r31:r30) are scratch at
//! call/return boundaries; `r1` reads as zero at module level and is
//! restored by any routine that dirties it. Store-check stubs additionally
//! preserve *everything* (including SREG) except the architectural effect of
//! the store they emulate, because the rewriter plants them at arbitrary
//! program points.

use crate::layout::SfiLayout;
use crate::memo::LayoutMemo;
use avr_asm::{Asm, Label, Object};
use avr_core::isa::{flags, IwPair, Ptr, PtrMode, Reg};
use avr_core::mem::{DataMem, Flash, PORT_PANIC, RAMEND};
use harbor::{fault_code, DomainId, MemMapConfig, MemoryMap, ProtectionFault};
use std::collections::BTreeMap;
use std::sync::Arc;

const R0: Reg = Reg::R0;
const R1: Reg = Reg::R1;
const R24: Reg = Reg::R24;
const R25: Reg = Reg::R25;
const R26: Reg = Reg::R26;
const R27: Reg = Reg::R27;
const R30: Reg = Reg::R30;
const R31: Reg = Reg::R31;
const SREG_PORT: u8 = 0x3f;
const SPL_PORT: u8 = 0x3d;
const SPH_PORT: u8 = 0x3e;

/// The generated run-time: the assembled object plus the layout it was
/// built for.
#[derive(Debug, Clone)]
pub struct SfiRuntime {
    layout: SfiLayout,
    object: Object,
    stubs: BTreeMap<&'static str, u32>,
}

/// Names of the store-check stubs, indexed by pointer register and mode.
pub fn store_stub_name(ptr: Ptr, mode: PtrMode) -> &'static str {
    match (ptr, mode) {
        (Ptr::X, PtrMode::Plain) => "harbor_st_x",
        (Ptr::X, PtrMode::PostInc) => "harbor_st_x_inc",
        (Ptr::X, PtrMode::PreDec) => "harbor_st_x_dec",
        (Ptr::Y, PtrMode::Plain) => "harbor_st_y",
        (Ptr::Y, PtrMode::PostInc) => "harbor_st_y_inc",
        (Ptr::Y, PtrMode::PreDec) => "harbor_st_y_dec",
        (Ptr::Z, PtrMode::Plain) => "harbor_st_z",
        (Ptr::Z, PtrMode::PostInc) => "harbor_st_z_inc",
        (Ptr::Z, PtrMode::PreDec) => "harbor_st_z_dec",
    }
}

impl SfiRuntime {
    /// Generates and assembles the run-time at word address `origin`
    /// (conventionally below the jump tables, inside kernel flash).
    ///
    /// # Panics
    ///
    /// Panics if the generated assembly fails to encode — a bug in this
    /// generator, not in user input.
    pub fn build(layout: SfiLayout, origin: u32) -> SfiRuntime {
        let mut a = Asm::new();
        let mut b = Builder::new(&mut a, layout);
        b.emit_all();
        let object = a.assemble(origin).expect("runtime assembles");
        let stubs = STUB_TABLE.iter().map(|&(n, _)| (n, object.require(n))).collect();
        SfiRuntime { layout, object, stubs }
    }

    /// The process-wide run-time for `(layout, origin)`: built by
    /// [`SfiRuntime::build`] on first use and shared afterwards. The
    /// generator is deterministic, so the shared value is identical to a
    /// fresh build.
    pub fn shared(layout: SfiLayout, origin: u32) -> Arc<SfiRuntime> {
        static RUNTIMES: LayoutMemo<SfiRuntime> = LayoutMemo::new();
        RUNTIMES.get_or_build(layout, origin, || SfiRuntime::build(layout, origin))
    }

    /// The layout the run-time was generated for.
    pub const fn layout(&self) -> &SfiLayout {
        &self.layout
    }

    /// The assembled object.
    pub const fn object(&self) -> &Object {
        &self.object
    }

    /// Word address of a stub by name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown stub name.
    pub fn stub(&self, name: &str) -> u32 {
        *self.stubs.get(name).unwrap_or_else(|| panic!("unknown stub `{name}`"))
    }

    /// Word address of the store-check stub for an addressing mode.
    pub fn store_stub(&self, ptr: Ptr, mode: PtrMode) -> u32 {
        self.stub(store_stub_name(ptr, mode))
    }

    /// Word address of the displaced-store stub for Y or Z.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is X (no displacement mode exists).
    pub fn displaced_store_stub(&self, ptr: Ptr) -> u32 {
        match ptr {
            Ptr::Y => self.stub("harbor_std_y"),
            Ptr::Z => self.stub("harbor_std_z"),
            Ptr::X => panic!("X has no displacement addressing"),
        }
    }

    /// All stub entry addresses (for the verifier's allow-list).
    pub fn stub_addresses(&self) -> Vec<u32> {
        self.stubs.values().copied().collect()
    }

    /// Every stub's entry address with its module-visibility role — the
    /// single classification table both the linear and the CFG verifier
    /// derive their allow-lists from.
    pub fn stub_roles(&self) -> Vec<(u32, StubRole)> {
        STUB_TABLE.iter().map(|&(n, role)| (self.stub(n), role)).collect()
    }

    /// Role of the stub whose entry is at word address `addr`, if any.
    pub fn stub_role_at(&self, addr: u32) -> Option<StubRole> {
        STUB_TABLE.iter().find(|&&(n, _)| self.stub(n) == addr).map(|&(_, role)| role)
    }

    /// Profiler classification of the run-time's flash: non-overlapping
    /// `(start, end, mechanism)` word-address regions covering the whole
    /// assembled object. The cross-domain gates (`harbor_xdom_*`) classify
    /// as [`harbor_scope::Mechanism::Crossing`]; every other stub — store
    /// checks, safe-stack return redirection, icall/ijmp checks and the
    /// shared check core — as [`harbor_scope::Mechanism::Check`]. Under SFI
    /// the checks are real instructions executed from this region, so this
    /// is what lets one profiler produce the paper's Table-5 breakdown for
    /// both builds.
    pub fn scope_regions(&self) -> Vec<(u32, u32, harbor_scope::Mechanism)> {
        use harbor_scope::Mechanism;
        let mut entries = self.stub_roles();
        entries.sort_unstable_by_key(|&(addr, _)| addr);
        let end = self.object.end();
        let mut out = Vec::with_capacity(entries.len() + 1);
        // Internal code ahead of the first named stub (the shared check
        // core) is check machinery too.
        let first = entries.first().map_or(end, |&(addr, _)| addr);
        if self.object.origin() < first {
            out.push((self.object.origin(), first, Mechanism::Check));
        }
        for (i, &(addr, role)) in entries.iter().enumerate() {
            let stop = entries.get(i + 1).map_or(end, |&(next, _)| next);
            let mech = match role {
                StubRole::XdomCall | StubRole::XdomCallZ | StubRole::XdomRet => Mechanism::Crossing,
                _ => Mechanism::Check,
            };
            if addr < stop {
                out.push((addr, stop, mech));
            }
        }
        out
    }

    /// Loads the run-time into flash and initialises the protection state
    /// in RAM: trusted domain active, stack bound at `RAMEND`, safe stack
    /// empty, memory map all-free, code-bounds table cleared.
    pub fn install(&self, flash: &mut Flash, data: &mut DataMem) {
        self.object.load_into(flash);
        let l = &self.layout;
        data.write(l.cur_dom, DomainId::TRUSTED.index()).unwrap();
        data.write(l.stack_bound, (RAMEND & 0xff) as u8).unwrap();
        data.write(l.stack_bound + 1, (RAMEND >> 8) as u8).unwrap();
        data.write(l.safe_stack_ptr, (l.safe_stack_base & 0xff) as u8).unwrap();
        data.write(l.safe_stack_ptr + 1, (l.safe_stack_base >> 8) as u8).unwrap();
        let map = MemoryMap::new(self.memmap_config());
        for (i, &byte) in map.as_bytes().iter().enumerate() {
            data.write(l.mem_map_base + i as u16, byte).unwrap();
        }
        for i in 0..32 {
            data.write(l.code_bounds + i, 0).unwrap();
        }
    }

    /// The memory-map geometry of this layout (multi-domain, block size
    /// from the layout).
    pub fn memmap_config(&self) -> MemMapConfig {
        MemMapConfig::new(
            harbor::DomainMode::Multi,
            harbor::BlockSize::new(1 << self.layout.block_log2).expect("valid block size"),
            self.layout.prot_bottom,
            self.layout.prot_top,
        )
        .expect("layout bounds are block aligned")
    }

    /// Host-side: registers `dom`'s code region in the kernel's bounds
    /// table (what the module loader does).
    pub fn set_code_bounds(&self, data: &mut DataMem, dom: DomainId, start: u16, end: u16) {
        let at = self.layout.code_bounds + dom.index() as u16 * 4;
        data.write(at, (start & 0xff) as u8).unwrap();
        data.write(at + 1, (start >> 8) as u8).unwrap();
        data.write(at + 2, (end & 0xff) as u8).unwrap();
        data.write(at + 3, (end >> 8) as u8).unwrap();
    }

    /// Host-side: golden-model view of the RAM-resident memory map.
    pub fn memory_map_view(&self, data: &DataMem) -> MemoryMap {
        let cfg = self.memmap_config();
        let bytes = (0..cfg.map_size_bytes())
            .map(|i| data.read(self.layout.mem_map_base + i).unwrap())
            .collect();
        MemoryMap::from_raw(cfg, bytes)
    }

    /// Host-side: allocates a segment in the RAM-resident memory map (what
    /// the kernel's `malloc` does in software).
    ///
    /// # Errors
    ///
    /// See [`MemoryMap::set_segment`].
    pub fn host_set_segment(
        &self,
        data: &mut DataMem,
        owner: DomainId,
        addr: u16,
        len: u16,
    ) -> Result<(), ProtectionFault> {
        let mut map = self.memory_map_view(data);
        map.set_segment(owner, addr, len)?;
        for (i, &b) in map.as_bytes().iter().enumerate() {
            data.write(self.layout.mem_map_base + i as u16, b).unwrap();
        }
        Ok(())
    }

    /// Host-side: sets the active domain variable.
    pub fn set_current_domain(&self, data: &mut DataMem, dom: DomainId) {
        data.write(self.layout.cur_dom, dom.index()).unwrap();
    }

    /// Host-side: reads the active domain variable.
    pub fn current_domain(&self, data: &DataMem) -> DomainId {
        DomainId::new(data.read(self.layout.cur_dom).unwrap() & 7).unwrap()
    }
}

/// How sandboxed module code may reference a run-time stub. This is the
/// single source of truth for the verifiers' allow-lists: a stub is a legal
/// `call` target iff [`StubRole::module_may_call`], a legal `jmp` target iff
/// [`StubRole::module_may_jump`], and never module-visible otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StubRole {
    /// A plain store-check stub (`harbor_st_*`): called with the value
    /// staged in `r0`.
    StoreCheck,
    /// A displaced store-check stub (`harbor_std_y`/`_z`): called with the
    /// value in `r0` and the displacement in `r24`.
    DisplacedStoreCheck,
    /// `harbor_save_ret`: called as the first instruction of every
    /// rewritten function.
    SaveRet,
    /// `harbor_restore_ret`: jumped to in place of `ret`.
    RestoreRet,
    /// `harbor_xdom_call`: called with an inline jump-table operand word.
    XdomCall,
    /// `harbor_xdom_call_z`: trusted kernel dispatch — never reachable
    /// from module code.
    XdomCallZ,
    /// `harbor_xdom_ret`: the return gate — never reachable from module
    /// code.
    XdomRet,
    /// `harbor_icall_check`: called in place of `icall`.
    IcallCheck,
    /// `harbor_ijmp_check`: jumped to in place of `ijmp`.
    IjmpCheck,
}

impl StubRole {
    /// May module code `call`/`rcall` a stub of this role?
    pub const fn module_may_call(self) -> bool {
        matches!(
            self,
            StubRole::StoreCheck
                | StubRole::DisplacedStoreCheck
                | StubRole::SaveRet
                | StubRole::XdomCall
                | StubRole::IcallCheck
        )
    }

    /// May module code `jmp` to a stub of this role?
    pub const fn module_may_jump(self) -> bool {
        matches!(self, StubRole::RestoreRet | StubRole::IjmpCheck)
    }

    /// Is this a store-check stub of either flavour?
    pub const fn is_store_check(self) -> bool {
        matches!(self, StubRole::StoreCheck | StubRole::DisplacedStoreCheck)
    }
}

/// Every run-time stub, with its module-visibility classification.
pub const STUB_TABLE: &[(&str, StubRole)] = &[
    ("harbor_st_x", StubRole::StoreCheck),
    ("harbor_st_x_inc", StubRole::StoreCheck),
    ("harbor_st_x_dec", StubRole::StoreCheck),
    ("harbor_st_y", StubRole::StoreCheck),
    ("harbor_st_y_inc", StubRole::StoreCheck),
    ("harbor_st_y_dec", StubRole::StoreCheck),
    ("harbor_st_z", StubRole::StoreCheck),
    ("harbor_st_z_inc", StubRole::StoreCheck),
    ("harbor_st_z_dec", StubRole::StoreCheck),
    ("harbor_std_y", StubRole::DisplacedStoreCheck),
    ("harbor_std_z", StubRole::DisplacedStoreCheck),
    ("harbor_save_ret", StubRole::SaveRet),
    ("harbor_restore_ret", StubRole::RestoreRet),
    ("harbor_xdom_call", StubRole::XdomCall),
    ("harbor_xdom_call_z", StubRole::XdomCallZ),
    ("harbor_xdom_ret", StubRole::XdomRet),
    ("harbor_icall_check", StubRole::IcallCheck),
    ("harbor_ijmp_check", StubRole::IjmpCheck),
];

/// Stateful emitter for the runtime stubs.
struct Builder<'a> {
    a: &'a mut Asm,
    l: SfiLayout,
    check_core: Label,
    xdom_call_z: Option<Label>,
}

impl<'a> Builder<'a> {
    fn new(a: &'a mut Asm, l: SfiLayout) -> Builder<'a> {
        let check_core = a.label("harbor_check_core");
        Builder { a, l, check_core, xdom_call_z: None }
    }

    /// `brlo if_lt` when `r27:r26 < k`, falls through when `>= k`.
    /// Clobbers no registers (uses two `cpi`s).
    fn branch_if_x_below(&mut self, k: u16, if_lt: Label) {
        let ge = self.a.label("x_ge");
        self.a.cpi(R27, (k >> 8) as u8);
        self.a.brlo(if_lt);
        self.a.brne(ge);
        self.a.cpi(R26, (k & 0xff) as u8);
        self.a.brlo(if_lt);
        self.a.bind(ge);
    }

    fn panic(&mut self, code: u16, reg: Reg) {
        self.a.ldi(reg, code as u8);
        self.a.out(PORT_PANIC, reg);
    }

    fn emit_all(&mut self) {
        self.emit_check_core();
        self.emit_store_stubs();
        self.emit_save_restore();
        self.emit_xdom();
        self.emit_computed_check();
    }

    /// The software memory-map checker core. Input: effective address in X.
    /// Preserves `r24` (and everything but X and r25); assumes the caller
    /// already saved SREG. Panics (never returns) on violation.
    fn emit_check_core(&mut self) {
        let l = self.l;
        let ok = self.a.label("cc_ok");
        let mapped = self.a.label("cc_mapped");
        let stack_chk = self.a.label("cc_stack");
        let kernel_viol = self.a.label("cc_kernel_viol");
        let mmap_viol = self.a.label("cc_mmap_viol");
        let bound_viol = self.a.label("cc_bound_viol");
        let no_swap = self.a.label("cc_no_swap");
        let cc_cur_dom = self.a.constant("cc_cur_dom", l.cur_dom as u32);

        let cc = self.check_core;
        self.a.bind(cc);
        self.a.push(R24);
        self.a.lds_sym(R24, cc_cur_dom);
        self.a.cpi(R24, DomainId::TRUSTED.index());
        self.a.breq(ok);
        // addr < prot_bottom → kernel-space violation.
        self.branch_if_x_below(l.prot_bottom, kernel_viol);
        // addr < prot_top → mapped region, else run-time stack.
        self.branch_if_x_below(l.prot_top, mapped);
        self.a.rjmp(stack_chk);

        // ── mapped: translate and compare owner ─────────────────────────
        self.a.bind(mapped);
        self.a.subi(R26, (l.prot_bottom & 0xff) as u8);
        self.a.sbci(R27, (l.prot_bottom >> 8) as u8);
        for _ in 0..l.block_log2 {
            // offset >> log2(block size) = block number
            self.a.lsr(R27);
            self.a.ror(R26);
        }
        self.a.bst(R26, 0); // record-select bit → T
        self.a.lsr(R27); // block >> 1 = table byte index
        self.a.ror(R26);
        let neg_base = 0u16.wrapping_sub(l.mem_map_base);
        self.a.subi(R26, (neg_base & 0xff) as u8); // X += mem_map_base
        self.a.sbci(R27, (neg_base >> 8) as u8);
        self.a.ld(R25, Ptr::X, PtrMode::Plain); // table byte
        self.a.brbc(flags::T, no_swap);
        self.a.swap(R25);
        self.a.bind(no_swap);
        self.a.andi(R25, 0x0f);
        self.a.lsr(R25); // owner = record >> 1
        self.a.cp(R25, R24); // owner == cur_dom ?
        self.a.breq(ok);
        self.a.rjmp(mmap_viol);

        // ── run-time stack: addr <= stack_bound ─────────────────────────
        self.a.bind(stack_chk);
        let sb_lo = self.a.constant("cc_bound_lo", self.l.stack_bound as u32);
        let sb_hi = self.a.constant("cc_bound_hi", self.l.stack_bound as u32 + 1);
        self.a.lds_sym(R25, sb_lo);
        self.a.cp(R26, R25);
        self.a.lds_sym(R25, sb_hi);
        self.a.cpc(R27, R25);
        self.a.brlo(ok);
        self.a.breq(ok);
        self.a.rjmp(bound_viol);

        self.a.bind(ok);
        self.a.pop(R24);
        self.a.ret();

        self.a.bind(kernel_viol);
        self.panic(fault_code::KERNEL_SPACE, R25);
        self.a.bind(mmap_viol);
        self.panic(fault_code::MEM_MAP, R25);
        self.a.bind(bound_viol);
        self.panic(fault_code::STACK_BOUND, R25);
    }

    /// Emits one store-check stub for `(ptr, mode)`. Value in `r0`.
    fn emit_store_stub(&mut self, ptr: Ptr, mode: PtrMode) {
        let name = store_stub_name(ptr, mode);
        let entry = self.a.label(name);
        self.a.bind(entry);
        // Prologue: save SREG (flags are live at arbitrary store sites).
        self.a.push(R25);
        self.a.in_(R25, SREG_PORT);
        self.a.push(R25);
        // Pre-decrement happens before the check (the store address is the
        // decremented pointer).
        if mode == PtrMode::PreDec {
            match ptr {
                Ptr::X => self.a.sbiw(IwPair::X, 1),
                Ptr::Y => self.a.sbiw(IwPair::Y, 1),
                Ptr::Z => self.a.sbiw(IwPair::Z, 1),
            }
        }
        // Effective address into X (saving the module's X).
        self.a.push(R26);
        self.a.push(R27);
        match ptr {
            Ptr::X => {}
            Ptr::Y => self.a.movw(R26, Reg::R28),
            Ptr::Z => self.a.movw(R26, R30),
        }
        self.a.rcall(self.check_core);
        self.a.pop(R27);
        self.a.pop(R26);
        // The architectural store (post-increment via the real pointer).
        match (ptr, mode) {
            (Ptr::X, PtrMode::PostInc) => self.a.st(Ptr::X, PtrMode::PostInc, R0),
            (Ptr::X, _) => self.a.st(Ptr::X, PtrMode::Plain, R0),
            (p, PtrMode::PostInc) => self.a.st(p, PtrMode::PostInc, R0),
            (p, _) => self.a.st(p, PtrMode::Plain, R0),
        }
        self.a.pop(R25);
        self.a.out(SREG_PORT, R25);
        self.a.pop(R25);
        self.a.ret();
    }

    /// Displaced-store stub (`STD Y/Z+q`): displacement in `r24`, value in
    /// `r0`. Preserves everything.
    fn emit_displaced_stub(&mut self, ptr: Ptr) {
        let name = match ptr {
            Ptr::Y => "harbor_std_y",
            Ptr::Z => "harbor_std_z",
            Ptr::X => unreachable!(),
        };
        let entry = self.a.label(name);
        self.a.bind(entry);
        self.a.push(R25);
        self.a.in_(R25, SREG_PORT);
        self.a.push(R25);
        self.a.push(R26);
        self.a.push(R27);
        let base = if ptr == Ptr::Y { Reg::R28 } else { R30 };
        // X = base + q (q in r24; check_core preserves r24).
        self.a.movw(R26, base);
        self.a.clr(R25);
        self.a.add(R26, R24);
        self.a.adc(R27, R25);
        self.a.rcall(self.check_core);
        // Recompute the effective address (check_core clobbered X) and
        // store through it; the module's pointer register is untouched.
        self.a.movw(R26, base);
        self.a.clr(R25);
        self.a.add(R26, R24);
        self.a.adc(R27, R25);
        self.a.st(Ptr::X, PtrMode::Plain, R0);
        self.a.pop(R27);
        self.a.pop(R26);
        self.a.pop(R25);
        self.a.out(SREG_PORT, R25);
        self.a.pop(R25);
        self.a.ret();
    }

    fn emit_store_stubs(&mut self) {
        for ptr in [Ptr::X, Ptr::Y, Ptr::Z] {
            for mode in [PtrMode::Plain, PtrMode::PostInc, PtrMode::PreDec] {
                self.emit_store_stub(ptr, mode);
            }
        }
        self.emit_displaced_stub(Ptr::Y);
        self.emit_displaced_stub(Ptr::Z);
    }

    /// `harbor_save_ret` / `harbor_restore_ret`: the software safe stack
    /// for function return addresses (Table 3: 38 cycles each).
    fn emit_save_restore(&mut self) {
        let l = self.l;
        // save_ret: called as the first instruction of every rewritten
        // function. Moves the caller's return address from the run-time
        // stack to the safe stack, then continues into the function.
        let save = self.a.label("harbor_save_ret");
        let sr_ok = self.a.label("sr_ok");
        let sr_ovf = self.a.label("sr_ovf");
        self.a.bind(save);
        self.a.pop(R31); // own return (continue point) hi
        self.a.pop(R30); // lo
        let ssp_lo = self.a.constant("ssp_lo", l.safe_stack_ptr as u32);
        let ssp_hi = self.a.constant("ssp_hi", l.safe_stack_ptr as u32 + 1);
        self.a.lds_sym(R26, ssp_lo);
        self.a.lds_sym(R27, ssp_hi);
        // Overflow if ssp >= limit - 1 (room for 2 bytes).
        self.branch_if_x_below(l.safe_stack_limit - 1, sr_ok);
        self.a.bind(sr_ovf);
        self.panic(fault_code::SAFE_STACK_OVERFLOW, R26);
        self.a.bind(sr_ok);
        self.a.pop(R0); // caller ret hi
        self.a.pop(R1); // caller ret lo
        self.a.st(Ptr::X, PtrMode::PostInc, R1);
        self.a.st(Ptr::X, PtrMode::PostInc, R0);
        self.a.sts_sym(ssp_lo, R26);
        self.a.sts_sym(ssp_hi, R27);
        self.a.clr(R1);
        self.a.ijmp();

        // restore_ret: jumped to in place of `ret`. Pops the return address
        // from the safe stack and continues there.
        let restore = self.a.label("harbor_restore_ret");
        let rr_ok = self.a.label("rr_ok");
        let rr_under = self.a.label("rr_under");
        self.a.bind(restore);
        self.a.lds_sym(R26, ssp_lo);
        self.a.lds_sym(R27, ssp_hi);
        // Underflow if ssp < base + 2.
        self.branch_if_x_below(l.safe_stack_base + 2, rr_under);
        self.a.rjmp(rr_ok);
        self.a.bind(rr_under);
        self.panic(fault_code::SAFE_STACK_UNDERFLOW, R26);
        self.a.bind(rr_ok);
        self.a.ld(R31, Ptr::X, PtrMode::PreDec); // hi
        self.a.ld(R30, Ptr::X, PtrMode::PreDec); // lo
        self.a.sts_sym(ssp_lo, R26);
        self.a.sts_sym(ssp_hi, R27);
        self.a.ijmp();
    }

    /// `harbor_xdom_call` (rewritten `call <jump-table entry>`; the target
    /// word follows the call in flash), `harbor_xdom_call_z` (trusted
    /// kernel dispatch: target already in Z) and `harbor_xdom_ret` (the
    /// return gate).
    fn emit_xdom(&mut self) {
        let l = self.l;
        let xc = self.a.label("harbor_xdom_call");
        let xc_z = self.a.label("harbor_xdom_call_z");
        self.xdom_call_z = Some(xc_z);
        let xc_common = self.a.label("xc_common");
        let xc_sub = self.a.label("xc_sub");
        let xc_bad = self.a.label("xc_bad");
        let xc_room = self.a.label("xc_room");
        let xc_ovf = self.a.label("xc_ovf");
        let gate = self.a.label("harbor_xdom_ret");

        self.a.bind(xc);
        // Fetch the inline target word; compute the real return address.
        self.a.pop(R31);
        self.a.pop(R30); // Z = word address of the inline operand
        self.a.lsl(R30);
        self.a.rol(R31); // byte address (modules live in the low 32 K words)
        self.a.lpm(R0, true); // target lo
        self.a.lpm(R1, false); // target hi
        self.a.adiw(IwPair::Z, 1);
        self.a.lsr(R31);
        self.a.ror(R30); // Z = word address after the operand = real return
        self.a.rjmp(xc_common);

        // Kernel entry: the (trusted) caller passes the jump-table target
        // in Z; the return address is the ordinary call return.
        self.a.bind(xc_z);
        self.a.mov(R0, R30);
        self.a.mov(R1, R31); // target → r1:r0
        self.a.pop(R31);
        self.a.pop(R30); // Z = real return address

        self.a.bind(xc_common);
        // Verify the target and derive the callee domain.
        self.a.mov(R26, R0);
        self.a.mov(R27, R1);
        self.branch_if_x_below(l.jt_base, xc_bad);
        self.a.bind(xc_sub);
        self.a.subi(R26, (l.jt_base & 0xff) as u8);
        self.a.sbci(R27, (l.jt_base >> 8) as u8);
        self.a.lsl(R26);
        self.a.rol(R27); // r27 = offset >> 7 = callee domain id
        self.a.cpi(R27, l.jt_domains);
        self.a.brsh(xc_bad);
        self.a.push(R27); // park the callee id on the run-time stack
                          // Push the 5-byte frame [ret, old bound, old dom] to the safe stack.
        let ssp_lo = self.a.constant("xc_ssp_lo", l.safe_stack_ptr as u32);
        let ssp_hi = self.a.constant("xc_ssp_hi", l.safe_stack_ptr as u32 + 1);
        let bound_lo = self.a.constant("xc_bound_lo", l.stack_bound as u32);
        let bound_hi = self.a.constant("xc_bound_hi", l.stack_bound as u32 + 1);
        let cur_dom = self.a.constant("xc_cur_dom", l.cur_dom as u32);
        self.a.lds_sym(R26, ssp_lo);
        self.a.lds_sym(R27, ssp_hi);
        self.branch_if_x_below(l.safe_stack_limit - 4, xc_room);
        self.a.bind(xc_ovf);
        self.panic(fault_code::SAFE_STACK_OVERFLOW, R26);
        self.a.bind(xc_room);
        self.a.st(Ptr::X, PtrMode::PostInc, R30); // ret lo
        self.a.st(Ptr::X, PtrMode::PostInc, R31); // ret hi
        self.a.lds_sym(R30, bound_lo);
        self.a.st(Ptr::X, PtrMode::PostInc, R30);
        self.a.lds_sym(R30, bound_hi);
        self.a.st(Ptr::X, PtrMode::PostInc, R30);
        self.a.lds_sym(R30, cur_dom);
        self.a.st(Ptr::X, PtrMode::PostInc, R30);
        self.a.sts_sym(ssp_lo, R26);
        self.a.sts_sym(ssp_hi, R27);
        // Switch domains and plant the return gate on the run-time stack.
        self.a.pop(R30); // callee id
        self.a.sts_sym(cur_dom, R30);
        self.a.ldi_lo8(R30, gate);
        self.a.push(R30);
        self.a.ldi_hi8(R30, gate);
        self.a.push(R30);
        // New stack bound = current SP.
        self.a.in_(R30, SPL_PORT);
        self.a.sts_sym(bound_lo, R30);
        self.a.in_(R30, SPH_PORT);
        self.a.sts_sym(bound_hi, R30);
        // Into the jump table.
        self.a.mov(R30, R0);
        self.a.mov(R31, R1);
        self.a.clr(R1);
        self.a.ijmp();
        self.a.bind(xc_bad);
        self.panic(fault_code::JUMP_TABLE, R26);

        // ── the return gate ─────────────────────────────────────────────
        let xr_ok = self.a.label("xr_ok");
        let xr_under = self.a.label("xr_under");
        self.a.bind(gate);
        self.a.lds_sym(R26, ssp_lo);
        self.a.lds_sym(R27, ssp_hi);
        self.branch_if_x_below(l.safe_stack_base + 5, xr_under);
        self.a.rjmp(xr_ok);
        self.a.bind(xr_under);
        self.panic(fault_code::SAFE_STACK_UNDERFLOW, R26);
        self.a.bind(xr_ok);
        self.a.ld(R0, Ptr::X, PtrMode::PreDec); // caller dom
        self.a.sts_sym(cur_dom, R0);
        self.a.ld(R0, Ptr::X, PtrMode::PreDec); // bound hi
        self.a.sts_sym(bound_hi, R0);
        self.a.ld(R0, Ptr::X, PtrMode::PreDec); // bound lo
        self.a.sts_sym(bound_lo, R0);
        self.a.ld(R31, Ptr::X, PtrMode::PreDec); // ret hi
        self.a.ld(R30, Ptr::X, PtrMode::PreDec); // ret lo
        self.a.sts_sym(ssp_lo, R26);
        self.a.sts_sym(ssp_hi, R27);
        self.a.ijmp();
    }

    /// The computed-transfer checks (target in Z):
    ///
    /// * `harbor_icall_check` — for rewritten `icall`. A target at or past
    ///   the jump-table base is a *dynamic cross-domain call* and forwards
    ///   to `harbor_xdom_call_z` (the return address the rewritten `call`
    ///   pushed is exactly what that stub expects); otherwise the target
    ///   must lie in the active domain's code region.
    /// * `harbor_ijmp_check` — for rewritten `ijmp`. Computed *jumps* may
    ///   never change domains (there is no return path to restore the
    ///   caller's context), so jump-table targets are CFI violations.
    fn emit_computed_check(&mut self) {
        let l = self.l;
        let icall_entry = self.a.label("harbor_icall_check");
        let ijmp_entry = self.a.label("harbor_ijmp_check");
        let local = self.a.label("ic_local");
        let bad = self.a.label("ic_bad");
        let xdom_z = self.xdom_call_z.expect("xdom stubs emitted first");

        // icall: a target inside the jump-table range is a dynamic
        // cross-domain call; anything else takes the local code-region
        // check (module slots sit *above* the tables, so both bounds
        // matter here, unlike the direct-call fast path).
        let go_xdom = self.a.label("ic_go_xdom");
        let ic_above_base = self.a.label("ic_above_base");
        self.a.bind(icall_entry);
        self.a.cpi(R31, (l.jt_base >> 8) as u8);
        self.a.brlo(local);
        self.a.brne(ic_above_base);
        self.a.cpi(R30, (l.jt_base & 0xff) as u8);
        self.a.brlo(local);
        self.a.bind(ic_above_base);
        let jt_end = l.jt_end();
        self.a.cpi(R31, (jt_end >> 8) as u8);
        self.a.brlo(go_xdom);
        self.a.brne(local);
        self.a.cpi(R30, (jt_end & 0xff) as u8);
        self.a.brsh(local);
        self.a.bind(go_xdom);
        self.a.jmp(xdom_z);

        // ijmp: jump-table targets are not allowed (a computed *jump* has
        // no return path to restore the caller); everything else takes the
        // local check.
        let ij_above_base = self.a.label("ij_above_base");
        self.a.bind(ijmp_entry);
        self.a.cpi(R31, (l.jt_base >> 8) as u8);
        self.a.brlo(local);
        self.a.brne(ij_above_base);
        self.a.cpi(R30, (l.jt_base & 0xff) as u8);
        self.a.brlo(local);
        self.a.bind(ij_above_base);
        self.a.cpi(R31, (jt_end >> 8) as u8);
        self.a.brlo(bad);
        self.a.brne(local);
        self.a.cpi(R30, (jt_end & 0xff) as u8);
        self.a.brsh(local);
        self.a.rjmp(bad);

        // Local: the target must be inside the active domain's code region.
        self.a.bind(local);
        let cur_dom = self.a.constant("ic_cur_dom", l.cur_dom as u32);
        self.a.lds_sym(R26, cur_dom);
        self.a.lsl(R26);
        self.a.lsl(R26); // dom * 4
        self.a.clr(R27);
        let neg = 0u16.wrapping_sub(l.code_bounds);
        self.a.subi(R26, (neg & 0xff) as u8);
        self.a.sbci(R27, (neg >> 8) as u8); // X = &code_bounds[dom]
        self.a.ld(R0, Ptr::X, PtrMode::PostInc); // start lo
        self.a.ld(R1, Ptr::X, PtrMode::PostInc); // start hi
        self.a.cp(R30, R0);
        self.a.cpc(R31, R1);
        self.a.brlo(bad); // target < start
        self.a.ld(R0, Ptr::X, PtrMode::PostInc); // end lo
        self.a.ld(R1, Ptr::X, PtrMode::PostInc); // end hi
        self.a.cp(R30, R0);
        self.a.cpc(R31, R1);
        self.a.brsh(bad); // target >= end
        self.a.clr(R1);
        self.a.ijmp();
        self.a.bind(bad);
        self.panic(fault_code::CFI, R26);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_assembles_with_all_stubs() {
        let rt = SfiRuntime::build(SfiLayout::default_layout(), 0x0040);
        for (name, _) in STUB_TABLE {
            assert!(rt.stub(name) >= 0x0040, "stub {name}");
        }
        assert!(
            rt.object().end() < SfiLayout::default_layout().jt_base as u32,
            "runtime must fit below the jump tables"
        );
    }

    #[test]
    fn install_initialises_state() {
        let rt = SfiRuntime::build(SfiLayout::default_layout(), 0x0040);
        let mut flash = Flash::new();
        let mut data = DataMem::new();
        rt.install(&mut flash, &mut data);
        let l = rt.layout();
        assert_eq!(data.read(l.cur_dom), Ok(7));
        assert_eq!(data.read(l.safe_stack_ptr), Ok(0x00));
        assert_eq!(data.read(l.safe_stack_ptr + 1), Ok(0x0d));
        assert_eq!(data.read(l.stack_bound), Ok(0xff));
        assert_eq!(data.read(l.stack_bound + 1), Ok(0x0f));
        assert_eq!(data.read(l.mem_map_base), Ok(0xff), "map starts all-free");
        // Flash contains the runtime.
        assert_ne!(flash.word(rt.stub("harbor_st_x")), 0xffff);
    }

    #[test]
    fn stub_roles_partition_the_stub_set() {
        let rt = SfiRuntime::build(SfiLayout::default_layout(), 0x0040);
        let roles = rt.stub_roles();
        assert_eq!(roles.len(), STUB_TABLE.len());
        for (addr, role) in roles {
            // No stub is both a call target and a jump target, and the
            // role is recoverable from the address alone.
            assert!(!(role.module_may_call() && role.module_may_jump()), "{role:?}");
            assert_eq!(rt.stub_role_at(addr), Some(role));
        }
        assert_eq!(rt.stub_role_at(0), None);
    }

    #[test]
    fn scope_regions_cover_the_object_without_gaps() {
        let rt = SfiRuntime::build(SfiLayout::default_layout(), 0x0040);
        let regions = rt.scope_regions();
        // Contiguous cover from origin to end, in order, no overlaps.
        let mut cursor = rt.object().origin();
        for &(start, end, _) in &regions {
            assert_eq!(start, cursor, "gap before {start:#x}");
            assert!(start < end);
            cursor = end;
        }
        assert_eq!(cursor, rt.object().end());
        // The cross-domain gates classify as Crossing, store checks as Check.
        let mech_at = |addr: u32| {
            regions.iter().find(|&&(s, e, _)| addr >= s && addr < e).map(|&(_, _, m)| m).unwrap()
        };
        assert_eq!(mech_at(rt.stub("harbor_xdom_call")), harbor_scope::Mechanism::Crossing);
        assert_eq!(mech_at(rt.stub("harbor_xdom_ret")), harbor_scope::Mechanism::Crossing);
        assert_eq!(mech_at(rt.stub("harbor_st_x")), harbor_scope::Mechanism::Check);
        assert_eq!(mech_at(rt.stub("harbor_save_ret")), harbor_scope::Mechanism::Check);
    }

    #[test]
    fn host_segment_helpers_round_trip() {
        let rt = SfiRuntime::build(SfiLayout::default_layout(), 0x0040);
        let mut flash = Flash::new();
        let mut data = DataMem::new();
        rt.install(&mut flash, &mut data);
        let d2 = DomainId::num(2);
        rt.host_set_segment(&mut data, d2, 0x0200, 16).unwrap();
        let view = rt.memory_map_view(&data);
        assert_eq!(view.owner_of(0x0200).unwrap(), d2);
        assert_eq!(view.owner_of(0x0210).unwrap(), DomainId::TRUSTED);
    }
}
