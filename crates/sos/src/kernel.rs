//! The mini-SOS kernel, generated as AVR machine code.
//!
//! The kernel provides the paper's software library (Section 2.4): dynamic
//! memory with memory-map maintenance (`malloc`/`free`/`change_own`,
//! Table 4), message posting, and the dispatch scheduler that drives
//! modules through cross-domain calls.
//!
//! All inter-domain calls — including modules invoking the kernel API — go
//! through the jump tables, in every protection build. Under
//! [`Protection::None`] the tables are plain `rjmp` redirections with no
//! enforcement; under UMPU the hardware tracks the calls; under SFI the
//! rewriter routes them through the cross-domain stub.
//!
//! # Kernel ABI
//!
//! | function      | JT entry | in                              | out |
//! |---------------|----------|---------------------------------|-----|
//! | `ker_malloc`  | 7/0      | r24 = size, r22 = owner domain  | r25:r24 = ptr or 0 |
//! | `ker_free`    | 7/1      | r25:r24 = ptr                   | r24 = 0 ok / 0xff err |
//! | `ker_change_own` | 7/2   | r25:r24 = ptr, r22 = new owner  | r24 = 0 ok / 0xff err |
//! | `ker_post`    | 7/3      | r24 = dst domain, r22 = msg     | r24 = 0 ok / 0xff full |
//!
//! `r0`, `r1`, `r18`–`r27`, `r30`, `r31` are call-clobbered. In the
//! protected builds `free`/`change_own` read the requesting domain from the
//! cross-domain frame on top of the safe stack and refuse non-owners — the
//! paper's ownership-enforcement rule.

use crate::layout::SosLayout;
use crate::system::Protection;
use avr_asm::{Asm, Label, Object};
use avr_core::isa::{IwPair, Ptr, PtrMode, Reg};
use avr_core::mem::RAMEND;
use harbor::DomainId;

const R0: Reg = Reg::R0;
const R16: Reg = Reg::R16;
const R18: Reg = Reg::R18;
const R19: Reg = Reg::R19;
const R20: Reg = Reg::R20;
const R21: Reg = Reg::R21;
const R22: Reg = Reg::R22;
const R23: Reg = Reg::R23;
const R24: Reg = Reg::R24;
const R25: Reg = Reg::R25;
const R26: Reg = Reg::R26;
const R27: Reg = Reg::R27;
const R30: Reg = Reg::R30;
const R31: Reg = Reg::R31;
const SPL: u8 = 0x3d;
const SPH: u8 = 0x3e;

/// The init message every module receives after loading.
pub const MSG_INIT: u8 = 0;
/// A timer-tick style message used by the demo workloads.
pub const MSG_TIMER: u8 = 1;

/// Kernel API jump-table entries (trusted domain's page).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JtEntry {
    /// `ker_malloc`.
    Malloc = 0,
    /// `ker_free`.
    Free = 1,
    /// `ker_change_own`.
    ChangeOwn = 2,
    /// `ker_post`.
    Post = 3,
}

/// Facilities available to application/driver code emitted into the kernel
/// image (the code that runs after boot).
#[derive(Debug, Clone, Copy)]
pub struct KernelApi {
    /// Which protection build this kernel is.
    pub protection: Protection,
    /// The system layout.
    pub layout: SosLayout,
    /// Label of the scheduler loop (drain the message queue, then return).
    pub ker_run: Label,
    /// Word address of `harbor_xdom_call` (SFI builds; the inline-operand
    /// form used by trusted straight-line code).
    pub xdom_call: Option<u32>,
}

impl KernelApi {
    /// Emits a call to jump-table `entry` of `dom`, in whatever form this
    /// protection build requires.
    pub fn call_entry(&self, a: &mut Asm, dom: DomainId, entry: u16) {
        let target = self.layout.jt_entry(dom.index(), entry) as u32;
        match self.protection {
            Protection::None | Protection::Umpu => a.call_abs(target),
            Protection::Sfi => {
                a.call_abs(self.xdom_call.expect("SFI build has the stub"));
                a.words(&[target as u16]);
            }
        }
    }

    /// Emits a call to a kernel API function.
    pub fn call_kernel(&self, a: &mut Asm, f: JtEntry) {
        self.call_entry(a, DomainId::TRUSTED, f as u16);
    }

    /// Emits a call to the scheduler (drains the message queue).
    pub fn run_scheduler(&self, a: &mut Asm) {
        a.call(self.ker_run);
    }
}

/// The assembled kernel: reset vector, boot + scheduler + application code,
/// and the jump-table-reachable API section.
#[derive(Debug, Clone)]
pub struct KernelImage {
    /// The reset vector at word 0.
    pub vector: Object,
    /// Boot, scheduler and application code (at `layout.kernel_origin`).
    pub kernel: Object,
    /// The API functions (at `layout.api_origin`).
    pub api: Object,
    /// The protection build.
    pub protection: Protection,
    /// The layout.
    pub layout: SosLayout,
    // Where the app code resumes after the boot break, resolved once here
    // because every fleet slice of every node steers to it.
    scheduler_entry: u32,
}

impl KernelImage {
    /// Builds the kernel. `xdom_call_stubs` supplies
    /// (`harbor_xdom_call`, `harbor_xdom_call_z`) for SFI builds. The `app`
    /// closure emits the driver code that runs after boot (and typically
    /// calls the scheduler, then `break`s).
    ///
    /// # Panics
    ///
    /// Panics if the generated assembly fails to resolve — a builder bug.
    pub fn build(
        protection: Protection,
        layout: SosLayout,
        xdom_call_stubs: Option<(u32, u32)>,
        app: impl FnOnce(&mut Asm, &KernelApi),
    ) -> KernelImage {
        let api = build_api(protection, &layout);

        let mut a = Asm::new();
        let ker_run = a.label("ker_run");
        emit_reset(&mut a, protection, &layout);
        let api_handle =
            KernelApi { protection, layout, ker_run, xdom_call: xdom_call_stubs.map(|(xc, _)| xc) };
        app(&mut a, &api_handle);
        // Safety net: if the app falls through, halt.
        a.brk();
        emit_ker_run(&mut a, ker_run, protection, &layout, xdom_call_stubs.map(|(_, z)| z));
        emit_timer_isr(&mut a, &layout, api.require("ker_post"));
        let kernel = a.assemble(layout.kernel_origin).expect("kernel assembles");
        assert!(
            kernel.end() <= layout.runtime_origin,
            "kernel section overflowed into the runtime"
        );

        let mut v = Asm::new();
        let reset = v.constant("ker_reset", layout.kernel_origin);
        let isr = v.constant("ker_timer_isr_vec", kernel.require("ker_timer_isr"));
        v.jmp(reset); // words 0..=1: reset vector
        v.jmp(isr); // words 2..=3: timer vector
        let vector = v.assemble(0).expect("vector assembles");

        // The boot break is one word; the app code follows it.
        let scheduler_entry = kernel.require("ker_boot_done") + 1;
        KernelImage { vector, kernel, api, protection, layout, scheduler_entry }
    }

    /// Word address where the app code resumes after the boot break (see
    /// `SosSystem::scheduler_entry`).
    pub const fn scheduler_entry(&self) -> u32 {
        self.scheduler_entry
    }

    /// Word address of a kernel symbol (searches all sections).
    ///
    /// # Panics
    ///
    /// Panics if the symbol does not exist.
    pub fn symbol(&self, name: &str) -> u32 {
        self.kernel
            .symbol(name)
            .or_else(|| self.api.symbol(name))
            .unwrap_or_else(|| panic!("kernel symbol `{name}` not found"))
    }

    /// Loads all sections into flash.
    pub fn load_into(&self, flash: &mut avr_core::mem::Flash) {
        self.vector.load_into(flash);
        self.kernel.load_into(flash);
        self.api.load_into(flash);
    }

    /// The kernel's total FLASH footprint in bytes (vector + kernel + API),
    /// for the Table 5 resource accounting.
    pub fn flash_bytes(&self) -> u32 {
        self.vector.size_bytes() + self.kernel.size_bytes() + self.api.size_bytes()
    }
}

/// Boot: stack pointer, zeroed kernel RAM, protection state, hardware
/// configuration, then `break` (the host loader takes over before the app
/// code runs).
fn emit_reset(a: &mut Asm, protection: Protection, l: &SosLayout) {
    // SP ← RAMEND.
    a.ldi(R16, (RAMEND & 0xff) as u8);
    a.out(SPL, R16);
    a.ldi(R16, (RAMEND >> 8) as u8);
    a.out(SPH, R16);

    // Zero kernel RAM 0x0060..heap_base.
    let zero_len = l.heap_base() - 0x0060;
    a.ldi(R26, 0x60);
    a.clr(R27);
    a.clr(R16);
    a.ldi(R24, (zero_len & 0xff) as u8);
    a.ldi(R25, (zero_len >> 8) as u8);
    let zl = a.here("boot_zero");
    a.st(Ptr::X, PtrMode::PostInc, R16);
    a.sbiw(IwPair::W, 1);
    a.brne(zl);

    if protection != Protection::None {
        // Memory map ← all free (0xff).
        let map_bytes = harbor::MemMapConfig::new(
            harbor::DomainMode::Multi,
            harbor::BlockSize::new(1 << l.block_log2()).expect("valid block size"),
            l.prot.prot_bottom,
            l.prot.prot_top,
        )
        .expect("layout is block aligned")
        .map_size_bytes();
        a.ldi(R26, (l.prot.mem_map_base & 0xff) as u8);
        a.ldi(R27, (l.prot.mem_map_base >> 8) as u8);
        a.ser(R16);
        a.ldi(R24, (map_bytes & 0xff) as u8);
        a.ldi(R25, (map_bytes >> 8) as u8);
        let ml = a.here("boot_map");
        a.st(Ptr::X, PtrMode::PostInc, R16);
        a.sbiw(IwPair::W, 1);
        a.brne(ml);
    }

    match protection {
        Protection::None => {}
        Protection::Sfi => {
            // Software protection state.
            a.ldi(R16, DomainId::TRUSTED.index());
            a.sts(l.prot.cur_dom, R16);
            a.ldi(R16, (RAMEND & 0xff) as u8);
            a.sts(l.prot.stack_bound, R16);
            a.ldi(R16, (RAMEND >> 8) as u8);
            a.sts(l.prot.stack_bound + 1, R16);
            a.ldi(R16, (l.prot.safe_stack_base & 0xff) as u8);
            a.sts(l.prot.safe_stack_ptr, R16);
            a.ldi(R16, (l.prot.safe_stack_base >> 8) as u8);
            a.sts(l.prot.safe_stack_ptr + 1, R16);
        }
        Protection::Umpu => {
            use umpu::regs::*;
            let out8 = |a: &mut Asm, port: u8, v: u8| {
                a.ldi(R16, v);
                a.out(port, R16);
            };
            out8(a, PORT_MEM_MAP_BASE_LO, (l.prot.mem_map_base & 0xff) as u8);
            out8(a, PORT_MEM_MAP_BASE_HI, (l.prot.mem_map_base >> 8) as u8);
            out8(a, PORT_MEM_PROT_BOT_LO, (l.prot.prot_bottom & 0xff) as u8);
            out8(a, PORT_MEM_PROT_BOT_HI, (l.prot.prot_bottom >> 8) as u8);
            out8(a, PORT_MEM_PROT_TOP_LO, (l.prot.prot_top & 0xff) as u8);
            out8(a, PORT_MEM_PROT_TOP_HI, (l.prot.prot_top >> 8) as u8);
            out8(a, PORT_SAFE_STACK_PTR_LO, (l.prot.safe_stack_base & 0xff) as u8);
            out8(a, PORT_SAFE_STACK_PTR_HI, (l.prot.safe_stack_base >> 8) as u8);
            out8(a, PORT_SAFE_STACK_LIMIT_LO, (l.prot.safe_stack_limit & 0xff) as u8);
            out8(a, PORT_SAFE_STACK_LIMIT_HI, (l.prot.safe_stack_limit >> 8) as u8);
            out8(a, PORT_JT_BASE_LO, (l.prot.jt_base & 0xff) as u8);
            out8(a, PORT_JT_BASE_HI, (l.prot.jt_base >> 8) as u8);
            out8(a, PORT_JT_DOMAINS, l.prot.jt_domains);
            // Block size from the layout, multi-domain, enable.
            out8(a, PORT_MEM_MAP_CONFIG, l.block_log2() | CONFIG_ENABLE);
        }
    }

    // Boot complete: hand control to the host loader. Execution resumes at
    // the app code that follows (`KernelImage::scheduler_entry`).
    a.here("ker_boot_done");
    a.brk();
}

/// The scheduler: drain the message queue, dispatching each message to its
/// destination domain's handler (jump-table entry 0, message type in r24).
fn emit_ker_run(
    a: &mut Asm,
    ker_run: Label,
    protection: Protection,
    l: &SosLayout,
    xdom_call_z: Option<u32>,
) {
    let done = a.label("kr_done");
    a.bind(ker_run);
    a.lds(R24, l.q_head);
    a.lds(R25, l.q_tail);
    a.cp(R24, R25);
    a.breq(done);
    // Dequeue: dom → r18, type → r22.
    a.mov(R26, R24);
    a.lsl(R26);
    a.clr(R27);
    let neg_buf = 0u16.wrapping_sub(l.q_buf);
    a.subi(R26, (neg_buf & 0xff) as u8);
    a.sbci(R27, (neg_buf >> 8) as u8);
    a.ld(R18, Ptr::X, PtrMode::PostInc);
    a.ld(R22, Ptr::X, PtrMode::Plain);
    a.inc(R24);
    a.andi(R24, 0x0f);
    a.sts(l.q_head, R24);
    // Z ← jump-table handler entry: jt_base + dom * 128.
    a.mov(R31, R18);
    a.lsr(R31);
    a.clr(R30);
    a.ror(R30); // Z = dom << 7
    let neg_jt = 0u16.wrapping_sub(l.prot.jt_base);
    a.subi(R30, (neg_jt & 0xff) as u8);
    a.sbci(R31, (neg_jt >> 8) as u8);
    a.mov(R24, R22); // handler argument: message type
    match protection {
        Protection::None | Protection::Umpu => a.icall(),
        Protection::Sfi => {
            a.call_abs(xdom_call_z.expect("SFI build supplies xdom_call_z"));
        }
    }
    a.rjmp(ker_run);
    a.bind(done);
    a.ret();
}

/// The timer ISR: posts [`MSG_TIMER`] to the domain in the `timer_dom`
/// variable. Preserves every register it (and `ker_post`) touches — it can
/// interrupt any code, including sandboxed modules.
fn emit_timer_isr(a: &mut Asm, l: &SosLayout, ker_post: u32) {
    a.here("ker_timer_isr");
    a.push(R16);
    a.in_(R16, 0x3f); // SREG
    a.push(R16);
    for r in [R22, R23, R24, R25, R26, R27] {
        a.push(r);
    }
    a.lds(R24, l.timer_dom);
    a.ldi(R22, MSG_TIMER);
    a.call_abs(ker_post); // trusted-internal call; queue-full result ignored
    for r in [R27, R26, R25, R24, R23, R22] {
        a.pop(r);
    }
    a.pop(R16);
    a.out(0x3f, R16);
    a.pop(R16);
    a.reti();
}

/// Builds the API section: `ker_malloc`, `ker_free`, `ker_change_own`,
/// `ker_post` and their helpers.
fn build_api(protection: Protection, l: &SosLayout) -> Object {
    let mut asm = Asm::new();
    let a = &mut asm;
    let protected = protection != Protection::None;

    // Helper labels.
    let bit_get = a.label("bit_get");
    let bit_set = a.label("bit_set");
    let bit_clr = a.label("bit_clr");
    let mm_write_nibble = a.label("mm_write_nibble");
    let mm_set_segment = a.label("mm_set_segment");
    let mm_record = a.label("mm_record");
    let mm_owner = a.label("mm_owner");
    let mm_seg_len = a.label("mm_seg_len");
    let get_caller = a.label("get_caller");
    let blk_from_ptr = a.label("blk_from_ptr");

    let neg_bitmap = 0u16.wrapping_sub(l.alloc_bitmap);
    let neg_heap = 0u16.wrapping_sub(l.heap_base());
    let neg_map = 0u16.wrapping_sub(l.prot.mem_map_base);

    // ── ker_malloc ──────────────────────────────────────────────────────
    // in: r24 = size, r22 = owner; out: r25:r24 = ptr or 0.
    let ker_malloc = a.here("ker_malloc");
    let _ = ker_malloc;
    {
        let scan = a.label("m_scan");
        let used = a.label("m_used");
        let cont = a.label("m_cont");
        let found = a.label("m_found");
        let fail = a.label("m_fail");
        let setl = a.label("m_set");
        // blocks needed = (size + 2 + block-1) >> log2  (2-byte header)
        let bs = 1u16 << l.block_log2();
        a.mov(R18, R24);
        a.subi(R18, 0u8.wrapping_sub((bs + 1) as u8)); // r18 += 2 + (bs-1)
        for _ in 0..l.block_log2() {
            a.lsr(R18);
        }
        a.clr(R19); // block index
        a.clr(R20); // run length
        a.clr(R21); // run start
        a.bind(scan);
        a.cpi(R19, l.alloc_blocks as u8);
        a.brsh(fail);
        a.rcall(bit_get); // r25 = bitmap[r19]
        a.tst(R25);
        a.brne(used);
        a.tst(R20);
        a.brne(cont);
        a.mov(R21, R19); // run starts here
        a.bind(cont);
        a.inc(R20);
        a.cp(R20, R18);
        a.breq(found);
        a.inc(R19);
        a.rjmp(scan);
        a.bind(used);
        a.clr(R20);
        a.inc(R19);
        a.rjmp(scan);
        a.bind(fail);
        a.clr(R24);
        a.clr(R25);
        a.ret();
        a.bind(found);
        // Mark blocks r21 .. r21+r18-1 used.
        a.mov(R19, R21);
        a.mov(R20, R18);
        a.bind(setl);
        a.rcall(bit_set);
        a.inc(R19);
        a.dec(R20);
        a.brne(setl);
        // X ← heap_base + start*block; write the [len, owner] header via Z.
        a.mov(R26, R21);
        a.clr(R27);
        for _ in 0..l.block_log2() {
            a.lsl(R26);
            a.rol(R27);
        }
        a.subi(R26, (neg_heap & 0xff) as u8);
        a.sbci(R27, (neg_heap >> 8) as u8);
        a.movw(R30, R26);
        a.st(Ptr::Z, PtrMode::PostInc, R18); // header: length in blocks
        a.st(Ptr::Z, PtrMode::PostInc, R22); // header: owner
        if protected {
            // Record the segment in the memory map (r21 start, r18 count,
            // r22 owner). Clobbers X — recompute the address afterwards.
            a.rcall(mm_set_segment);
            a.mov(R26, R21);
            a.clr(R27);
            for _ in 0..l.block_log2() {
                a.lsl(R26);
                a.rol(R27);
            }
            a.subi(R26, (neg_heap & 0xff) as u8);
            a.sbci(R27, (neg_heap >> 8) as u8);
        }
        a.adiw(IwPair::X, 2); // data pointer past the header
        a.mov(R24, R26);
        a.mov(R25, R27);
        a.ret();
    }

    // ── ker_free ────────────────────────────────────────────────────────
    // in: r25:r24 = ptr; out: r24 = 0 ok / 0xff error.
    let ker_free = a.here("ker_free");
    let _ = ker_free;
    {
        let err = a.label("f_err");
        let clrl = a.label("f_clr");
        let own_ok = a.label("f_own_ok");
        let freel = a.label("f_freel");
        a.rcall(blk_from_ptr); // r19 = block, Z = header, r18 = len; C set on error
        a.brcs(err);
        if protected {
            // Ownership rule: only the owner (or trusted) may free.
            a.rcall(mm_owner); // r25 = map owner of block r19
            a.rcall(get_caller); // r23 = requesting domain
            a.cpi(R23, DomainId::TRUSTED.index());
            a.breq(own_ok);
            a.cp(R23, R25);
            a.brne(err);
            a.bind(own_ok);
            // The authoritative segment length comes from the memory map
            // (start/continuation records), not the module-writable header.
            a.rcall(mm_seg_len); // r18 = length in blocks
            a.brcs(err);
        } else {
            // Keep the label bound in all builds.
            a.bind(own_ok);
        }
        // Clear the allocation bits.
        a.mov(R20, R18);
        a.bind(clrl);
        a.rcall(bit_clr);
        a.inc(R19);
        a.dec(R20);
        a.brne(clrl);
        if protected {
            // Mark the blocks free (record 0b1111 each).
            a.sub(R19, R18); // back to the first block
            a.mov(R20, R18);
            a.ldi(R25, 0x0f);
            a.bind(freel);
            a.rcall(mm_write_nibble);
            a.inc(R19);
            a.dec(R20);
            a.brne(freel);
        } else {
            a.bind(freel);
        }
        a.clr(R24);
        a.ret();
        a.bind(err);
        a.ldi(R24, 0xff);
        a.ret();
    }

    // ── ker_change_own ──────────────────────────────────────────────────
    // in: r25:r24 = ptr, r22 = new owner; out: r24 = 0 ok / 0xff error.
    let ker_chown = a.here("ker_change_own");
    let _ = ker_chown;
    {
        let err = a.label("c_err");
        let own_ok = a.label("c_own_ok");
        a.rcall(blk_from_ptr); // r19 = block, Z = header, r18 = len
        a.brcs(err);
        if protected {
            a.rcall(mm_owner);
            a.rcall(get_caller);
            a.cpi(R23, DomainId::TRUSTED.index());
            a.breq(own_ok);
            a.cp(R23, R25);
            a.brne(err);
            a.bind(own_ok);
            a.rcall(mm_seg_len); // authoritative length from the map
            a.brcs(err);
        } else {
            a.bind(own_ok);
        }
        // Header owner byte (Z points at the header from blk_from_ptr).
        a.std(Ptr::Z, 1, R22);
        if protected {
            // Rewrite the map records with the new owner (start flag
            // pattern identical to allocation).
            a.mov(R21, R19);
            a.rcall(mm_set_segment);
        }
        a.clr(R24);
        a.ret();
        a.bind(err);
        a.ldi(R24, 0xff);
        a.ret();
    }

    // ── ker_post ────────────────────────────────────────────────────────
    // in: r24 = dst domain, r22 = message type; out: r24 = 0 / 0xff full.
    let ker_post = a.here("ker_post");
    let _ = ker_post;
    {
        let full = a.label("p_full");
        a.lds(R25, l.q_tail);
        a.lds(R26, l.q_head);
        a.mov(R23, R25);
        a.inc(R23);
        a.andi(R23, 0x0f);
        a.cp(R23, R26);
        a.breq(full);
        a.mov(R26, R25);
        a.lsl(R26);
        a.clr(R27);
        let neg_buf = 0u16.wrapping_sub(l.q_buf);
        a.subi(R26, (neg_buf & 0xff) as u8);
        a.sbci(R27, (neg_buf >> 8) as u8);
        a.st(Ptr::X, PtrMode::PostInc, R24);
        a.st(Ptr::X, PtrMode::Plain, R22);
        a.sts(l.q_tail, R23);
        a.clr(R24);
        a.ret();
        a.bind(full);
        a.ldi(R24, 0xff);
        a.ret();
    }

    // ── helpers ─────────────────────────────────────────────────────────

    // blk_from_ptr: r25:r24 = data ptr → r19 = block index, Z = header
    // address, r18 = length in blocks. Sets C on a bad pointer, including
    // a pointer whose block is not currently allocated (the bitmap is the
    // authority — stale headers in freed memory must not resurrect
    // segments).
    {
        let err = a.label("bp_err");
        let ok = a.label("bp_ok");
        a.bind(blk_from_ptr);
        a.movw(R26, R24);
        a.sbiw(IwPair::X, 2); // header address
                              // Bounds: header must lie in [heap_base, heap_base + blocks*8).
        let lo = l.heap_base();
        let hi = l.heap_base() + (l.alloc_blocks << l.block_log2());
        a.cpi(R26, (lo & 0xff) as u8);
        a.ldi(R23, (lo >> 8) as u8);
        a.cpc(R27, R23);
        a.brlo(err);
        a.cpi(R26, (hi & 0xff) as u8);
        a.ldi(R23, (hi >> 8) as u8);
        a.cpc(R27, R23);
        a.brsh(err);
        a.movw(R30, R26); // Z = header
                          // block = (header - heap_base) >> log2(block size)
        a.subi(R26, (neg_heap.wrapping_neg() & 0xff) as u8); // subtract heap base
        a.sbci(R27, (neg_heap.wrapping_neg() >> 8) as u8);
        for _ in 0..l.block_log2() {
            a.lsr(R27);
            a.ror(R26);
        }
        a.mov(R19, R26);
        // The start block must be live in the allocation bitmap.
        a.rcall(bit_get); // r25 = bitmap[r19]
        a.tst(R25);
        a.breq(err);
        a.ld(R18, Ptr::Z, PtrMode::Plain); // length
                                           // Sanity: the header length is non-zero.
        a.tst(R18);
        a.breq(err);
        a.clc();
        a.rjmp(ok);
        a.bind(err);
        a.sec();
        a.bind(ok);
        a.ret();
    }

    // bit_get: r19 = block → r25 = 0/1. Clobbers r23, r26, r27.
    {
        let sh = a.label("bg_sh");
        let done = a.label("bg_done");
        a.bind(bit_get);
        a.mov(R26, R19);
        a.lsr(R26);
        a.lsr(R26);
        a.lsr(R26);
        a.clr(R27);
        a.subi(R26, (neg_bitmap & 0xff) as u8);
        a.sbci(R27, (neg_bitmap >> 8) as u8);
        a.ld(R25, Ptr::X, PtrMode::Plain);
        a.mov(R23, R19);
        a.andi(R23, 7);
        a.bind(sh);
        a.tst(R23);
        a.breq(done);
        a.lsr(R25);
        a.dec(R23);
        a.rjmp(sh);
        a.bind(done);
        a.andi(R25, 1);
        a.ret();
    }

    // bit_set / bit_clr: r19 = block. Clobber r23, r25, r26, r27, r0.
    for (label, set) in [(bit_set, true), (bit_clr, false)] {
        let sh = a.label(if set { "bs_sh" } else { "bc_sh" });
        let done = a.label(if set { "bs_done" } else { "bc_done" });
        a.bind(label);
        a.mov(R23, R19);
        a.andi(R23, 7);
        a.ldi(R25, 1);
        a.bind(sh);
        a.tst(R23);
        a.breq(done);
        a.lsl(R25);
        a.dec(R23);
        a.rjmp(sh);
        a.bind(done);
        a.mov(R26, R19);
        a.lsr(R26);
        a.lsr(R26);
        a.lsr(R26);
        a.clr(R27);
        a.subi(R26, (neg_bitmap & 0xff) as u8);
        a.sbci(R27, (neg_bitmap >> 8) as u8);
        a.ld(R0, Ptr::X, PtrMode::Plain);
        if set {
            a.or(R0, R25);
        } else {
            a.com(R25);
            a.and(R0, R25);
        }
        a.st(Ptr::X, PtrMode::Plain, R0);
        a.ret();
    }

    if protected {
        // mm_set_segment: r21 = start block, r18 = count, r22 = owner.
        // Clobbers r19, r20, r25 (+ mm_write_nibble's scratch).
        {
            let lp = a.label("mms_loop");
            let done = a.label("mms_done");
            a.bind(mm_set_segment);
            a.mov(R19, R21);
            a.mov(R20, R18);
            a.mov(R25, R22);
            a.lsl(R25);
            a.ori(R25, 1); // start record
            a.rcall(mm_write_nibble);
            a.dec(R20);
            a.breq(done);
            a.mov(R25, R22);
            a.lsl(R25); // continuation record
            a.bind(lp);
            a.inc(R19);
            a.rcall(mm_write_nibble);
            a.dec(R20);
            a.brne(lp);
            a.bind(done);
            a.ret();
        }

        // mm_write_nibble: writes record r25 for block r19 into the map.
        // Preserves r25. Clobbers r23, r26, r27, r30, r31, r0.
        {
            let hi = a.label("wn_hi");
            let store = a.label("wn_store");
            a.bind(mm_write_nibble);
            a.mov(R26, R19);
            a.lsr(R26);
            a.clr(R27);
            a.subi(R26, (neg_map & 0xff) as u8);
            a.sbci(R27, (neg_map >> 8) as u8);
            a.ld(R0, Ptr::X, PtrMode::Plain);
            a.mov(R23, R25);
            a.sbrc(R19, 0);
            a.rjmp(hi);
            // Even block → low nibble.
            a.ldi(R31, 0xf0);
            a.and(R0, R31);
            a.or(R0, R23);
            a.rjmp(store);
            a.bind(hi);
            a.swap(R23);
            a.ldi(R31, 0x0f);
            a.and(R0, R31);
            a.or(R0, R23);
            a.bind(store);
            a.st(Ptr::X, PtrMode::Plain, R0);
            a.ret();
        }

        // mm_record: r19 = block → r25 = 4-bit record. Clobbers r26, r27.
        {
            a.bind(mm_record);
            a.mov(R26, R19);
            a.lsr(R26);
            a.clr(R27);
            a.subi(R26, (neg_map & 0xff) as u8);
            a.sbci(R27, (neg_map >> 8) as u8);
            a.ld(R25, Ptr::X, PtrMode::Plain);
            a.sbrc(R19, 0);
            a.swap(R25);
            a.andi(R25, 0x0f);
            a.ret();
        }

        // mm_owner: r19 = block → r25 = owner.
        {
            a.bind(mm_owner);
            a.rcall(mm_record);
            a.lsr(R25);
            a.ret();
        }

        // mm_seg_len: r19 = segment start block → r18 = length in blocks
        // (walking continuation records, the authoritative layout). Sets C
        // if r19 is not a segment start. Preserves r19; clobbers r21, r25,
        // r26, r27.
        {
            let lp = a.label("msl_loop");
            let done = a.label("msl_done");
            let errl = a.label("msl_err");
            a.bind(mm_seg_len);
            a.rcall(mm_record);
            a.sbrs(R25, 0);
            a.rjmp(errl);
            a.mov(R21, R25);
            a.andi(R21, 0x0e); // expected continuation record
            a.ldi(R18, 1);
            a.bind(lp);
            a.inc(R19);
            a.cpi(R19, l.alloc_blocks as u8);
            a.brsh(done);
            a.rcall(mm_record);
            a.cp(R25, R21);
            a.brne(done);
            a.inc(R18);
            a.rjmp(lp);
            a.bind(done);
            a.sub(R19, R18); // restore the start block
            a.clc();
            a.ret();
            a.bind(errl);
            a.sec();
            a.ret();
        }

        // get_caller: r23 = requesting domain, read from the cross-domain
        // frame on top of the safe stack (the kernel API is always entered
        // through the jump table, so the frame's top byte is the caller).
        {
            a.bind(get_caller);
            match protection {
                Protection::Umpu => {
                    // Under UMPU even this helper's own return address was
                    // redirected to the safe stack (2 bytes above the
                    // frame), so the caller-domain byte sits at ssp-3.
                    a.in_(R26, umpu::regs::PORT_SAFE_STACK_PTR_LO);
                    a.in_(R27, umpu::regs::PORT_SAFE_STACK_PTR_HI);
                    a.sbiw(IwPair::X, 2);
                }
                Protection::Sfi => {
                    // The SFI kernel is trusted (not rewritten): its rcalls
                    // use the run-time stack, so the frame is still on top.
                    a.lds(R26, l.prot.safe_stack_ptr);
                    a.lds(R27, l.prot.safe_stack_ptr + 1);
                }
                Protection::None => unreachable!("get_caller only in protected builds"),
            }
            a.ld(R23, Ptr::X, PtrMode::PreDec);
            a.ret();
        }
    }

    asm.assemble(l.api_origin).expect("API section assembles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builds_assemble_and_fit() {
        let l = SosLayout::default_layout();
        for p in [Protection::None, Protection::Umpu, Protection::Sfi] {
            let stubs = if p == Protection::Sfi { Some((0x0210, 0x0220)) } else { None };
            let k = KernelImage::build(p, l, stubs, |a, api| {
                api.run_scheduler(a);
                a.brk();
            });
            assert!(k.kernel.end() <= l.runtime_origin, "{p:?}: kernel section fits");
            assert!(k.api.end() <= l.prot.jt_base as u32, "{p:?}: API fits below the tables");
            // The API functions are all within rjmp reach of the trusted
            // jump-table page.
            for sym in ["ker_malloc", "ker_free", "ker_change_own", "ker_post"] {
                let at = k.symbol(sym);
                let entry = l.jt_entry(7, 0) as i64;
                assert!(entry + 1 - (at as i64) <= 2048, "{p:?}: {sym} reachable");
            }
        }
    }
}
