//! The cycle-accurate CPU and the [`Env`] trait that hosts it.
//!
//! The CPU is a pure AVR state machine (registers, PC, SP, SREG, RAMPZ).
//! Everything outside the register file — flash, SRAM, I/O, and crucially the
//! *arbitration* of stores and call/return micro-operations — is delegated to
//! an [`Env`] implementation. The attachment points mirror where the UMPU
//! hardware extensions sit in the paper's design:
//!
//! * [`Env::fetch`] — the fetch decoder (control-flow integrity checks);
//! * [`Env::sram_write`] — the memory-map checker (MMC), which may stall the
//!   CPU (returned extra cycles) or fault;
//! * [`Env::on_call`] / [`Env::on_ret`] — the safe-stack unit and domain
//!   tracker (return-address redirection, cross-domain frames).

use crate::isa::{self, flags, Instr, Ptr, PtrMode, Reg};
use crate::{Fault, WordAddr};

/// A call micro-operation about to execute, as seen by the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEvent {
    /// Which call instruction triggered this.
    pub kind: CallKind,
    /// Word address of the call instruction itself.
    pub from_pc: WordAddr,
    /// Word address the call targets.
    pub target: WordAddr,
    /// Word address of the instruction after the call (the return address).
    pub ret_addr: WordAddr,
    /// Stack pointer *before* the call pushes anything.
    pub sp: u16,
}

/// The flavour of call instruction in a [`CallEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// `RCALL` — relative call.
    Rcall,
    /// `CALL` — absolute call.
    Call,
    /// `ICALL` — indirect call through `Z`.
    Icall,
    /// Hardware interrupt dispatch (the return address is the interrupted
    /// instruction; a protection environment switches to the trusted
    /// domain and restores on `RETI`).
    Interrupt,
}

/// Environment's resolution of a call micro-operation.
///
/// The environment is responsible for storing the return address (to the
/// run-time stack, or redirected to a safe stack); the CPU then performs the
/// architectural `SP -= 2` and jumps to `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallOutcome {
    /// Where execution continues (normally the event's `target`; a hardware
    /// unit may redirect).
    pub target: WordAddr,
    /// Stall cycles to add on top of the instruction's base cycles
    /// (e.g. 5 for a UMPU cross-domain call).
    pub extra_cycles: u8,
}

/// Environment's resolution of a `RET`/`RETI` micro-operation.
///
/// The environment reads the return address from wherever it keeps it; the
/// CPU then performs the architectural `SP += 2` and jumps to `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetOutcome {
    /// Word address to return to.
    pub target: WordAddr,
    /// Stall cycles to add on top of `RET`'s base cycles.
    pub extra_cycles: u8,
}

/// The machine environment: memories plus (optionally) protection hardware.
///
/// See [`crate::mem::PlainEnv`] for the stock, protection-free machine; the
/// `umpu` crate provides the protected one.
pub trait Env {
    /// Fetches the instruction word at `pc`. A protection environment uses
    /// this as the fetch-decoder hook for control-flow integrity checks.
    ///
    /// # Errors
    ///
    /// An environment fault aborts execution of the current instruction.
    fn fetch(&mut self, pc: WordAddr) -> Result<u16, Fault>;

    /// Reads a flash byte for `LPM`/`ELPM` (byte address).
    fn flash_byte(&mut self, byte_addr: u32) -> u8;

    /// Reads a data-space byte at `addr ≥ 0x60` (SRAM).
    ///
    /// # Errors
    ///
    /// [`Fault::BadDataAddress`] outside implemented SRAM.
    fn sram_read(&mut self, addr: u16) -> Result<u8, Fault>;

    /// Writes a data-space byte at `addr ≥ 0x60`, returning stall cycles
    /// (the MMC hook: a protected store costs one extra cycle in UMPU).
    ///
    /// # Errors
    ///
    /// A protection environment faults here on illegal writes.
    fn sram_write(&mut self, addr: u16, v: u8) -> Result<u8, Fault>;

    /// Reads an I/O port other than the CPU-internal `SPL`/`SPH`/`SREG`/
    /// `RAMPZ`.
    fn io_read(&mut self, port: u8) -> u8;

    /// Writes an I/O port, returning stall cycles.
    ///
    /// # Errors
    ///
    /// A protection environment faults on untrusted writes to its
    /// configuration ports.
    fn io_write(&mut self, port: u8, v: u8) -> Result<u8, Fault>;

    /// Arbitrates a call micro-operation (safe-stack redirection, domain
    /// tracking) and stores the return address.
    ///
    /// # Errors
    ///
    /// A protection environment faults on illegal cross-domain targets.
    fn on_call(&mut self, ev: CallEvent) -> Result<CallOutcome, Fault>;

    /// Arbitrates a `RET`/`RETI`: produces the return target (from the
    /// run-time stack, safe stack, or a cross-domain frame). `sp` is the
    /// stack pointer before the architectural `SP += 2`.
    ///
    /// # Errors
    ///
    /// A protection environment faults on safe-stack underflow or a
    /// corrupted cross-domain frame.
    fn on_ret(&mut self, sp: u16) -> Result<RetOutcome, Fault>;

    /// Polls for a pending interrupt before each instruction (only
    /// consulted while SREG `I` is set). Returns the vector's word address.
    /// Environments without interrupt sources keep the default.
    fn poll_irq(&mut self, _cycles: u64) -> Option<WordAddr> {
        None
    }

    /// The cycle count at which the next interrupt source will fire, if
    /// any — lets `SLEEP` fast-forward through idle time instead of being
    /// terminal. Environments without interrupt sources keep the default.
    fn next_irq_at(&self) -> Option<u64> {
        None
    }

    /// Observes the CPU's cycle counter at the start of each step — the
    /// trace-instrumentation hook: an environment that stamps protection
    /// events (see the `harbor-scope` crate) latches this value so events
    /// raised from bus hooks carry the cycle of the instruction that caused
    /// them. Purely observational; the default keeps nothing.
    fn set_now(&mut self, _cycles: u64) {}

    /// Arbitrates a fetch from `pc` *without* reading the word — the
    /// fast-path (harbor-turbo) CFI hook. An implementation must fault (and
    /// emit exactly the same protection events) in precisely the cases where
    /// [`Env::fetch`] would fault, so that a fast path calling
    /// `check_fetch` + cached decode is indistinguishable from `fetch` +
    /// decode. The default never faults, matching environments whose
    /// `fetch` cannot fail.
    ///
    /// # Errors
    ///
    /// Exactly when [`Env::fetch`] at the same `pc` would fault.
    fn check_fetch(&mut self, _pc: WordAddr) -> Result<(), Fault> {
        Ok(())
    }

    /// Raw flash word at `pc`, bypassing all protection checks — the
    /// fast-path block builder's unprivileged view of code memory (used only
    /// to *decode ahead*, never to execute unchecked). `None` (the default)
    /// opts the environment out of fast-path execution entirely.
    fn code_word(&self, _pc: WordAddr) -> Option<u16> {
        None
    }

    /// A stamp over every piece of state [`Env::check_fetch`] consults.
    /// An implementation must return a *different* value whenever a state
    /// change could alter any `check_fetch` outcome (domain switch,
    /// code-region or jump-table reconfiguration, protection enable bit).
    /// The fast path uses this to cache [`Env::check_fetch_range`] grants:
    /// while the epoch holds, a granted range needs no per-word re-check.
    /// The default (a constant) is correct for environments whose
    /// `check_fetch` can never fault.
    fn cfi_epoch(&self) -> u64 {
        0
    }

    /// Whether *every* word address in `start..end` would pass
    /// [`Env::check_fetch`] under the current state — with **no** observable
    /// side effects (no faults raised, no events emitted). `true` lets a
    /// fast path skip the per-word checks for the whole range until
    /// [`Env::cfi_epoch`] changes; `false` means "not provable as a range"
    /// and the caller must fall back to exact per-word `check_fetch` calls
    /// (preserving the faulting word address and event order). The
    /// conservative default is `false`.
    fn check_fetch_range(&self, _start: WordAddr, _end: WordAddr) -> bool {
        false
    }

    /// [`Env::sram_write`] with the word address of the *store instruction*
    /// attached — the check-elision hook. `certified` is `true` when the
    /// caller already knows `pc` holds a statically certified store (a
    /// fast-path slot whose elision bit is baked in); an environment with a
    /// store certificate may then skip its memory-map walk, but must remain
    /// byte-identical to the full check (same result, same stall cycles,
    /// same protection events). The default ignores the extra context.
    ///
    /// # Errors
    ///
    /// Exactly when [`Env::sram_write`] at the same `addr` would fault.
    fn sram_write_at(
        &mut self,
        pc: WordAddr,
        addr: u16,
        v: u8,
        certified: bool,
    ) -> Result<u8, Fault> {
        let _ = (pc, certified);
        self.sram_write(addr, v)
    }

    /// Whether the store instruction at `pc` is covered by a static store
    /// certificate under the current protection state. Fast-path image
    /// builders bake this into decoded slots; the stamp discipline is the
    /// same as for fetch grants — the image is replaced when the backing
    /// state changes. The default (`false`) opts out of elision.
    fn store_certified(&self, _pc: WordAddr) -> bool {
        false
    }
}

/// One retired instruction, as recorded by [`Cpu::step_traced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Word address the instruction was fetched from.
    pub pc: WordAddr,
    /// The instruction.
    pub instr: Instr,
    /// Cycle counter after it retired (deltas give per-instruction cost,
    /// including protection stalls).
    pub cycles_after: u64,
}

/// What a single [`Cpu::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// An ordinary instruction retired.
    Continue,
    /// A `BREAK` retired — the program signals completion to the harness.
    Break,
    /// A `SLEEP` retired — with no interrupt model, the CPU is idle forever.
    Sleep,
}

/// The AVR CPU bound to an environment `E`.
///
/// Architectural state is public for inspection and test setup; cycle and
/// instruction counters are read through [`Cpu::cycles`] /
/// [`Cpu::instructions`].
#[derive(Debug, Clone)]
pub struct Cpu<E> {
    /// General-purpose registers `r0`–`r31`.
    pub regs: [u8; 32],
    /// Program counter, in words.
    pub pc: WordAddr,
    /// Stack pointer (byte address; initialise to `RAMEND`).
    pub sp: u16,
    /// Status register.
    pub sreg: u8,
    /// RAMPZ extended-addressing register (for `ELPM`).
    pub rampz: u8,
    /// The machine environment.
    pub env: E,
    cycles: u64,
    instrs: u64,
    idle_cycles: u64,
    store_hint: bool,
}

impl<E: Env> Cpu<E> {
    /// Creates a CPU with zeroed registers, `PC = 0` and
    /// `SP = `[`RAMEND`](crate::mem::RAMEND).
    pub fn new(env: E) -> Cpu<E> {
        Cpu {
            regs: [0; 32],
            pc: 0,
            sp: crate::mem::RAMEND,
            sreg: 0,
            rampz: 0,
            env,
            cycles: 0,
            instrs: 0,
            idle_cycles: 0,
            store_hint: false,
        }
    }

    /// Marks the *next* store executed by [`Cpu::exec_decoded`] as
    /// statically certified: its SRAM write is routed to
    /// [`Env::sram_write_at`] with `certified = true`. Consumed (reset to
    /// `false`) by the next data-space write; a fast path sets it from the
    /// decoded slot's elision bit immediately before dispatch.
    #[inline]
    pub fn set_store_hint(&mut self, certified: bool) {
        self.store_hint = certified;
    }

    /// Total cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles spent asleep waiting for interrupts (included in
    /// [`Cpu::cycles`]) — the complement of the node's duty cycle.
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }

    /// Total instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instrs
    }

    /// Reads register `r`.
    #[inline]
    pub fn reg(&self, r: Reg) -> u8 {
        self.regs[r.index() as usize]
    }

    /// Writes register `r`.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u8) {
        self.regs[r.index() as usize] = v;
    }

    /// Reads the 16-bit pair whose low register is `lo`.
    #[inline]
    pub fn reg16(&self, lo: Reg) -> u16 {
        let i = lo.index() as usize;
        (self.regs[i + 1] as u16) << 8 | self.regs[i] as u16
    }

    /// Writes the 16-bit pair whose low register is `lo`.
    #[inline]
    pub fn set_reg16(&mut self, lo: Reg, v: u16) {
        let i = lo.index() as usize;
        self.regs[i] = v as u8;
        self.regs[i + 1] = (v >> 8) as u8;
    }

    /// Reads SREG flag `f` (use the [`flags`] constants).
    #[inline]
    pub fn flag(&self, f: u8) -> bool {
        self.sreg & (1 << f) != 0
    }

    /// Sets or clears SREG flag `f`.
    #[inline]
    pub fn set_flag(&mut self, f: u8, v: bool) {
        if v {
            self.sreg |= 1 << f;
        } else {
            self.sreg &= !(1 << f);
        }
    }

    // ── data-space routing ──────────────────────────────────────────────

    #[inline]
    fn data_read(&mut self, addr: u16) -> Result<u8, Fault> {
        match addr {
            0x00..=0x1f => Ok(self.regs[addr as usize]),
            0x20..=0x5f => Ok(self.io_in((addr - 0x20) as u8)),
            _ => self.env.sram_read(addr),
        }
    }

    /// Returns stall cycles contributed by the environment.
    #[inline]
    fn data_write(&mut self, addr: u16, v: u8) -> Result<u8, Fault> {
        match addr {
            0x00..=0x1f => {
                self.regs[addr as usize] = v;
                Ok(0)
            }
            0x20..=0x5f => self.io_out((addr - 0x20) as u8, v),
            _ => self.env.sram_write(addr, v),
        }
    }

    /// [`Cpu::data_write`] for the store instructions (`st`/`std`/`sts`),
    /// carrying the instruction's own word address and the pending
    /// certification hint down to the environment.
    #[inline]
    fn data_write_at(&mut self, pc: WordAddr, addr: u16, v: u8) -> Result<u8, Fault> {
        let certified = core::mem::take(&mut self.store_hint);
        match addr {
            0x00..=0x1f => {
                self.regs[addr as usize] = v;
                Ok(0)
            }
            0x20..=0x5f => self.io_out((addr - 0x20) as u8, v),
            _ => self.env.sram_write_at(pc, addr, v, certified),
        }
    }

    #[inline]
    fn io_in(&mut self, port: u8) -> u8 {
        match port {
            0x3d => self.sp as u8,
            0x3e => (self.sp >> 8) as u8,
            0x3f => self.sreg,
            0x3b => self.rampz,
            p => self.env.io_read(p),
        }
    }

    #[inline]
    fn io_out(&mut self, port: u8, v: u8) -> Result<u8, Fault> {
        match port {
            0x3d => {
                self.sp = (self.sp & 0xff00) | v as u16;
                Ok(0)
            }
            0x3e => {
                self.sp = (self.sp & 0x00ff) | ((v as u16) << 8);
                Ok(0)
            }
            0x3f => {
                self.sreg = v;
                Ok(0)
            }
            0x3b => {
                self.rampz = v;
                Ok(0)
            }
            p => self.env.io_write(p, v),
        }
    }

    // ── flag helpers ────────────────────────────────────────────────────

    #[inline]
    fn logic_flags(&mut self, res: u8) {
        self.set_flag(flags::V, false);
        self.set_flag(flags::N, res & 0x80 != 0);
        self.set_flag(flags::S, self.flag(flags::N));
        self.set_flag(flags::Z, res == 0);
    }

    #[inline]
    fn add_flags(&mut self, d: u8, r: u8, res: u8) {
        let (d, r, res) = (d as u16, r as u16, res as u16);
        let carries = (d & r) | (r & !res) | (!res & d);
        self.set_flag(flags::H, carries & 0x08 != 0);
        self.set_flag(flags::C, carries & 0x80 != 0);
        let v = (d & r & !res) | (!d & !r & res);
        self.set_flag(flags::V, v & 0x80 != 0);
        self.set_flag(flags::N, res & 0x80 != 0);
        self.set_flag(flags::S, self.flag(flags::N) != self.flag(flags::V));
        self.set_flag(flags::Z, res & 0xff == 0);
    }

    #[inline]
    fn sub_flags(&mut self, d: u8, r: u8, res: u8, preserve_z: bool) {
        let (d, r, res) = (d as u16, r as u16, res as u16);
        let borrows = (!d & r) | (r & res) | (res & !d);
        self.set_flag(flags::H, borrows & 0x08 != 0);
        self.set_flag(flags::C, borrows & 0x80 != 0);
        let v = (d & !r & !res) | (!d & r & res);
        self.set_flag(flags::V, v & 0x80 != 0);
        self.set_flag(flags::N, res & 0x80 != 0);
        self.set_flag(flags::S, self.flag(flags::N) != self.flag(flags::V));
        let z = res & 0xff == 0;
        if preserve_z {
            let zc = self.flag(flags::Z) && z;
            self.set_flag(flags::Z, zc);
        } else {
            self.set_flag(flags::Z, z);
        }
    }

    #[inline]
    fn shift_right_flags(&mut self, d: u8, res: u8) {
        self.set_flag(flags::C, d & 1 != 0);
        self.set_flag(flags::N, res & 0x80 != 0);
        self.set_flag(flags::V, self.flag(flags::N) != self.flag(flags::C));
        self.set_flag(flags::S, self.flag(flags::N) != self.flag(flags::V));
        self.set_flag(flags::Z, res == 0);
    }

    // ── pointer helpers ─────────────────────────────────────────────────

    /// Resolves the effective address of an indirect access and applies the
    /// pointer update, returning the address to access.
    #[inline]
    fn ptr_access(&mut self, ptr: Ptr, mode: PtrMode) -> u16 {
        let lo = ptr.lo();
        match mode {
            PtrMode::Plain => self.reg16(lo),
            PtrMode::PostInc => {
                let a = self.reg16(lo);
                self.set_reg16(lo, a.wrapping_add(1));
                a
            }
            PtrMode::PreDec => {
                let a = self.reg16(lo).wrapping_sub(1);
                self.set_reg16(lo, a);
                a
            }
        }
    }

    // ── execution ───────────────────────────────────────────────────────

    /// Fetches, decodes and executes one instruction, updating cycle and
    /// instruction counters.
    ///
    /// # Errors
    ///
    /// Any [`Fault`] from decode, the data bus, or the environment. The CPU
    /// state is left as of the start of the faulting instruction's commit —
    /// suitable for inspection by an exception handler in the harness.
    pub fn step(&mut self) -> Result<Step, Fault> {
        self.begin_step()?;
        self.step_tail()
    }

    /// Everything [`Cpu::step`] does before the fetch: latches the cycle
    /// counter into the environment and dispatches a pending interrupt if
    /// SREG `I` is set. Returns whether an interrupt dispatched (in which
    /// case the PC has moved to the vector). Exposed so a fast-path engine
    /// (harbor-turbo) can interleave the exact reference step sequence with
    /// its own cached decode.
    ///
    /// # Errors
    ///
    /// A [`Fault`] from the environment's interrupt-dispatch arbitration.
    #[inline]
    pub fn begin_step(&mut self) -> Result<bool, Fault> {
        self.env.set_now(self.cycles);
        // Interrupt dispatch: between instructions, with I set.
        if self.flag(flags::I) {
            if let Some(vector) = self.env.poll_irq(self.cycles) {
                let ev = CallEvent {
                    kind: CallKind::Interrupt,
                    from_pc: self.pc,
                    target: vector,
                    ret_addr: self.pc,
                    sp: self.sp,
                };
                let out = self.env.on_call(ev)?;
                self.sp = self.sp.wrapping_sub(2);
                self.pc = out.target & 0xffff;
                self.set_flag(flags::I, false);
                // AVR interrupt response time: 4 cycles + any unit stalls.
                self.cycles += 4 + out.extra_cycles as u64;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Everything [`Cpu::step`] does after interrupt dispatch: fetch,
    /// decode, execute. The fast-path engine falls back to this whenever
    /// its cache cannot serve the current PC.
    ///
    /// # Errors
    ///
    /// As [`Cpu::step`].
    #[inline]
    pub fn step_tail(&mut self) -> Result<Step, Fault> {
        let pc0 = self.pc;
        let w0 = self.env.fetch(pc0)?;
        let w1 =
            if isa::is_two_word(w0) { Some(self.env.fetch(pc0.wrapping_add(1))?) } else { None };
        let instr = isa::decode(w0, w1).map_err(|_| Fault::IllegalOpcode { pc: pc0, word: w0 })?;
        self.exec_decoded(pc0, instr)
    }

    /// Executes an already-decoded `instr` that was fetched from `pc0`,
    /// advancing the PC and updating cycle/instruction counters exactly as
    /// [`Cpu::step`] would. The caller is responsible for the fetch-side
    /// protection checks ([`Env::check_fetch`] on every word the reference
    /// `fetch` path would touch) — harbor-turbo does this per instruction.
    ///
    /// # Errors
    ///
    /// As [`Cpu::step`].
    pub fn exec_decoded(&mut self, pc0: WordAddr, instr: Instr) -> Result<Step, Fault> {
        let words = instr.words();
        self.pc = pc0.wrapping_add(words);
        let mut extra: u8 = 0;
        let mut step = Step::Continue;

        use Instr::*;
        match instr {
            Add { d, r } => {
                let dv = self.reg(d);
                let rv = self.reg(r);
                let res = dv.wrapping_add(rv);
                self.add_flags(dv, rv, res);
                self.set_reg(d, res);
            }
            Adc { d, r } => {
                let c = self.flag(flags::C) as u8;
                let dv = self.reg(d);
                let rv = self.reg(r);
                let res = dv.wrapping_add(rv).wrapping_add(c);
                self.add_flags(dv, rv, res);
                self.set_reg(d, res);
            }
            Sub { d, r } => {
                let dv = self.reg(d);
                let rv = self.reg(r);
                let res = dv.wrapping_sub(rv);
                self.sub_flags(dv, rv, res, false);
                self.set_reg(d, res);
            }
            Sbc { d, r } => {
                let c = self.flag(flags::C) as u8;
                let dv = self.reg(d);
                let rv = self.reg(r);
                let res = dv.wrapping_sub(rv).wrapping_sub(c);
                self.sub_flags(dv, rv, res, true);
                self.set_reg(d, res);
            }
            Subi { d, k } => {
                let dv = self.reg(d);
                let res = dv.wrapping_sub(k);
                self.sub_flags(dv, k, res, false);
                self.set_reg(d, res);
            }
            Sbci { d, k } => {
                let c = self.flag(flags::C) as u8;
                let dv = self.reg(d);
                let res = dv.wrapping_sub(k).wrapping_sub(c);
                self.sub_flags(dv, k, res, true);
                self.set_reg(d, res);
            }
            Cp { d, r } => {
                let dv = self.reg(d);
                let rv = self.reg(r);
                let res = dv.wrapping_sub(rv);
                self.sub_flags(dv, rv, res, false);
            }
            Cpc { d, r } => {
                let c = self.flag(flags::C) as u8;
                let dv = self.reg(d);
                let rv = self.reg(r);
                let res = dv.wrapping_sub(rv).wrapping_sub(c);
                self.sub_flags(dv, rv, res, true);
            }
            Cpi { d, k } => {
                let dv = self.reg(d);
                let res = dv.wrapping_sub(k);
                self.sub_flags(dv, k, res, false);
            }
            And { d, r } => {
                let res = self.reg(d) & self.reg(r);
                self.logic_flags(res);
                self.set_reg(d, res);
            }
            Or { d, r } => {
                let res = self.reg(d) | self.reg(r);
                self.logic_flags(res);
                self.set_reg(d, res);
            }
            Eor { d, r } => {
                let res = self.reg(d) ^ self.reg(r);
                self.logic_flags(res);
                self.set_reg(d, res);
            }
            Andi { d, k } => {
                let res = self.reg(d) & k;
                self.logic_flags(res);
                self.set_reg(d, res);
            }
            Ori { d, k } => {
                let res = self.reg(d) | k;
                self.logic_flags(res);
                self.set_reg(d, res);
            }
            Mov { d, r } => {
                let v = self.reg(r);
                self.set_reg(d, v);
            }
            Movw { d, r } => {
                let v = self.reg16(r);
                self.set_reg16(d, v);
            }
            Ldi { d, k } => self.set_reg(d, k),
            Com { d } => {
                let res = !self.reg(d);
                self.logic_flags(res);
                self.set_flag(flags::C, true);
                self.set_reg(d, res);
            }
            Neg { d } => {
                let dv = self.reg(d);
                let res = 0u8.wrapping_sub(dv);
                self.set_flag(flags::H, (res | dv) & 0x08 != 0);
                self.set_flag(flags::V, res == 0x80);
                self.set_flag(flags::C, res != 0);
                self.set_flag(flags::N, res & 0x80 != 0);
                self.set_flag(flags::S, self.flag(flags::N) != self.flag(flags::V));
                self.set_flag(flags::Z, res == 0);
                self.set_reg(d, res);
            }
            Swap { d } => {
                let v = self.reg(d);
                self.set_reg(d, v.rotate_right(4));
            }
            Inc { d } => {
                let dv = self.reg(d);
                let res = dv.wrapping_add(1);
                self.set_flag(flags::V, dv == 0x7f);
                self.set_flag(flags::N, res & 0x80 != 0);
                self.set_flag(flags::S, self.flag(flags::N) != self.flag(flags::V));
                self.set_flag(flags::Z, res == 0);
                self.set_reg(d, res);
            }
            Dec { d } => {
                let dv = self.reg(d);
                let res = dv.wrapping_sub(1);
                self.set_flag(flags::V, dv == 0x80);
                self.set_flag(flags::N, res & 0x80 != 0);
                self.set_flag(flags::S, self.flag(flags::N) != self.flag(flags::V));
                self.set_flag(flags::Z, res == 0);
                self.set_reg(d, res);
            }
            Asr { d } => {
                let dv = self.reg(d);
                let res = ((dv as i8) >> 1) as u8;
                self.shift_right_flags(dv, res);
                self.set_reg(d, res);
            }
            Lsr { d } => {
                let dv = self.reg(d);
                let res = dv >> 1;
                self.shift_right_flags(dv, res);
                self.set_reg(d, res);
            }
            Ror { d } => {
                let dv = self.reg(d);
                let res = (dv >> 1) | if self.flag(flags::C) { 0x80 } else { 0 };
                self.shift_right_flags(dv, res);
                self.set_reg(d, res);
            }
            Adiw { p, k } => {
                let dv = self.reg16(p.lo());
                let res = dv.wrapping_add(k as u16);
                self.set_flag(flags::V, (!dv & res) & 0x8000 != 0);
                self.set_flag(flags::C, (!res & dv) & 0x8000 != 0);
                self.set_flag(flags::N, res & 0x8000 != 0);
                self.set_flag(flags::S, self.flag(flags::N) != self.flag(flags::V));
                self.set_flag(flags::Z, res == 0);
                self.set_reg16(p.lo(), res);
            }
            Sbiw { p, k } => {
                let dv = self.reg16(p.lo());
                let res = dv.wrapping_sub(k as u16);
                self.set_flag(flags::V, (dv & !res) & 0x8000 != 0);
                self.set_flag(flags::C, (res & !dv) & 0x8000 != 0);
                self.set_flag(flags::N, res & 0x8000 != 0);
                self.set_flag(flags::S, self.flag(flags::N) != self.flag(flags::V));
                self.set_flag(flags::Z, res == 0);
                self.set_reg16(p.lo(), res);
            }
            Mul { d, r } => {
                let res = self.reg(d) as u16 * self.reg(r) as u16;
                self.mul_commit(res);
            }
            Muls { d, r } => {
                let res = (self.reg(d) as i8 as i16 * self.reg(r) as i8 as i16) as u16;
                self.mul_commit(res);
            }
            Mulsu { d, r } => {
                let res = (self.reg(d) as i8 as i16).wrapping_mul(self.reg(r) as i16) as u16;
                self.mul_commit(res);
            }
            Fmul { d, r } => {
                let prod = self.reg(d) as u16 * self.reg(r) as u16;
                self.fmul_commit(prod);
            }
            Fmuls { d, r } => {
                let prod = (self.reg(d) as i8 as i16 * self.reg(r) as i8 as i16) as u16;
                self.fmul_commit(prod);
            }
            Fmulsu { d, r } => {
                let prod = (self.reg(d) as i8 as i16).wrapping_mul(self.reg(r) as i16) as u16;
                self.fmul_commit(prod);
            }

            // ── control flow ────────────────────────────────────────────
            Rjmp { k } => {
                self.pc = self.pc.wrapping_add(k as i32 as u32) & 0xffff;
            }
            Jmp { k } => {
                self.pc = k & 0xffff;
            }
            Ijmp => {
                self.pc = self.reg16(Reg::ZL) as u32;
            }
            Rcall { k } => {
                let target = self.pc.wrapping_add(k as i32 as u32) & 0xffff;
                extra = self.do_call(CallKind::Rcall, pc0, target)?;
            }
            Call { k } => {
                extra = self.do_call(CallKind::Call, pc0, k & 0xffff)?;
            }
            Icall => {
                let target = self.reg16(Reg::ZL) as u32;
                extra = self.do_call(CallKind::Icall, pc0, target)?;
            }
            Ret => {
                let out = self.env.on_ret(self.sp)?;
                self.sp = self.sp.wrapping_add(2);
                self.pc = out.target & 0xffff;
                extra = out.extra_cycles;
            }
            Reti => {
                let out = self.env.on_ret(self.sp)?;
                self.sp = self.sp.wrapping_add(2);
                self.pc = out.target & 0xffff;
                extra = out.extra_cycles;
                self.set_flag(flags::I, true);
            }
            Brbs { s, k } => {
                if self.flag(s) {
                    self.pc = self.pc.wrapping_add(k as i32 as u32) & 0xffff;
                    extra = 1;
                }
            }
            Brbc { s, k } => {
                if !self.flag(s) {
                    self.pc = self.pc.wrapping_add(k as i32 as u32) & 0xffff;
                    extra = 1;
                }
            }
            Cpse { d, r } => {
                if self.reg(d) == self.reg(r) {
                    extra = self.do_skip()?;
                }
            }
            Sbrc { r, b } => {
                if self.reg(r) & (1 << b) == 0 {
                    extra = self.do_skip()?;
                }
            }
            Sbrs { r, b } => {
                if self.reg(r) & (1 << b) != 0 {
                    extra = self.do_skip()?;
                }
            }
            Sbic { a, b } => {
                if self.io_in(a) & (1 << b) == 0 {
                    extra = self.do_skip()?;
                }
            }
            Sbis { a, b } => {
                if self.io_in(a) & (1 << b) != 0 {
                    extra = self.do_skip()?;
                }
            }

            // ── data transfer ───────────────────────────────────────────
            Ld { d, ptr, mode } => {
                let addr = self.ptr_access(ptr, mode);
                let v = self.data_read(addr)?;
                self.set_reg(d, v);
            }
            St { ptr, mode, r } => {
                let v = self.reg(r);
                let addr = self.ptr_access(ptr, mode);
                extra = self.data_write_at(pc0, addr, v)?;
            }
            Ldd { d, ptr, q } => {
                let addr = self.reg16(ptr.lo()).wrapping_add(q as u16);
                let v = self.data_read(addr)?;
                self.set_reg(d, v);
            }
            Std { ptr, q, r } => {
                let v = self.reg(r);
                let addr = self.reg16(ptr.lo()).wrapping_add(q as u16);
                extra = self.data_write_at(pc0, addr, v)?;
            }
            Lds { d, k } => {
                let v = self.data_read(k)?;
                self.set_reg(d, v);
            }
            Sts { k, r } => {
                let v = self.reg(r);
                extra = self.data_write_at(pc0, k, v)?;
            }
            Lpm0 => {
                let v = self.env.flash_byte(self.reg16(Reg::ZL) as u32);
                self.set_reg(Reg::R0, v);
            }
            Lpm { d, inc } => {
                let z = self.reg16(Reg::ZL);
                let v = self.env.flash_byte(z as u32);
                self.set_reg(d, v);
                if inc {
                    self.set_reg16(Reg::ZL, z.wrapping_add(1));
                }
            }
            Elpm0 => {
                let a = ((self.rampz as u32) << 16) | self.reg16(Reg::ZL) as u32;
                let v = self.env.flash_byte(a);
                self.set_reg(Reg::R0, v);
            }
            Elpm { d, inc } => {
                let a = ((self.rampz as u32) << 16) | self.reg16(Reg::ZL) as u32;
                let v = self.env.flash_byte(a);
                self.set_reg(d, v);
                if inc {
                    let a = a.wrapping_add(1);
                    self.rampz = (a >> 16) as u8;
                    self.set_reg16(Reg::ZL, a as u16);
                }
            }
            In { d, a } => {
                let v = self.io_in(a);
                self.set_reg(d, v);
            }
            Out { a, r } => {
                let v = self.reg(r);
                extra = self.io_out(a, v)?;
            }
            Push { r } => {
                let v = self.reg(r);
                extra = self.data_write(self.sp, v)?;
                self.sp = self.sp.wrapping_sub(1);
            }
            Pop { d } => {
                self.sp = self.sp.wrapping_add(1);
                let v = self.data_read(self.sp)?;
                self.set_reg(d, v);
            }

            // ── bit operations ──────────────────────────────────────────
            Bset { s } => self.set_flag(s, true),
            Bclr { s } => self.set_flag(s, false),
            Sbi { a, b } => {
                let v = self.io_in(a) | (1 << b);
                extra = self.io_out(a, v)?;
            }
            Cbi { a, b } => {
                let v = self.io_in(a) & !(1 << b);
                extra = self.io_out(a, v)?;
            }
            Bst { d, b } => {
                let t = self.reg(d) & (1 << b) != 0;
                self.set_flag(flags::T, t);
            }
            Bld { d, b } => {
                let v = if self.flag(flags::T) {
                    self.reg(d) | (1 << b)
                } else {
                    self.reg(d) & !(1 << b)
                };
                self.set_reg(d, v);
            }

            // ── MCU control ─────────────────────────────────────────────
            Nop | Wdr => {}
            Sleep => {
                // Real AVR sleep: idle until an interrupt wakes the core.
                // With interrupts enabled and a scheduled source, fast-
                // forward the clock to the wake-up (accounted as idle
                // cycles); otherwise sleep is terminal.
                match self.env.next_irq_at() {
                    Some(at) if self.flag(flags::I) => {
                        let now = self.cycles + instr.base_cycles() as u64;
                        if at > now {
                            self.idle_cycles += at - now;
                            self.cycles = at - instr.base_cycles() as u64;
                        }
                        // The pending interrupt dispatches on the next
                        // step(); execution resumes after the SLEEP.
                    }
                    _ => step = Step::Sleep,
                }
            }
            Break => step = Step::Break,
        }

        self.cycles += instr.base_cycles() as u64 + extra as u64;
        self.instrs += 1;
        Ok(step)
    }

    #[inline]
    fn mul_commit(&mut self, res: u16) {
        self.set_flag(flags::C, res & 0x8000 != 0);
        self.set_flag(flags::Z, res == 0);
        self.set_reg(Reg::R0, res as u8);
        self.set_reg(Reg::R1, (res >> 8) as u8);
    }

    #[inline]
    fn fmul_commit(&mut self, prod: u16) {
        let res = prod << 1;
        self.set_flag(flags::C, prod & 0x8000 != 0);
        self.set_flag(flags::Z, res == 0);
        self.set_reg(Reg::R0, res as u8);
        self.set_reg(Reg::R1, (res >> 8) as u8);
    }

    fn do_call(
        &mut self,
        kind: CallKind,
        from_pc: WordAddr,
        target: WordAddr,
    ) -> Result<u8, Fault> {
        let ev = CallEvent {
            kind,
            from_pc,
            target,
            ret_addr: self.pc, // already advanced past the call instruction
            sp: self.sp,
        };
        let out = self.env.on_call(ev)?;
        self.sp = self.sp.wrapping_sub(2);
        self.pc = out.target & 0xffff;
        Ok(out.extra_cycles)
    }

    /// Skips the next instruction; returns the extra cycles (its word count).
    fn do_skip(&mut self) -> Result<u8, Fault> {
        let w = self.env.fetch(self.pc)?;
        let len = if isa::is_two_word(w) { 2 } else { 1 };
        self.pc = self.pc.wrapping_add(len);
        Ok(len as u8)
    }

    /// Executes one instruction and records what ran: the pre-execution PC,
    /// the decoded instruction and the cycle counter afterwards. The fetch
    /// for decoding is repeated through the environment, so environment
    /// fetch checks (CFI) behave identically to [`Cpu::step`].
    ///
    /// Intended for interrupt-free analysis: if an interrupt dispatches
    /// inside this step, the recorded PC is the pre-dispatch one.
    ///
    /// # Errors
    ///
    /// As [`Cpu::step`].
    pub fn step_traced(&mut self) -> Result<(Step, TraceEntry), Fault> {
        // Decode first, while the active domain still matches the PC (a
        // protection environment's fetch check is domain-sensitive).
        let pc = self.pc;
        let w0 = self.env.fetch(pc)?;
        let w1 = if isa::is_two_word(w0) { Some(self.env.fetch(pc + 1)?) } else { None };
        let instr = isa::decode(w0, w1).map_err(|_| Fault::IllegalOpcode { pc, word: w0 })?;
        let step = self.step()?;
        Ok((step, TraceEntry { pc, instr, cycles_after: self.cycles }))
    }

    /// Runs up to `max_steps` instructions, appending a [`TraceEntry`] per
    /// retired instruction, until a `BREAK`/`SLEEP` or the step limit.
    ///
    /// # Errors
    ///
    /// As [`Cpu::step`]; entries retired before the fault are kept.
    pub fn run_traced(
        &mut self,
        max_steps: usize,
        trace: &mut Vec<TraceEntry>,
    ) -> Result<Step, Fault> {
        for _ in 0..max_steps {
            let (step, entry) = self.step_traced()?;
            trace.push(entry);
            if step != Step::Continue {
                return Ok(step);
            }
        }
        Ok(Step::Continue)
    }

    /// Runs until a `BREAK` or `SLEEP` retires.
    ///
    /// # Errors
    ///
    /// Any execution [`Fault`], or [`Fault::CycleLimit`] once more than
    /// `max_cycles` have elapsed.
    pub fn run_to_break(&mut self, max_cycles: u64) -> Result<Step, Fault> {
        let limit = self.cycles.saturating_add(max_cycles);
        loop {
            match self.step()? {
                Step::Continue => {}
                s => return Ok(s),
            }
            if self.cycles > limit {
                return Err(Fault::CycleLimit { cycles: self.cycles });
            }
        }
    }

    /// Runs until the PC reaches `stop_pc` (useful for timing code spans).
    ///
    /// # Errors
    ///
    /// Any execution [`Fault`], or [`Fault::CycleLimit`] once more than
    /// `max_cycles` have elapsed. A `BREAK`/`SLEEP` before `stop_pc` also
    /// stops (returning the step kind).
    pub fn run_to_pc(&mut self, stop_pc: WordAddr, max_cycles: u64) -> Result<Step, Fault> {
        let limit = self.cycles.saturating_add(max_cycles);
        while self.pc != stop_pc {
            match self.step()? {
                Step::Continue => {}
                s => return Ok(s),
            }
            if self.cycles > limit {
                return Err(Fault::CycleLimit { cycles: self.cycles });
            }
        }
        Ok(Step::Continue)
    }
}
