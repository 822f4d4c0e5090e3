//! ATmega103-class memory system: flash, SRAM, I/O space and the plain
//! (protection-free) execution environment.

use crate::exec::{CallEvent, CallOutcome, Env, RetOutcome};
use crate::isa::{encode, Instr};
use crate::{Fault, WordAddr};
use std::sync::Arc;

/// Flash size in 16-bit words (128 KiB).
pub const FLASH_WORDS: usize = 0x1_0000;
/// First data-space address of the I/O ports.
pub const IO_BASE: u16 = 0x20;
/// Number of I/O ports.
pub const IO_PORTS: usize = 64;
/// First data-space address of internal SRAM.
pub const SRAM_BASE: u16 = 0x60;
/// Internal SRAM size in bytes (ATmega103: 4000 B).
pub const SRAM_SIZE: usize = 4000;
/// Highest valid data-space address (`0x0fff`).
pub const RAMEND: u16 = SRAM_BASE + SRAM_SIZE as u16 - 1;
/// Flash page size in bytes — the allocation unit for jump tables.
pub const FLASH_PAGE_BYTES: usize = 256;
// Flash page size in 16-bit words, and the number of pages.
const FLASH_PAGE_WORDS: usize = FLASH_PAGE_BYTES / 2;
const FLASH_PAGES: usize = FLASH_WORDS / FLASH_PAGE_WORDS;

/// Simulator debug port: bytes written here are captured by the environment
/// (a poor man's UART for tests and examples). Unused on a real ATmega103.
pub const PORT_DEBUG: u8 = 0x1a;

/// Simulator panic port: writing byte `v` aborts execution with an
/// environment fault of code `v`. Trusted software (the SFI run-time, the
/// kernel's exception handler) uses this to signal protection violations to
/// the harness, mirroring how the UMPU hardware reports faults.
pub const PORT_PANIC: u8 = 0x19;

/// 128 KiB of program flash, word-addressed, held as 512 copy-on-write
/// pages of 128 words (one [`FLASH_PAGE_BYTES`] page each).
///
/// A clone shares every page with its source, so a fleet of clones of one
/// booted prototype (and every checkpoint of a node) holds one copy of the
/// flash they have in common. Ownership is the rule a memory allocator's
/// blocks keep (a block owns its range, and no two writable ranges may
/// overlap), enforced by the type: the only write path,
/// [`Flash::set_word`], goes through [`Arc::make_mut`], which copies a
/// shared page before writing to it. No clone can therefore see another
/// clone's burn, and a clone owns exactly the pages it has written since
/// it was made.
///
/// Two flashes are equal when every word is: a page they share is equal
/// by pointer, and only pages copied on either side are compared word by
/// word, so comparing two clones costs about their burns.
#[derive(Debug, Clone)]
pub struct Flash {
    // Fixed-size, so the page and word indices of a wrapped address are
    // in bounds by construction.
    pages: Box<[Arc<[u16; FLASH_PAGE_WORDS]>; FLASH_PAGES]>,
}

impl Default for Flash {
    fn default() -> Self {
        Flash::new()
    }
}

impl PartialEq for Flash {
    fn eq(&self, other: &Flash) -> bool {
        self.pages.iter().zip(other.pages.iter()).all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Eq for Flash {}

impl Flash {
    /// Creates erased (all-ones, like real flash) program memory. Every
    /// page starts as one shared erased page.
    pub fn new() -> Flash {
        let erased = Arc::new([0xffff; FLASH_PAGE_WORDS]);
        Flash { pages: Box::new(std::array::from_fn(|_| Arc::clone(&erased))) }
    }

    /// Reads the word at `addr` (wraps at the flash size, like the PC does).
    pub fn word(&self, addr: WordAddr) -> u16 {
        let a = addr as usize % FLASH_WORDS;
        self.pages[a / FLASH_PAGE_WORDS][a % FLASH_PAGE_WORDS]
    }

    /// Writes one word (host-side loader operation; the simulated CPU cannot
    /// write flash — modules "are not allowed to directly write to flash").
    /// A page shared with another clone is copied first.
    pub fn set_word(&mut self, addr: WordAddr, w: u16) {
        let a = addr as usize % FLASH_WORDS;
        Arc::make_mut(&mut self.pages[a / FLASH_PAGE_WORDS])[a % FLASH_PAGE_WORDS] = w;
    }

    /// Reads a byte using LPM addressing (byte address; bit 0 selects the
    /// low/high byte of the word).
    pub fn byte(&self, byte_addr: u32) -> u8 {
        let w = self.word(byte_addr >> 1);
        if byte_addr & 1 == 0 {
            w as u8
        } else {
            (w >> 8) as u8
        }
    }

    /// Writes a byte using LPM addressing (host-side loader operation).
    pub fn set_byte(&mut self, byte_addr: u32, v: u8) {
        let w = self.word(byte_addr >> 1);
        let w = if byte_addr & 1 == 0 {
            (w & 0xff00) | v as u16
        } else {
            (w & 0x00ff) | ((v as u16) << 8)
        };
        self.set_word(byte_addr >> 1, w);
    }

    /// Copies `words` into flash starting at word address `addr`.
    pub fn load_words(&mut self, addr: WordAddr, words: &[u16]) {
        for (i, &w) in words.iter().enumerate() {
            self.set_word(addr + i as u32, w);
        }
    }

    /// Encodes and loads a straight-line instruction sequence at `addr`,
    /// returning the first word address after it.
    ///
    /// # Panics
    ///
    /// Panics if an instruction has out-of-range operands; test/bench
    /// programs are static, so this is a programming error.
    pub fn load_program(&mut self, addr: WordAddr, prog: &[Instr]) -> WordAddr {
        let mut at = addr;
        for &i in prog {
            let e = encode(i).expect("load_program: invalid instruction operands");
            for w in e.as_slice() {
                self.set_word(at, *w);
                at += 1;
            }
        }
        at
    }
}

/// 4000 bytes of internal SRAM plus the 64-port I/O register file.
#[derive(Debug, Clone)]
pub struct DataMem {
    sram: Vec<u8>,
    io: [u8; IO_PORTS],
}

impl Default for DataMem {
    fn default() -> Self {
        DataMem::new()
    }
}

impl DataMem {
    /// Creates zeroed SRAM and I/O space.
    pub fn new() -> DataMem {
        DataMem { sram: vec![0; SRAM_SIZE], io: [0; IO_PORTS] }
    }

    /// Reads a byte at data-space address `addr` (must be ≥ [`SRAM_BASE`]).
    ///
    /// # Errors
    ///
    /// [`Fault::BadDataAddress`] above [`RAMEND`].
    pub fn read(&self, addr: u16) -> Result<u8, Fault> {
        self.sram
            .get(addr.wrapping_sub(SRAM_BASE) as usize)
            .copied()
            .ok_or(Fault::BadDataAddress { addr })
    }

    /// Writes a byte at data-space address `addr` (must be ≥ [`SRAM_BASE`]).
    ///
    /// # Errors
    ///
    /// [`Fault::BadDataAddress`] above [`RAMEND`].
    pub fn write(&mut self, addr: u16, v: u8) -> Result<(), Fault> {
        match self.sram.get_mut(addr.wrapping_sub(SRAM_BASE) as usize) {
            Some(b) => {
                *b = v;
                Ok(())
            }
            None => Err(Fault::BadDataAddress { addr }),
        }
    }

    /// Raw I/O port byte (CPU-internal ports like SP/SREG live in the CPU,
    /// not here).
    pub fn io(&self, port: u8) -> u8 {
        self.io[port as usize % IO_PORTS]
    }

    /// Sets a raw I/O port byte.
    pub fn set_io(&mut self, port: u8, v: u8) {
        self.io[port as usize % IO_PORTS] = v;
    }

    /// The SRAM contents (index 0 is data-space address [`SRAM_BASE`]).
    pub fn sram(&self) -> &[u8] {
        &self.sram
    }

    /// Mutable SRAM contents.
    pub fn sram_mut(&mut self) -> &mut [u8] {
        &mut self.sram
    }
}

/// A periodic timer interrupt source (a minimal Timer0-in-CTC-mode model):
/// raises its vector every `period` cycles while armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timer {
    period: u64,
    vector: WordAddr,
    next_fire: u64,
}

impl Timer {
    /// A timer firing every `period` cycles, dispatching to the vector at
    /// word address `vector`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: u64, vector: WordAddr) -> Timer {
        assert!(period > 0, "timer period must be positive");
        Timer { period, vector, next_fire: period }
    }

    /// The configured period in cycles.
    pub const fn period(&self) -> u64 {
        self.period
    }

    /// Cycle count of the next pending fire.
    pub const fn next_fire(&self) -> u64 {
        self.next_fire
    }

    /// Polls the timer at the current cycle count; returns the vector when
    /// it fires. Missed periods coalesce into one interrupt (the interrupt
    /// flag is a single bit in hardware).
    pub fn poll(&mut self, cycles: u64) -> Option<WordAddr> {
        if cycles >= self.next_fire {
            self.next_fire = cycles + self.period;
            Some(self.vector)
        } else {
            None
        }
    }
}

/// The protection-free environment: a stock ATmega103.
///
/// Used directly for baseline ("unprotected") runs and as the machine under
/// the SFI run-time (where all checks are software in the trusted kernel).
/// Writes to [`PORT_DEBUG`] are captured in [`PlainEnv::debug_out`].
#[derive(Debug, Clone, Default)]
pub struct PlainEnv {
    /// Program flash.
    pub flash: Flash,
    /// SRAM and I/O.
    pub data: DataMem,
    /// Bytes written to the debug port, in order.
    pub debug_out: Vec<u8>,
    /// Optional periodic timer interrupt source.
    pub timer: Option<Timer>,
}

impl PlainEnv {
    /// Creates a fresh machine with erased flash and zeroed RAM.
    pub fn new() -> PlainEnv {
        PlainEnv::default()
    }

    /// Loads an instruction sequence into flash (see [`Flash::load_program`]).
    pub fn load_program(&mut self, addr: WordAddr, prog: &[Instr]) -> WordAddr {
        self.flash.load_program(addr, prog)
    }

    /// Convenience accessor for one SRAM byte by absolute data address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside SRAM.
    pub fn sram_byte(&self, addr: u16) -> u8 {
        self.data.read(addr).expect("address outside SRAM")
    }

    /// Sets one SRAM byte by absolute data address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside SRAM.
    pub fn set_sram_byte(&mut self, addr: u16, v: u8) {
        self.data.write(addr, v).expect("address outside SRAM");
    }
}

impl Env for PlainEnv {
    fn fetch(&mut self, pc: WordAddr) -> Result<u16, Fault> {
        Ok(self.flash.word(pc))
    }

    fn flash_byte(&mut self, byte_addr: u32) -> u8 {
        self.flash.byte(byte_addr)
    }

    fn sram_read(&mut self, addr: u16) -> Result<u8, Fault> {
        self.data.read(addr)
    }

    fn sram_write(&mut self, addr: u16, v: u8) -> Result<u8, Fault> {
        self.data.write(addr, v)?;
        Ok(0)
    }

    fn io_read(&mut self, port: u8) -> u8 {
        self.data.io(port)
    }

    fn io_write(&mut self, port: u8, v: u8) -> Result<u8, Fault> {
        if port == PORT_DEBUG {
            self.debug_out.push(v);
        }
        if port == PORT_PANIC {
            return Err(Fault::Env(crate::EnvFault { code: v as u16, addr: 0, info: 0 }));
        }
        self.data.set_io(port, v);
        Ok(0)
    }

    fn on_call(&mut self, ev: CallEvent) -> Result<CallOutcome, Fault> {
        // Push the 16-bit return word address, low byte first (so the high
        // byte ends up at the lower address), then SP -= 2 in the CPU.
        let ret = ev.ret_addr as u16;
        self.data.write(ev.sp, ret as u8)?;
        self.data.write(ev.sp.wrapping_sub(1), (ret >> 8) as u8)?;
        Ok(CallOutcome { target: ev.target, extra_cycles: 0 })
    }

    fn on_ret(&mut self, sp: u16) -> Result<RetOutcome, Fault> {
        let hi = self.data.read(sp.wrapping_add(1))?;
        let lo = self.data.read(sp.wrapping_add(2))?;
        Ok(RetOutcome { target: ((hi as u32) << 8) | lo as u32, extra_cycles: 0 })
    }

    fn poll_irq(&mut self, cycles: u64) -> Option<crate::WordAddr> {
        self.timer.as_mut().and_then(|t| t.poll(cycles))
    }

    fn next_irq_at(&self) -> Option<u64> {
        self.timer.as_ref().map(Timer::next_fire)
    }

    // `check_fetch` keeps the never-faulting default: `fetch` cannot fail.
    // That also makes every range trivially fetchable, forever (the epoch
    // keeps its constant default).
    fn check_fetch_range(&self, _start: WordAddr, _end: WordAddr) -> bool {
        true
    }

    fn code_word(&self, pc: WordAddr) -> Option<u16> {
        Some(self.flash.word(pc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Reg;

    #[test]
    fn flash_bytes_and_words() {
        let mut f = Flash::new();
        assert_eq!(f.word(0), 0xffff, "erased flash reads all ones");
        f.set_word(0x10, 0xbeef);
        assert_eq!(f.byte(0x20), 0xef, "even byte address is the low byte");
        assert_eq!(f.byte(0x21), 0xbe);
        f.set_byte(0x21, 0x12);
        assert_eq!(f.word(0x10), 0x12ef);
    }

    /// How many page slots of `a` and `b` hold the same shared page.
    fn shared_pages(a: &Flash, b: &Flash) -> usize {
        a.pages.iter().zip(b.pages.iter()).filter(|(x, y)| Arc::ptr_eq(x, y)).count()
    }

    #[test]
    fn a_clone_shares_every_page() {
        let mut f = Flash::new();
        f.load_words(0x100, &[1, 2, 3]);
        let c = f.clone();
        assert_eq!(shared_pages(&f, &c), FLASH_PAGES);
        assert_eq!(c.word(0x101), 2);
    }

    #[test]
    fn a_write_unshares_exactly_its_page() {
        let mut f = Flash::new();
        f.load_words(0x100, &[1, 2, 3]);
        let mut c = f.clone();
        c.set_word(0x101, 0xbeef);
        assert_eq!(shared_pages(&f, &c), FLASH_PAGES - 1);
        assert!(!Arc::ptr_eq(
            &f.pages[0x100 / FLASH_PAGE_WORDS],
            &c.pages[0x100 / FLASH_PAGE_WORDS]
        ));
        assert_eq!((c.word(0x100), c.word(0x101), c.word(0x102)), (1, 0xbeef, 3));
        assert_eq!((f.word(0x100), f.word(0x101), f.word(0x102)), (1, 2, 3), "source unchanged");

        // A page that is still erased is shared too: the first write to it
        // copies it, and the source stays erased.
        c.set_word(0x8000, 0x1234);
        assert_eq!(shared_pages(&f, &c), FLASH_PAGES - 2);
        assert_eq!(f.word(0x8000), 0xffff);
        assert_eq!(c.word(0x8001), 0xffff, "the copy keeps the page's other words");

        // Writing to a page the clone already owns copies nothing more.
        c.set_word(0x102, 7);
        assert_eq!(shared_pages(&f, &c), FLASH_PAGES - 2);
        assert_eq!(f.word(0x102), 3);
    }

    #[test]
    fn equality_is_by_content_whoever_owns_the_pages() {
        let mut f = Flash::new();
        f.load_words(0x100, &[1, 2, 3]);
        let (mut a, mut b) = (f.clone(), f.clone());
        assert_eq!(a, b, "clones share every page");
        a.load_words(0x4000, &[7, 8]);
        assert_ne!(a, b, "a burn differs from the erased page");
        b.load_words(0x4000, &[7, 8]);
        assert_eq!(shared_pages(&a, &b), FLASH_PAGES - 1, "each burn copied its own page");
        assert_eq!(a, b, "copied pages compare by content");
        b.set_word(0x4001, 9);
        assert_ne!(a, b);
        assert_ne!(f, a, "the source keeps its erased page");
    }

    #[test]
    fn load_words_crosses_a_page_boundary() {
        let mut f = Flash::new();
        let at = 3 * FLASH_PAGE_WORDS as u32 - 2;
        f.load_words(at, &[0xa0, 0xa1, 0xa2, 0xa3]);
        let got: Vec<u16> = (at - 1..at + 5).map(|a| f.word(a)).collect();
        assert_eq!(got, [0xffff, 0xa0, 0xa1, 0xa2, 0xa3, 0xffff]);
    }

    #[test]
    fn addresses_wrap_at_the_flash_size() {
        let mut f = Flash::new();
        let size = FLASH_WORDS as u32;
        f.set_word(size + 5, 0x1234);
        assert_eq!(f.word(5), 0x1234);
        assert_eq!(f.word(2 * size + 5), 0x1234);
        f.load_words(size - 1, &[0xaaaa, 0xbbbb]);
        assert_eq!((f.word(size - 1), f.word(0)), (0xaaaa, 0xbbbb));
        assert_eq!(f.byte(2 * size), 0xbb, "byte addresses wrap with their word");
    }

    #[test]
    fn set_byte_writes_either_half_of_a_word() {
        let mut f = Flash::new();
        f.set_word(0x20, 0x0000);
        let mut c = f.clone();
        c.set_byte(0x40, 0x34);
        assert_eq!(c.word(0x20), 0x0034, "even byte: low half");
        c.set_byte(0x41, 0x12);
        assert_eq!(c.word(0x20), 0x1234, "odd byte: high half");
        assert_eq!((c.byte(0x40), c.byte(0x41)), (0x34, 0x12));
        assert_eq!(f.word(0x20), 0x0000, "the source is untouched");
    }

    #[test]
    fn sram_bounds() {
        let mut m = DataMem::new();
        assert!(m.write(SRAM_BASE, 1).is_ok());
        assert!(m.write(RAMEND, 2).is_ok());
        assert_eq!(m.read(SRAM_BASE), Ok(1));
        assert_eq!(m.read(RAMEND), Ok(2));
        assert_eq!(m.write(RAMEND + 1, 0), Err(Fault::BadDataAddress { addr: RAMEND + 1 }));
        assert!(m.read(0x5f).is_err(), "I/O space is not SRAM");
    }

    #[test]
    fn load_program_packs_words() {
        let mut f = Flash::new();
        let end = f.load_program(4, &[Instr::Ldi { d: Reg::R16, k: 1 }, Instr::Jmp { k: 0x40 }]);
        assert_eq!(end, 4 + 1 + 2);
        assert_eq!(f.word(4), 0xe001);
        assert_eq!(f.word(5), 0x940c);
        assert_eq!(f.word(6), 0x0040);
    }

    #[test]
    fn ramend_is_0x0fff() {
        assert_eq!(RAMEND, 0x0fff);
    }
}
