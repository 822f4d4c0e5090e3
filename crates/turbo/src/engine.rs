//! The turbo engine: a generation-keyed predecoded-page cache over the
//! decode table, stepping the reference CPU without per-instruction
//! fetch/decode work.
//!
//! # Cycle-identity contract
//!
//! Every [`TurboEngine::step`] performs *exactly* the reference
//! [`Cpu::step`] sequence, with cached decode substituted for fetch+decode:
//!
//! 1. [`Cpu::begin_step`] — cycle latch into the environment, then interrupt
//!    dispatch (identical to the reference; the page lookup simply restarts
//!    at the vector).
//! 2. The fetch-side protection check, in one of two equivalent forms:
//!    * a cached **whole-page grant** — [`Env::check_fetch_range`] proved
//!      once, under the current [`Env::cfi_epoch`], that every word of the
//!      256-word page passes [`Env::check_fetch`]; granted checks are
//!      side-effect free, so skipping their re-execution is unobservable;
//!    * otherwise, per-word [`Env::check_fetch`] on the instruction's first
//!      word — and on its second word for two-word instructions — in the
//!      same order the reference `fetch` calls would run, so a protection
//!      environment raises the same CFI fault at the same word with the
//!      same trace events.
//! 3. [`Cpu::exec_decoded`] with the cached instruction — the same execute
//!    match, cycle accounting and counters as the reference.
//!
//! Anything the cache cannot serve (an environment without
//! [`Env::code_word`], a reserved encoding) falls back to
//! [`Cpu::step_tail`], the literal reference tail, so faults like
//! [`Fault::IllegalOpcode`] are byte-identical too. Per-store MMC checks,
//! safe-stack arbitration and I/O side effects all still run through the
//! environment on every instruction — only fetch/decode bookkeeping is
//! hoisted out of the per-instruction path.
//!
//! # Cache organisation
//!
//! Decoded code lives in one [`DecodedImage`]: a slot for every word of the
//! 64k-word flash, in 256-word pages (a flat `pc → instruction` array, so
//! a lookup is two dependent loads with no tag compare). An engine steps
//! from one whole image behind an `Arc`, pinned for the length of a run.
//! Images are values shared by content: a fleet clones one
//! [`TurboEngine::prime`]d prototype to hundreds of nodes, which all read
//! the same cache-hot image, and a host that finds another live image
//! decoded from the same flash and elision state hands it to the engine
//! with [`TurboEngine::adopt`] (mini-sos keeps such a memo, so every node
//! that installs one module runs from one image). An engine that no host
//! feeds decodes a whole image of its own.
//!
//! # Invalidation
//!
//! Flash is only mutable host-side (the simulated CPU has no `SPM`), so a
//! single generation counter — bumped by the host on every flash write, see
//! `SosSystem::flash_generation` — is a sufficient invalidation signal: the
//! engine forgets its image whenever the caller's generation differs from
//! the one it was decoded or adopted under, and steps from a fresh decode
//! unless the host adopts a shared image for the new generation first.
//! Fetch-check state changes (a domain switch, an `OUT` to the UMPU config
//! ports) are tracked separately and more cheaply, through
//! [`Env::cfi_epoch`]: they expire the cached page grants, not the image.

use crate::table::DecodeTable;
use avr_core::exec::{Cpu, Env, Step};
use avr_core::isa::Instr;
use avr_core::mem::FLASH_WORDS;
use avr_core::{Fault, WordAddr};
use std::sync::Arc;

/// log2 of the page size, in words.
const PAGE_SHIFT: usize = 8;
/// Decoded-page size in words.
const PAGE_WORDS: usize = 1 << PAGE_SHIFT;
/// Number of pages covering the 64k-word flash.
const PAGES: usize = FLASH_WORDS >> PAGE_SHIFT;

/// One predecoded flash word. `words == 0` marks an unservable slot (a
/// reserved encoding, or no raw code view) that must take the reference
/// fallback path. `elide` carries the store-elision bit
/// ([`Env::store_certified`] at build time) so a proven store pays zero
/// per-step lookup cost: the bit rides in the slot the step loads anyway.
#[derive(Debug, Clone, Copy)]
struct Slot {
    instr: Instr,
    words: u8,
    elide: bool,
}

const EMPTY_SLOT: Slot = Slot { instr: Instr::Nop, words: 0, elide: false };

/// A decoded 256-word span of flash. Every slot holds the instruction that
/// would execute if the PC landed on that word — including "middle" words
/// of two-word instructions, which decode exactly as the reference would
/// decode a jump into them.
type Page = [Slot; PAGE_WORDS];

/// A whole decoded flash image: what [`TurboEngine::decode`] built from one
/// environment's flash and, for store slots, its
/// [`Env::store_certified`] answers. Immutable once built; engines share
/// it behind an `Arc`, so it is only ever compared by pointer
/// ([`Arc::ptr_eq`]).
#[derive(Debug)]
pub struct DecodedImage {
    // Fixed-size, so a lookup indexed by `(pc & 0xffff) >> PAGE_SHIFT` is
    // provably in bounds — no per-step bounds check.
    pages: Box<[Page; PAGES]>,
}

/// Running totals for the engine (test/bench introspection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TurboStats {
    /// Instructions served from the decoded image.
    pub cached: u64,
    /// Instructions executed through the reference fallback path.
    pub fallback: u64,
    /// Pages decoded: 256 for every whole image this engine decoded (a
    /// clone starts from its source's counts). An adopted image adds
    /// nothing, so of the engines that run one shared image only the one
    /// that decoded it counts it — whichever ran first.
    pub blocks_built: u64,
    /// Image changes caused by a generation change.
    pub invalidations: u64,
}

/// The fast-path execution engine. One per CPU; the decode table behind it
/// is a process-wide static shared by every engine, and the decoded image
/// it steps from is shared by every engine that runs the same code.
#[derive(Debug, Clone)]
pub struct TurboEngine {
    /// The image to step from at `generation`; `None` until the first run
    /// or [`TurboEngine::prime`], and after the generation moves on.
    image: Option<Arc<DecodedImage>>,
    /// Cached whole-page fetch grants: `cfi_epoch + 1` at grant time, so 0
    /// means "not granted". A stale stamp re-runs the range check.
    page_grant: Box<[u64; PAGES]>,
    generation: u64,
    stats: TurboStats,
}

impl Default for TurboEngine {
    fn default() -> Self {
        TurboEngine::new()
    }
}

impl TurboEngine {
    /// Creates an engine with no image yet (and forces the global decode
    /// table to exist, so first-step latency is table-free).
    pub fn new() -> TurboEngine {
        DecodeTable::global();
        TurboEngine {
            image: None,
            page_grant: Box::new([0; PAGES]),
            generation: 0,
            stats: TurboStats::default(),
        }
    }

    /// Cache/bookkeeping counters so far.
    pub const fn stats(&self) -> TurboStats {
        self.stats
    }

    /// The flash generation the engine's image belongs to.
    pub const fn generation(&self) -> u64 {
        self.generation
    }

    /// The image the engine steps from, if it holds one for its
    /// generation. Engines running the same code share it: compare
    /// handles with [`Arc::ptr_eq`].
    pub fn image(&self) -> Option<&Arc<DecodedImage>> {
        self.image.as_ref()
    }

    /// Decodes the environment's entire flash into a new image (counted in
    /// [`TurboStats::blocks_built`]). Words the environment offers no raw
    /// view of decode as unservable and take the reference fallback path.
    pub fn decode<E: Env>(&mut self, env: &E) -> DecodedImage {
        let Ok(pages) = Box::<[Page; PAGES]>::try_from(
            (0..PAGES).map(|pi| build_page(env, pi)).collect::<Vec<Page>>().into_boxed_slice(),
        ) else {
            unreachable!("one page per flash page");
        };
        self.stats.blocks_built += PAGES as u64;
        DecodedImage { pages }
    }

    /// Eagerly decodes the environment's entire flash into the image for
    /// `generation`. Clones of a primed engine (fleet prototype cloning)
    /// share the image behind an `Arc`, so a 512-node fleet reads one
    /// cache-hot copy instead of decoding — and carrying — 512.
    pub fn prime<E: Env>(&mut self, env: &E, generation: u64) {
        self.image = Some(Arc::new(self.decode(env)));
        self.generation = generation;
    }

    /// Steps from `image` at `generation` from now on. The host must have
    /// decoded it from flash and store-certification state equal to the
    /// environment's at `generation`: a slot's baked elision bit skips the
    /// memory-map check of its store.
    pub fn adopt(&mut self, image: Arc<DecodedImage>, generation: u64) {
        self.sync_generation(generation);
        self.image = Some(image);
    }

    /// Forgets the image if `generation` differs from the one it belongs
    /// to (the host bumps its generation on any flash write; see the module
    /// docs), counting one invalidation. Unless the host then hands it an
    /// image with [`TurboEngine::adopt`], the next run decodes a whole
    /// image of its own.
    pub fn sync_generation(&mut self, generation: u64) {
        if self.generation != generation {
            self.generation = generation;
            self.image = None;
            self.stats.invalidations += 1;
        }
    }

    /// The image to step from at `generation`, decoded from `env` if the
    /// engine holds none for it.
    fn image_for<E: Env>(&mut self, env: &E, generation: u64) -> Arc<DecodedImage> {
        self.sync_generation(generation);
        match &self.image {
            Some(image) => Arc::clone(image),
            None => {
                let image = Arc::new(self.decode(env));
                self.image = Some(Arc::clone(&image));
                image
            }
        }
    }

    /// Executes exactly one reference step (see the module docs for the
    /// sequence). `generation` is the caller's current flash generation.
    ///
    /// # Errors
    ///
    /// Exactly the faults [`Cpu::step`] would raise, with identical CPU
    /// state, cycle counts and protection-event streams.
    pub fn step<E: Env>(&mut self, cpu: &mut Cpu<E>, generation: u64) -> Result<Step, Fault> {
        let image = self.image_for(&cpu.env, generation);
        self.step_with_image(cpu, &image.pages)
    }

    /// Runs until `BREAK`/`SLEEP`, mirroring [`Cpu::run_to_break`] (including
    /// its post-step cycle-limit check).
    ///
    /// # Errors
    ///
    /// As [`Cpu::run_to_break`].
    pub fn run_to_break<E: Env>(
        &mut self,
        cpu: &mut Cpu<E>,
        generation: u64,
        max_cycles: u64,
    ) -> Result<Step, Fault> {
        let limit = cpu.cycles().saturating_add(max_cycles);
        // Pin the image for the whole run (flash only mutates host-side,
        // between runs), so the per-step path is a direct page lookup with
        // no `Option` dispatch or pointer re-chasing.
        let image = self.image_for(&cpu.env, generation);
        let pages: &[Page; PAGES] = &image.pages;
        loop {
            match self.step_with_image(cpu, pages)? {
                Step::Continue => {}
                s => return Ok(s),
            }
            if cpu.cycles() > limit {
                return Err(Fault::CycleLimit { cycles: cpu.cycles() });
            }
        }
    }

    /// Runs until the PC reaches `stop_pc`, mirroring [`Cpu::run_to_pc`].
    ///
    /// # Errors
    ///
    /// As [`Cpu::run_to_pc`].
    pub fn run_to_pc<E: Env>(
        &mut self,
        cpu: &mut Cpu<E>,
        generation: u64,
        stop_pc: WordAddr,
        max_cycles: u64,
    ) -> Result<Step, Fault> {
        let limit = cpu.cycles().saturating_add(max_cycles);
        let image = self.image_for(&cpu.env, generation);
        let pages: &[Page; PAGES] = &image.pages;
        while cpu.pc != stop_pc {
            match self.step_with_image(cpu, pages)? {
                Step::Continue => {}
                s => return Ok(s),
            }
            if cpu.cycles() > limit {
                return Err(Fault::CycleLimit { cycles: cpu.cycles() });
            }
        }
        Ok(Step::Continue)
    }

    /// One reference step from the image the caller's run loop pinned: the
    /// page lookup is two dependent loads off a pinned data pointer, with
    /// no `Option` dispatch.
    #[inline(always)]
    fn step_with_image<E: Env>(
        &mut self,
        cpu: &mut Cpu<E>,
        pages: &[Page; PAGES],
    ) -> Result<Step, Fault> {
        cpu.begin_step()?;
        let pc = cpu.pc;
        // Flash wraps at 64k words (as `Flash::word` does), so the image
        // index does too; `pc` itself stays raw, matching the reference.
        // Both indices are masked to their table sizes, so the lookup is
        // provably in bounds.
        let idx = (pc as usize) & (FLASH_WORDS - 1);
        let (pi, off) = ((idx >> PAGE_SHIFT) & (PAGES - 1), idx & (PAGE_WORDS - 1));
        let slot = pages[pi][off];
        if slot.words == 0 {
            // Unservable word (no raw code view, or a reserved encoding):
            // run the literal reference tail so faults are byte-identical.
            self.stats.fallback += 1;
            return cpu.step_tail();
        }
        self.fetch_checked(cpu, pi, off, pc, slot.words)?;
        self.stats.cached += 1;
        cpu.set_store_hint(slot.elide);
        cpu.exec_decoded(pc, slot.instr)
    }

    /// Fetch-side protection for one cached instruction: a still-valid
    /// whole-page grant covers the check (granted checks have no observable
    /// effects); otherwise try to (re)establish one, and failing that,
    /// check word by word exactly as the reference fetch path would.
    #[inline(always)]
    fn fetch_checked<E: Env>(
        &mut self,
        cpu: &mut Cpu<E>,
        pi: usize,
        off: usize,
        pc: WordAddr,
        words: u8,
    ) -> Result<(), Fault> {
        let stamp = cpu.env.cfi_epoch().wrapping_add(1);
        if self.page_grant[pi] == stamp {
            if words == 2 && off == PAGE_WORDS - 1 {
                // Second word spills into the next page; check it alone.
                cpu.env.check_fetch(pc.wrapping_add(1))?;
            }
            return Ok(());
        }
        let start = (pi << PAGE_SHIFT) as WordAddr;
        if cpu.env.check_fetch_range(start, start + PAGE_WORDS as WordAddr) {
            self.page_grant[pi] = stamp;
            if words == 2 && off == PAGE_WORDS - 1 {
                cpu.env.check_fetch(pc.wrapping_add(1))?;
            }
        } else {
            cpu.env.check_fetch(pc)?;
            if words == 2 {
                cpu.env.check_fetch(pc.wrapping_add(1))?;
            }
        }
        Ok(())
    }
}

/// Decodes one 256-word page through the shared decode table. Slots the
/// table rejects (reserved encodings) — or that the environment offers no
/// raw view of — stay unservable and take the fallback path at run time.
fn build_page<E: Env>(env: &E, pi: usize) -> Page {
    let table = DecodeTable::global();
    let mut page = [EMPTY_SLOT; PAGE_WORDS];
    for (i, slot) in page.iter_mut().enumerate() {
        let pc = ((pi << PAGE_SHIFT) + i) as WordAddr;
        let Some(w0) = env.code_word(pc) else { continue };
        let w1 = if table.is_two_word(w0) {
            match env.code_word(pc.wrapping_add(1)) {
                Some(w1) => w1,
                None => continue,
            }
        } else {
            0
        };
        if let Some((instr, words)) = table.decode(w0, w1) {
            // Bake the elision bit only for store shapes: the bit is dead
            // weight elsewhere, and keeping it store-only means a stale
            // hint can never leak onto a non-store instruction.
            let elide = matches!(instr, Instr::St { .. } | Instr::Std { .. } | Instr::Sts { .. })
                && env.store_certified(pc);
            *slot = Slot { instr, words, elide };
        }
    }
    page
}
