//! [`SosSystem`]: a complete bootable machine — kernel, run-time, jump
//! tables and modules — under any of the three protection builds.

use crate::kernel::{JtEntry, KernelApi, KernelImage, MSG_INIT};
use crate::layout::SosLayout;
use crate::loader::{
    build_jump_tables, check_policy, load_module, load_module_with_policy, LoadError, LoadPolicy,
    LoadedModule, ModuleSource,
};
use crate::share::WeakMemo;
use avr_asm::Asm;
use avr_core::exec::{Cpu, Step};
use avr_core::mem::{Flash, PlainEnv};
use avr_core::{Fault, WordAddr};
use harbor::DomainId;
use harbor_flow::StoreCertificate;
use harbor_scope::{
    ArchSnapshot, DomainProfiler, Event, Mechanism, RegionMap, ScopeSink, TraceSink,
};
use harbor_sfi::SfiRuntime;
use harbor_turbo::{DecodedImage, TurboEngine, TurboStats};
use std::sync::{Arc, Weak};
use umpu::{ElisionMap, UmpuEnv};

/// One protection fault the system observed, in the uniform
/// code/operand vocabulary shared by the UMPU hardware and the SFI
/// run-time's panic port (see `avr_core::EnvFault`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Cycle counter when the fault surfaced.
    pub cycles: u64,
    /// Protection fault code.
    pub code: u16,
    /// Faulting address (code-specific operand).
    pub addr: u16,
    /// Second code-specific operand.
    pub info: u16,
}

/// Which protection implementation the system is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Stock AVR: no protection (the evaluation baseline).
    None,
    /// UMPU hardware extensions.
    Umpu,
    /// Software fault isolation (binary rewriting).
    Sfi,
}

// One per system and stepped once per simulated instruction — boxing the
// large variant would trade a few hundred inline bytes for a pointer chase
// in the hot loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Mach {
    Plain(Cpu<PlainEnv>),
    Umpu(Cpu<UmpuEnv>),
}

/// The union elision map of `certs`, `None` if no store is certified.
///
/// Every system that holds an equal certificate list gets the same `Arc`,
/// so the nodes of a fleet that installed one image share one map. Keys
/// compare by value (origin, length and bitmap), never by digest alone: a
/// digest collision must not hand a system another image's map, which
/// would switch protection off for a store its own certificate never
/// proved. Maps are held weakly, so each is freed with the last system
/// that publishes it.
fn shared_elision_map(certs: &[(DomainId, Arc<StoreCertificate>)]) -> Option<Arc<ElisionMap>> {
    static MAPS: WeakMemo<Vec<Arc<StoreCertificate>>, ElisionMap> = WeakMemo::new();
    // Every install and unload publishes, with prove on or off: nothing
    // certified takes no lock.
    if certs.iter().all(|(_, cert)| cert.certified_stores == 0) {
        return None;
    }
    MAPS.share(
        |key| key.len() == certs.len() && key.iter().zip(certs).all(|(k, (_, c))| k == c),
        || {
            let map = certs.iter().flat_map(|(_, cert)| cert.certified_pcs()).collect();
            Some((certs.iter().map(|(_, cert)| Arc::clone(cert)).collect(), map))
        },
    )
}

/// What `harbor_flow::certify_module_stores` reads: a module's words,
/// origin and entry addresses, and its state segment's base and length.
struct CertKey {
    words: Vec<u16>,
    origin: u32,
    entries: Vec<u32>,
    segment: (u16, u16),
}

/// `m`'s store certificate against its state `segment`, `None` if the
/// module does not certify. The fixpoint runs once for every module that
/// any live system holds a certificate of: systems that install equal
/// words at the same origin with the same entries and segment share one
/// `Arc`, whatever their flash holds elsewhere.
fn shared_certificate(m: &LoadedModule, segment: (u16, u16)) -> Option<Arc<StoreCertificate>> {
    static CERTS: WeakMemo<CertKey, StoreCertificate> = WeakMemo::new();
    let (words, origin, entries) = (m.object.words(), m.object.origin(), &m.entry_addrs[..]);
    CERTS.share(
        |key| {
            key.origin == origin
                && key.segment == segment
                && key.entries == entries
                && key.words == words
        },
        || {
            let (base, len) = segment;
            let cert =
                harbor_flow::certify_module_stores(words, origin, entries, base, len).ok()?;
            let key = CertKey { words: words.to_vec(), origin, entries: entries.to_vec(), segment };
            Some((key, cert))
        },
    )
}

/// Everything [`TurboEngine::decode`] reads from a machine's env: every
/// flash word, the env kind, and under UMPU what `Env::store_certified`
/// reads, the enable bit and the published elision map. A slot's baked
/// elision bit skips its store's memory-map check, so an image decoded
/// under another map must never run on this one: the map is compared by
/// pointer (the memo shares maps by value, so equal maps are one `Arc`).
/// It is held weakly, which keeps its allocation, so no other map can take
/// its address, yet leaves the map to die with its last system.
struct ImageKey {
    flash: Flash,
    umpu: Option<(bool, Option<Weak<ElisionMap>>)>,
}

/// The decoded image of `mach`'s flash and elision state (see
/// [`ImageKey`]): the one every live system with an equal state runs
/// from, or else one `engine` decodes now. One decode serves every node of
/// a fleet that installs the same module.
fn shared_image(mach: &Mach, engine: &mut TurboEngine) -> Option<Arc<DecodedImage>> {
    static IMAGES: WeakMemo<ImageKey, DecodedImage> = WeakMemo::new();
    let (flash, umpu) = match mach {
        Mach::Plain(c) => (&c.env.flash, None),
        Mach::Umpu(c) => (&c.env.flash, Some((c.env.enabled(), c.env.elision_map()))),
    };
    let same_umpu = |key: &Option<(bool, Option<Weak<ElisionMap>>)>| match (key, umpu) {
        (None, None) => true,
        (Some((on, map)), Some((now_on, now_map))) => {
            *on == now_on && map.as_ref().map(Weak::as_ptr) == now_map.map(Arc::as_ptr)
        }
        _ => false,
    };
    IMAGES.share(
        |key| same_umpu(&key.umpu) && key.flash == *flash,
        || {
            let image = match mach {
                Mach::Plain(c) => engine.decode(&c.env),
                Mach::Umpu(c) => engine.decode(&c.env),
            };
            let umpu = umpu.map(|(on, map)| (on, map.map(Arc::downgrade)));
            Some((ImageKey { flash: flash.clone(), umpu }, image))
        },
    )
}

/// Every engine a system can run, as `(turbo, prove)` pairs for
/// [`SosSystem::set_turbo`] and [`SosSystem::set_prove`] (a fleet takes the
/// same pair as `FleetConfig::{turbo, prove}`): the reference interpreter
/// first, then turbo, prove, and both last. A freshly built system runs the
/// reference. The fast paths must be indistinguishable from it, so the
/// functional test suites loop over this list with the reference as the
/// oracle.
pub const ENGINES: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// A complete mini-SOS machine.
///
/// The whole machine state is a value: `Clone` gives deterministic
/// snapshot/restore (fleet nodes are clones of one booted prototype, and a
/// helm canary's checkpoint is a clone of the node). A clone shares what
/// never changes after build, the kernel image and the SFI run-time, and
/// every flash page it has in common with its source (see [`Flash`]). It
/// copies the registers, SRAM and the rest of the machine state, and later
/// owns a private copy of each flash page it burns.
#[derive(Debug, Clone)]
pub struct SosSystem {
    /// The protection build.
    pub protection: Protection,
    /// The layout.
    pub layout: SosLayout,
    /// The kernel image (for symbol lookups), shared by every clone.
    pub kernel: Arc<KernelImage>,
    /// The SFI run-time (SFI builds), shared process-wide per layout (see
    /// [`SfiRuntime::shared`]).
    pub runtime: Option<Arc<SfiRuntime>>,
    /// The loaded modules.
    pub modules: Vec<LoadedModule>,
    mach: Mach,
    booted: bool,
    load_policy: Option<LoadPolicy>,
    // Trace sink for the Plain builds (the UMPU build keeps its sink inside
    // the env so the hardware units can report directly).
    scope: Option<ScopeSink>,
    // Every protection fault observed, in order.
    faults: Vec<FaultRecord>,
    // Monotonic count of host-side flash mutations (module install/unload,
    // OTA reassembly) — the single invalidation signal for any cache keyed
    // on flash contents. Bumped by `write_flash_object`/`write_jt_entry`,
    // the two choke points every flash write goes through.
    flash_generation: u64,
    // The opt-in fast path; `None` (the default) runs the reference
    // interpreter. Cycle-identical either way — see `DESIGN.md` §6.
    turbo: Option<TurboEngine>,
    // Opt-in store-check elision (the UMPU build): when set, admission
    // derives a `StoreCertificate` per module and publishes the union
    // elision map to the env. Cycle-, event- and state-identical either
    // way — see `DESIGN.md` §7.
    prove: bool,
    // Per-domain store certificates, shared with every system that holds
    // the same module (see `shared_certificate`) and re-derived (with the
    // elision map) at every rebuild point; `certs_generation` records the
    // flash generation they were derived under, mirroring the turbo
    // image's invalidation discipline.
    store_certs: Vec<(DomainId, Arc<StoreCertificate>)>,
    certs_generation: u64,
    // Lifecycle counts for post-boot dynamic loads — boot-time module
    // registration is not counted. Observability only (fleet rollups
    // attribute OTA churn per cohort from these).
    modules_installed: u64,
    modules_unloaded: u64,
}

impl SosSystem {
    /// Builds the system: kernel + (SFI) run-time + modules + jump tables,
    /// all burned into flash. Call [`SosSystem::boot`] next.
    ///
    /// The `app` closure emits the driver program that runs after boot
    /// (typically: run the scheduler, do work, `break`).
    ///
    /// # Errors
    ///
    /// [`LoadError`] if a module cannot be sandboxed or does not fit.
    pub fn build(
        protection: Protection,
        sources: &[ModuleSource],
        app: impl FnOnce(&mut Asm, &KernelApi),
    ) -> Result<SosSystem, LoadError> {
        SosSystem::build_with_layout(protection, SosLayout::default_layout(), sources, app)
    }

    /// [`SosSystem::build`] with a custom layout (e.g. a different
    /// protection block size from [`SosLayout::with_block_log2`]).
    ///
    /// # Errors
    ///
    /// [`LoadError`] if a module cannot be sandboxed or does not fit.
    pub fn build_with_layout(
        protection: Protection,
        layout: SosLayout,
        sources: &[ModuleSource],
        app: impl FnOnce(&mut Asm, &KernelApi),
    ) -> Result<SosSystem, LoadError> {
        let runtime = match protection {
            Protection::Sfi => Some(SfiRuntime::shared(layout.prot, layout.runtime_origin)),
            _ => None,
        };
        let stubs =
            runtime.as_ref().map(|rt| (rt.stub("harbor_xdom_call"), rt.stub("harbor_xdom_call_z")));

        let kernel = Arc::new(KernelImage::build(protection, layout, stubs, app));

        let modules: Vec<LoadedModule> = sources
            .iter()
            .map(|s| load_module(s, &layout, protection, runtime.as_deref()))
            .collect::<Result<_, _>>()?;

        let kernel_api = [
            (JtEntry::Malloc, kernel.symbol("ker_malloc")),
            (JtEntry::Free, kernel.symbol("ker_free")),
            (JtEntry::ChangeOwn, kernel.symbol("ker_change_own")),
            (JtEntry::Post, kernel.symbol("ker_post")),
        ];
        let (jt_base, jt_words) = build_jump_tables(&layout, &kernel_api, &modules);

        let mut flash = Flash::new();
        kernel.load_into(&mut flash);
        if let Some(rt) = &runtime {
            rt.object().load_into(&mut flash);
        }
        flash.load_words(jt_base, &jt_words);
        for m in &modules {
            m.object.load_into(&mut flash);
        }

        let mach = match protection {
            Protection::Umpu => {
                let mut env = UmpuEnv::new();
                env.flash = flash;
                Mach::Umpu(Cpu::new(env))
            }
            _ => {
                let mut env = PlainEnv::new();
                env.flash = flash;
                Mach::Plain(Cpu::new(env))
            }
        };

        Ok(SosSystem {
            protection,
            layout,
            kernel,
            runtime,
            modules,
            mach,
            booted: false,
            load_policy: None,
            scope: None,
            faults: Vec::new(),
            flash_generation: 0,
            turbo: None,
            prove: false,
            store_certs: Vec::new(),
            certs_generation: 0,
            modules_installed: 0,
            modules_unloaded: 0,
        })
    }

    /// Enables or disables store-check elision (`harbor-prove`). Under the
    /// UMPU build, admission derives a `harbor-flow` store certificate
    /// ([`harbor_flow::StoreCertificate`]) for every loaded module against
    /// its own state segment and publishes the union as the env's elision
    /// map: certified stores skip the MMC walk (and re-run it under
    /// `debug_assert!` parity). Execution is
    /// cycle-, event- and state-identical either way. Off in a freshly
    /// built system; [`ENGINES`] lists every turbo/prove combination.
    /// A no-op outside UMPU (the SFI build elides through [`LoadPolicy`]'s
    /// `elide_certified`, which *does* change cycle counts).
    ///
    /// Either order with [`SosSystem::set_turbo`] runs identically: the map
    /// moves the flash generation, so a turbo engine takes the decoded
    /// image that carries the new map's elision bits at its next run.
    pub fn set_prove(&mut self, on: bool) {
        self.prove = on;
        self.rebuild_elision();
    }

    /// Whether store-check elision is active.
    pub fn prove_enabled(&self) -> bool {
        self.prove
    }

    /// The cached per-domain store certificates (empty unless
    /// [`SosSystem::set_prove`] is on under UMPU), and the flash generation
    /// they were derived under.
    pub fn store_certificates(&self) -> (&[(DomainId, Arc<StoreCertificate>)], u64) {
        (&self.store_certs, self.certs_generation)
    }

    /// Re-derives every module's store certificate and publishes the union
    /// elision map (see [`SosSystem::publish_elision`]) — called when
    /// [`SosSystem::set_prove`] switches elision on or off. Installs and
    /// unloads change one module, so they certify (or drop) only that
    /// module's certificate.
    fn rebuild_elision(&mut self) {
        self.store_certs =
            self.modules.iter().filter_map(|m| Some((m.domain, self.certify(m)?))).collect();
        self.publish_elision();
    }

    /// `m`'s store certificate, if elision is on under UMPU and the module
    /// certifies. It depends only on the module's own words, origin,
    /// entries and state segment, so it is derived once for every system
    /// that installs the module (see `shared_certificate`).
    fn certify(&self, m: &LoadedModule) -> Option<Arc<StoreCertificate>> {
        if !self.prove || self.protection != Protection::Umpu {
            return None;
        }
        shared_certificate(m, (self.layout.state_addr(m.domain.index()), self.layout.state_len()))
    }

    /// Publishes the union of the kept certificates as the env's elision
    /// map — at each point the set of certificates can change:
    /// [`SosSystem::set_prove`], install, unload. Always bumps the flash
    /// generation so a decoded fast-path image (which bakes the elision bit
    /// per slot) can never outlive the map it was built against.
    fn publish_elision(&mut self) {
        let map = shared_elision_map(&self.store_certs);
        self.flash_generation += 1;
        self.certs_generation = self.flash_generation;
        if let Mach::Umpu(c) = &mut self.mach {
            c.env.set_elision_map(map);
        }
    }

    /// Enables or disables the turbo fast-path engine (`harbor-turbo`).
    /// Execution is cycle-, event- and state-identical either way; turbo
    /// only removes per-instruction fetch/decode work. Off in a freshly
    /// built system; [`ENGINES`] lists every turbo/prove combination, and
    /// either order with [`SosSystem::set_prove`] runs identically.
    ///
    /// Once the flash generation moves (an install, an unload, a new
    /// elision map), the engine's next run takes the decoded image of the
    /// new flash and elision state from a process-wide memo: every live
    /// system whose state is equal runs from one image, which the first of
    /// them to run decodes.
    pub fn set_turbo(&mut self, on: bool) {
        self.turbo = if on {
            // Decode eagerly: the image is shared (`Arc`) by every clone of
            // this system, so a fleet built from one prototype reads a
            // single cache-hot image across all its nodes from set-up.
            let mut t = TurboEngine::new();
            match &self.mach {
                Mach::Plain(c) => t.prime(&c.env, self.flash_generation),
                Mach::Umpu(c) => t.prime(&c.env, self.flash_generation),
            }
            Some(t)
        } else {
            None
        };
    }

    /// Whether the turbo fast path is active.
    pub fn turbo_enabled(&self) -> bool {
        self.turbo.is_some()
    }

    /// The turbo engine's cache counters, if turbo is enabled.
    pub fn turbo_stats(&self) -> Option<TurboStats> {
        self.turbo.as_ref().map(TurboEngine::stats)
    }

    /// Monotonic count of host-side flash mutations. Every path that burns
    /// flash on a booted system — [`SosSystem::install_module`],
    /// [`SosSystem::unload_module`], OTA reassembly through `harbor-fleet` —
    /// funnels through the two flash-write choke points, each of which bumps
    /// this counter; observers caching anything derived from flash contents
    /// (the turbo engine's decoded blocks) use it as their single
    /// invalidation point.
    pub fn flash_generation(&self) -> u64 {
        self.flash_generation
    }

    /// Run-time count of stores that took the certified elided path
    /// (`harbor-prove` under the UMPU build; always 0 otherwise).
    pub fn stores_elided(&self) -> u64 {
        match &self.mach {
            Mach::Umpu(c) => c.env.stores_elided(),
            Mach::Plain(_) => 0,
        }
    }

    /// Modules dynamically installed since boot (boot-time registration
    /// is not counted).
    pub fn modules_installed(&self) -> u64 {
        self.modules_installed
    }

    /// Modules unloaded since boot.
    pub fn modules_unloaded(&self) -> u64 {
        self.modules_unloaded
    }

    /// Attaches a trace sink: from here on, every protection decision,
    /// cross-domain edge, fault and kernel lifecycle event is recorded.
    /// Purely observational — attaching a sink never changes simulated
    /// cycle counts (regression-tested in `tests/scope_integration.rs`).
    pub fn attach_scope(&mut self, sink: ScopeSink) {
        match &mut self.mach {
            Mach::Umpu(c) => c.env.scope = Some(sink),
            Mach::Plain(_) => self.scope = Some(sink),
        }
    }

    /// The attached trace sink, if any.
    #[inline]
    pub fn scope(&self) -> Option<&ScopeSink> {
        match &self.mach {
            Mach::Umpu(c) => c.env.scope.as_ref(),
            Mach::Plain(_) => self.scope.as_ref(),
        }
    }

    /// Detaches and returns the trace sink.
    pub fn take_scope(&mut self) -> Option<ScopeSink> {
        match &mut self.mach {
            Mach::Umpu(c) => c.env.scope.take(),
            Mach::Plain(_) => self.scope.take(),
        }
    }

    /// Every protection fault observed so far, oldest first. Uniform across
    /// builds: UMPU faults come from the hardware units' rich records, SFI
    /// faults from the run-time's panic port.
    pub fn fault_history(&self) -> &[FaultRecord] {
        &self.faults
    }

    fn emit(&mut self, ev: Event) {
        let sink = match &mut self.mach {
            Mach::Umpu(c) => c.env.scope.as_mut(),
            Mach::Plain(_) => self.scope.as_mut(),
        };
        if let Some(sink) = sink {
            sink.record(&ev);
        }
    }

    fn note_result(&mut self, r: &Result<Step, Fault>) {
        if let Err(Fault::Env(e)) = r {
            let record =
                FaultRecord { cycles: self.cycles(), code: e.code, addr: e.addr, info: e.info };
            self.faults.push(record);
            // The UMPU env already reported the fault event when its units
            // raised it; the Plain builds surface faults only here.
            if matches!(self.mach, Mach::Plain(_)) {
                self.emit(Event::Fault {
                    cycles: record.cycles,
                    code: record.code,
                    addr: record.addr,
                    info: record.info,
                });
            }
        }
    }

    /// Boots the system: runs the kernel's reset/init code to its boot
    /// break, then performs the loader's registration work (code regions,
    /// static state grants) and posts each module its init message. The
    /// init messages are *delivered* when the app first runs the scheduler.
    ///
    /// # Errors
    ///
    /// Any [`Fault`] during the kernel's boot code.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn boot(&mut self) -> Result<(), Fault> {
        assert!(!self.booted, "boot may only run once");
        match self.run_to_break(1_000_000)? {
            Step::Break => {}
            other => panic!("boot ended unexpectedly: {other:?}"),
        }
        self.booted = true;

        // Loader registration.
        let mods: Vec<(DomainId, u32, u32)> =
            self.modules.iter().map(|m| (m.domain, m.object.origin(), m.object.end())).collect();
        for (dom, start, end) in &mods {
            match (&mut self.mach, self.protection) {
                (Mach::Umpu(cpu), _) => {
                    cpu.env.set_code_region(*dom, *start as u16, *end as u16);
                }
                (Mach::Plain(cpu), Protection::Sfi) => {
                    let rt = self.runtime.as_ref().expect("SFI runtime");
                    rt.set_code_bounds(&mut cpu.env.data, *dom, *start as u16, *end as u16);
                }
                _ => {}
            }
            // Static state segment grant.
            let state = self.layout.state_addr(dom.index());
            let len = self.layout.state_len();
            match &mut self.mach {
                Mach::Umpu(cpu) => {
                    cpu.env.host_set_segment(*dom, state, len).expect("state grant");
                }
                Mach::Plain(cpu) => {
                    if self.protection == Protection::Sfi {
                        let rt = self.runtime.as_ref().expect("SFI runtime");
                        rt.host_set_segment(&mut cpu.env.data, *dom, state, len)
                            .expect("state grant");
                    }
                }
            }
        }

        // Init messages, oldest module first.
        for (dom, ..) in &mods {
            self.post(*dom, MSG_INIT);
        }
        Ok(())
    }

    /// The kernel's exception handler, host-modelled: after a protection
    /// fault aborts a module mid-handler, restore a clean trusted context
    /// (active domain, stack bound, safe stack, SP) so the kernel can
    /// continue scheduling — the paper's "a stable kernel can always ensure
    /// a clean re-start of user modules when corruption is detected".
    /// Memory, the memory map and the message queue are untouched.
    pub fn recover_from_fault(&mut self) {
        match &mut self.mach {
            Mach::Umpu(cpu) => {
                cpu.env.recover_to_trusted();
                cpu.sp = avr_core::mem::RAMEND;
            }
            Mach::Plain(cpu) => {
                if let Some(rt) = self.runtime.as_ref() {
                    let l = rt.layout();
                    rt.set_current_domain(&mut cpu.env.data, DomainId::TRUSTED);
                    let ramend = avr_core::mem::RAMEND;
                    cpu.env.data.write(l.stack_bound, (ramend & 0xff) as u8).unwrap();
                    cpu.env.data.write(l.stack_bound + 1, (ramend >> 8) as u8).unwrap();
                    cpu.env.data.write(l.safe_stack_ptr, (l.safe_stack_base & 0xff) as u8).unwrap();
                    cpu.env
                        .data
                        .write(l.safe_stack_ptr + 1, (l.safe_stack_base >> 8) as u8)
                        .unwrap();
                }
                cpu.sp = avr_core::mem::RAMEND;
            }
        }
        // The UMPU env reports its own recovery; the Plain builds report
        // here so every build's trace shows the same lifecycle.
        if matches!(self.mach, Mach::Plain(_)) {
            let cycles = self.cycles();
            self.emit(Event::Recovery { cycles });
        }
    }

    /// Dynamically loads a module into a **booted** system — SOS's
    /// signature capability, and the operation whose ordering triggers the
    /// paper's Surge bug. Performs everything the build-time loader does:
    /// assemble (rewrite + verify under SFI), burn the flash slot, link the
    /// jump-table entries, register the code region, grant the state
    /// segment, and post the init message.
    ///
    /// # Errors
    ///
    /// [`LoadError`] if the module cannot be sandboxed or does not fit.
    ///
    /// # Panics
    ///
    /// Panics if called before [`SosSystem::boot`] or if the domain is
    /// already occupied.
    pub fn load_module(&mut self, src: &ModuleSource) -> Result<(), LoadError> {
        let loaded = load_module_with_policy(
            src,
            &self.layout,
            self.protection,
            self.runtime.as_deref(),
            self.load_policy.as_ref(),
        )?;
        self.install_module(loaded);
        Ok(())
    }

    /// Sets (or clears) the admission policy applied by
    /// [`SosSystem::load_module`] and [`SosSystem::admit_module`]. Only the
    /// SFI build gates; the policy is inert under `None`/`Umpu`.
    pub fn set_load_policy(&mut self, policy: Option<LoadPolicy>) {
        self.load_policy = policy;
    }

    /// The current admission policy.
    pub fn load_policy(&self) -> Option<LoadPolicy> {
        self.load_policy
    }

    /// Checks a **pre-assembled** module (e.g. one that arrived over a
    /// transport) against the admission policy without installing it. With
    /// no policy set, or outside the SFI build, every module is admitted.
    ///
    /// # Errors
    ///
    /// See [`check_policy`].
    pub fn admit_module(&self, loaded: &LoadedModule) -> Result<(), LoadError> {
        match (&self.load_policy, self.protection, self.runtime.as_ref()) {
            (Some(policy), Protection::Sfi, Some(rt)) => check_policy(
                policy,
                loaded.name,
                loaded.object.words(),
                loaded.object.origin(),
                &loaded.entry_addrs,
                rt,
                (self.layout.state_addr(loaded.domain.index()), self.layout.state_len()),
            ),
            _ => Ok(()),
        }
    }

    /// Installs a **pre-assembled** module into a booted system — the tail
    /// half of [`SosSystem::load_module`], split out so a module image that
    /// arrived over a transport (e.g. radio dissemination in `harbor-fleet`)
    /// takes exactly the same path as a locally assembled one: burn the
    /// flash slot, link the jump-table entries, register the code region,
    /// grant the state segment, and post the init message.
    ///
    /// # Panics
    ///
    /// Panics if called before [`SosSystem::boot`], if the domain is already
    /// occupied, or if the object was assembled for a different slot.
    pub fn install_module(&mut self, loaded: LoadedModule) {
        assert!(self.booted, "install_module requires a booted system");
        assert!(
            !self.modules.iter().any(|m| m.domain == loaded.domain),
            "domain {} already occupied",
            loaded.domain
        );
        assert_eq!(
            loaded.object.origin(),
            self.layout.slot_for(loaded.domain.index()),
            "module `{}` was assembled for a different slot",
            loaded.name
        );

        // Burn the module and its jump-table entries.
        self.write_flash_object(&loaded.object);
        for (i, &target) in loaded.entry_addrs.iter().enumerate() {
            let at = self.layout.jt_entry(loaded.domain.index(), i as u16) as u32;
            self.write_jt_entry(at, target);
        }

        // Code region + state grant (as boot-time registration does).
        let (start, end) = (loaded.object.origin(), loaded.object.end());
        let state = self.layout.state_addr(loaded.domain.index());
        let len = self.layout.state_len();
        match &mut self.mach {
            Mach::Umpu(cpu) => {
                cpu.env.set_code_region(loaded.domain, start as u16, end as u16);
                cpu.env.host_set_segment(loaded.domain, state, len).expect("state grant");
            }
            Mach::Plain(cpu) => {
                if let Some(rt) = self.runtime.as_ref() {
                    rt.set_code_bounds(&mut cpu.env.data, loaded.domain, start as u16, end as u16);
                    rt.host_set_segment(&mut cpu.env.data, loaded.domain, state, len)
                        .expect("state grant");
                }
            }
        }

        let dom = loaded.domain;
        if let Some(cert) = self.certify(&loaded) {
            self.store_certs.push((dom, cert));
        }
        self.modules.push(loaded);
        self.publish_elision();
        self.modules_installed += 1;
        let cycles = self.cycles();
        self.emit(Event::ModuleInstall { cycles, domain: dom.index() });
        self.post(dom, MSG_INIT);
    }

    /// Unloads a module: points its jump-table entries back at the error
    /// stub (subsequent cross-domain calls to it fail with `0xff`, the
    /// paper's failed-linking behaviour), revokes its code region, and —
    /// in the protected builds — reclaims every block of memory the module
    /// owned (the memory map knows exactly what that is; the unprotected
    /// build has no such record and leaks, which is rather the point).
    ///
    /// # Panics
    ///
    /// Panics if no module occupies `dom`.
    pub fn unload_module(&mut self, dom: DomainId) {
        let idx = self.modules.iter().position(|m| m.domain == dom).expect("domain is occupied");
        let loaded = self.modules.remove(idx);

        // Jump-table entries → error stub.
        let stub = self.layout.jt_error_stub() as u32;
        for i in 0..loaded.entry_addrs.len() {
            let at = self.layout.jt_entry(dom.index(), i as u16) as u32;
            self.write_jt_entry(at, stub);
        }

        // Revoke the code region and reclaim owned memory.
        match &mut self.mach {
            Mach::Umpu(cpu) => {
                cpu.env.clear_code_region(dom);
                let mut map = cpu.env.memory_map_view();
                let reclaimed = map.free_all_owned(dom);
                let base = cpu.env.mmc.mem_map_base;
                for (i, &b) in map.as_bytes().iter().enumerate() {
                    cpu.env.data.write(base + i as u16, b).expect("map in RAM");
                }
                Self::reclaim_bitmap(&self.layout, &mut cpu.env.data, &reclaimed);
            }
            Mach::Plain(cpu) => {
                if let Some(rt) = self.runtime.as_ref() {
                    rt.set_code_bounds(&mut cpu.env.data, dom, 0, 0);
                    let mut map = rt.memory_map_view(&cpu.env.data);
                    let reclaimed = map.free_all_owned(dom);
                    let base = rt.layout().mem_map_base;
                    for (i, &b) in map.as_bytes().iter().enumerate() {
                        cpu.env.data.write(base + i as u16, b).expect("map in RAM");
                    }
                    Self::reclaim_bitmap(&self.layout, &mut cpu.env.data, &reclaimed);
                }
                // Unprotected build: no ownership records exist, so the
                // module's heap memory cannot be identified — it leaks.
            }
        }
        self.store_certs.retain(|(d, _)| *d != dom);
        self.publish_elision();
        self.modules_unloaded += 1;
        let cycles = self.cycles();
        self.emit(Event::ModuleUnload { cycles, domain: dom.index() });
    }

    /// Clears allocator-bitmap bits for reclaimed segments that lie in the
    /// dynamically allocatable region.
    fn reclaim_bitmap(
        layout: &SosLayout,
        data: &mut avr_core::mem::DataMem,
        reclaimed: &[(u16, u16)],
    ) {
        let log2 = layout.block_log2();
        let alloc_end = layout.heap_base() + (layout.alloc_blocks << log2);
        for &(addr, blocks) in reclaimed {
            if addr < layout.heap_base() || addr >= alloc_end {
                continue; // static grants (state segments) have no bitmap bits
            }
            let first = (addr - layout.heap_base()) >> log2;
            for b in first..first + blocks {
                let byte_at = layout.alloc_bitmap + b / 8;
                let v = data.read(byte_at).expect("bitmap in RAM");
                data.write(byte_at, v & !(1 << (b % 8))).expect("bitmap in RAM");
            }
        }
    }

    fn write_flash_object(&mut self, obj: &avr_asm::Object) {
        self.flash_generation += 1;
        match &mut self.mach {
            Mach::Plain(c) => obj.load_into(&mut c.env.flash),
            Mach::Umpu(c) => obj.load_into(&mut c.env.flash),
        }
    }

    fn write_jt_entry(&mut self, at: u32, target: u32) {
        let k = target as i64 - (at as i64 + 1);
        assert!((-2048..=2047).contains(&k), "jump-table rjmp out of reach");
        let word = avr_core::isa::encode(avr_core::isa::Instr::Rjmp { k: k as i16 })
            .expect("valid rjmp")
            .word0();
        self.flash_generation += 1;
        match &mut self.mach {
            Mach::Plain(c) => c.env.flash.set_word(at, word),
            Mach::Umpu(c) => c.env.flash.set_word(at, word),
        }
    }

    /// Host-side message post (what a radio/timer interrupt would do).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn post(&mut self, dom: DomainId, msg: u8) {
        assert!(self.try_post(dom, msg), "message queue full");
    }

    /// Host-side message post that reports back-pressure instead of
    /// panicking: returns `false` (dropping the message) when the kernel
    /// queue is full — what a real radio stack does under overload.
    pub fn try_post(&mut self, dom: DomainId, msg: u8) -> bool {
        let l = self.layout;
        let tail = self.sram(l.q_tail);
        let head = self.sram(l.q_head);
        let next = (tail + 1) & 0x0f;
        let cycles = self.cycles();
        if next == head {
            self.emit(Event::MessagePost { cycles, domain: dom.index(), msg, accepted: false });
            return false;
        }
        self.write_sram(l.q_buf + tail as u16 * 2, dom.index());
        self.write_sram(l.q_buf + tail as u16 * 2 + 1, msg);
        self.write_sram(l.q_tail, next);
        self.emit(Event::MessagePost { cycles, domain: dom.index(), msg, accepted: true });
        true
    }

    /// Number of messages waiting in the kernel queue.
    pub fn queue_len(&self) -> u8 {
        let l = self.layout;
        let head = self.sram(l.q_head);
        let tail = self.sram(l.q_tail);
        tail.wrapping_sub(head) & 0x0f
    }

    /// Word address where the application/driver code resumes after the
    /// boot break — steering here re-enters the app's scheduler loop (the
    /// recurring-timer idiom of the examples, exposed for fleet stepping).
    pub fn scheduler_entry(&self) -> WordAddr {
        self.kernel.scheduler_entry()
    }

    /// Re-enters the app code and runs one bounded scheduling slice: the
    /// round-based stepping hook used by `harbor-fleet`. Equivalent to
    /// [`SosSystem::steer`]\(entry\) + [`SosSystem::run_to_break`].
    ///
    /// # Errors
    ///
    /// Any [`Fault`], including protection faults as [`Fault::Env`].
    pub fn run_slice(&mut self, max_cycles: u64) -> Result<Step, Fault> {
        let entry = self.scheduler_entry();
        self.steer(entry);
        let cycles = self.cycles();
        let queued = self.queue_len();
        self.emit(Event::SchedulerSlice { cycles, queued });
        self.run_to_break(max_cycles)
    }

    /// Runs until `BREAK`/`SLEEP`.
    ///
    /// # Errors
    ///
    /// Any [`Fault`], including protection faults as [`Fault::Env`].
    pub fn run_to_break(&mut self, max_cycles: u64) -> Result<Step, Fault> {
        self.sync_turbo_image();
        let generation = self.flash_generation;
        let r = match (&mut self.mach, &mut self.turbo) {
            (Mach::Plain(c), Some(t)) => t.run_to_break(c, generation, max_cycles),
            (Mach::Umpu(c), Some(t)) => t.run_to_break(c, generation, max_cycles),
            (Mach::Plain(c), None) => c.run_to_break(max_cycles),
            (Mach::Umpu(c), None) => c.run_to_break(max_cycles),
        };
        self.note_result(&r);
        r
    }

    /// Runs until the PC reaches `pc` (for cycle-accurate span timing).
    ///
    /// # Errors
    ///
    /// Any [`Fault`].
    pub fn run_to_pc(&mut self, pc: WordAddr, max_cycles: u64) -> Result<Step, Fault> {
        self.sync_turbo_image();
        let generation = self.flash_generation;
        let r = match (&mut self.mach, &mut self.turbo) {
            (Mach::Plain(c), Some(t)) => t.run_to_pc(c, generation, pc, max_cycles),
            (Mach::Umpu(c), Some(t)) => t.run_to_pc(c, generation, pc, max_cycles),
            (Mach::Plain(c), None) => c.run_to_pc(pc, max_cycles),
            (Mach::Umpu(c), None) => c.run_to_pc(pc, max_cycles),
        };
        self.note_result(&r);
        r
    }

    /// Hands the turbo engine the shared image of the current flash and
    /// elision state once the flash generation has moved past the engine's:
    /// at the first run after a change, not at the change itself, so a
    /// burst of flash writes resolves one image.
    fn sync_turbo_image(&mut self) {
        if let Some(t) = &mut self.turbo {
            if t.generation() != self.flash_generation {
                if let Some(image) = shared_image(&self.mach, t) {
                    t.adopt(image, self.flash_generation);
                }
            }
        }
    }

    /// The decoded image the turbo engine steps from, if turbo is enabled
    /// and the system has run (or been primed) at its current flash
    /// generation. Systems that run the same flash and elision state hold
    /// one image: compare handles with [`Arc::ptr_eq`].
    pub fn turbo_image(&self) -> Option<&Arc<DecodedImage>> {
        self.turbo.as_ref().filter(|t| t.generation() == self.flash_generation)?.image()
    }

    /// Total cycles executed.
    #[inline]
    pub fn cycles(&self) -> u64 {
        match &self.mach {
            Mach::Plain(c) => c.cycles(),
            Mach::Umpu(c) => c.cycles(),
        }
    }

    /// Cycles spent asleep waiting for interrupts (see
    /// [`Cpu::idle_cycles`](avr_core::exec::Cpu::idle_cycles)).
    pub fn idle_cycles(&self) -> u64 {
        match &self.mach {
            Mach::Plain(c) => c.idle_cycles(),
            Mach::Umpu(c) => c.idle_cycles(),
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> WordAddr {
        match &self.mach {
            Mach::Plain(c) => c.pc,
            Mach::Umpu(c) => c.pc,
        }
    }

    /// Forces the program counter (harness privilege — e.g. re-entering the
    /// driver loop to model a recurring timer).
    pub fn steer(&mut self, pc: WordAddr) {
        match &mut self.mach {
            Mach::Plain(c) => c.pc = pc,
            Mach::Umpu(c) => c.pc = pc,
        }
    }

    /// Arms the periodic timer interrupt: every `period` cycles, the ISR
    /// posts [`MSG_TIMER`](crate::kernel::MSG_TIMER) to `dom`. Call after
    /// [`SosSystem::boot`]; the app must `sei` for interrupts to fire.
    pub fn enable_timer(&mut self, period: u64, dom: DomainId) {
        let timer = avr_core::mem::Timer::new(period, self.layout.timer_vector());
        match &mut self.mach {
            Mach::Plain(c) => c.env.timer = Some(timer),
            Mach::Umpu(c) => c.env.timer = Some(timer),
        }
        self.write_sram(self.layout.timer_dom, dom.index());
    }

    /// Reads a data-memory byte.
    ///
    /// # Panics
    ///
    /// Panics outside SRAM.
    pub fn sram(&self, addr: u16) -> u8 {
        match &self.mach {
            Mach::Plain(c) => c.env.data.read(addr).expect("in SRAM"),
            Mach::Umpu(c) => c.env.data.read(addr).expect("in SRAM"),
        }
    }

    /// Reads a little-endian word from data memory.
    pub fn sram16(&self, addr: u16) -> u16 {
        self.sram(addr) as u16 | ((self.sram(addr + 1) as u16) << 8)
    }

    /// Writes a data-memory byte (host/loader privilege).
    ///
    /// # Panics
    ///
    /// Panics outside SRAM.
    pub fn write_sram(&mut self, addr: u16, v: u8) {
        match &mut self.mach {
            Mach::Plain(c) => c.env.data.write(addr, v).expect("in SRAM"),
            Mach::Umpu(c) => c.env.data.write(addr, v).expect("in SRAM"),
        }
    }

    /// Kernel symbol lookup.
    ///
    /// # Panics
    ///
    /// Panics on unknown symbols.
    pub fn symbol(&self, name: &str) -> u32 {
        self.kernel.symbol(name)
    }

    /// Bytes written to the simulator debug port so far.
    pub fn debug_out(&self) -> &[u8] {
        match &self.mach {
            Mach::Plain(c) => &c.env.debug_out,
            Mach::Umpu(c) => &c.env.debug_out,
        }
    }

    /// Total instructions retired.
    pub fn instructions(&self) -> u64 {
        match &self.mach {
            Mach::Plain(c) => c.instructions(),
            Mach::Umpu(c) => c.instructions(),
        }
    }

    /// Copies `len` flash words starting at word address `start` (state
    /// comparison hook: module slots, jump-table pages).
    pub fn flash_words(&self, start: u32, len: u32) -> Vec<u16> {
        let flash = match &self.mach {
            Mach::Plain(c) => &c.env.flash,
            Mach::Umpu(c) => &c.env.flash,
        };
        (start..start + len).map(|a| flash.word(a)).collect()
    }

    /// The 128-word jump-table page of `dom`.
    pub fn jt_page_words(&self, dom: u8) -> Vec<u16> {
        self.flash_words(self.layout.jt_page(dom) as u32, 128)
    }

    /// The in-RAM memory-map table of the protected builds (`None` build:
    /// no map exists).
    pub fn memory_map_bytes(&self) -> Option<Vec<u8>> {
        match (&self.mach, self.protection) {
            (Mach::Umpu(cpu), _) => Some(cpu.env.memory_map_view().as_bytes().to_vec()),
            (Mach::Plain(cpu), Protection::Sfi) => {
                let rt = self.runtime.as_ref().expect("SFI runtime");
                Some(rt.memory_map_view(&cpu.env.data).as_bytes().to_vec())
            }
            _ => None,
        }
    }

    /// The UMPU environment, for hardware-state inspection (UMPU builds).
    pub fn umpu_env(&self) -> Option<&UmpuEnv> {
        match &self.mach {
            Mach::Umpu(c) => Some(&c.env),
            Mach::Plain(_) => None,
        }
    }

    /// Current run-time stack pointer.
    pub fn sp(&self) -> u16 {
        match &self.mach {
            Mach::Plain(c) => c.sp,
            Mach::Umpu(c) => c.sp,
        }
    }

    /// The active protection domain's raw index (7 = trusted): the UMPU
    /// domain tracker's register, the SFI run-time's `cur_dom` RAM cell, or
    /// always-trusted for the unprotected build (which has no domains).
    pub fn active_domain(&self) -> u8 {
        match (&self.mach, self.protection) {
            (Mach::Umpu(c), _) => c.env.tracker.current.index(),
            (Mach::Plain(c), Protection::Sfi) => {
                let rt = self.runtime.as_ref().expect("SFI runtime");
                rt.current_domain(&c.env.data).index()
            }
            _ => DomainId::TRUSTED.index(),
        }
    }

    /// One architectural state capture at this instant — the uniform
    /// register vocabulary the `harbor-blackbox` flight recorder rings and
    /// freezes into postmortem dumps. UMPU builds read the hardware units'
    /// registers, SFI builds the run-time's RAM cells, and the unprotected
    /// build reports zeros for the protection registers it does not have.
    pub fn arch_snapshot(&self) -> ArchSnapshot {
        let mut s = match (&self.mach, self.protection) {
            (Mach::Umpu(c), _) => c.env.regs_snapshot(),
            (Mach::Plain(c), Protection::Sfi) => {
                let rt = self.runtime.as_ref().expect("SFI runtime");
                let l = *rt.layout();
                ArchSnapshot {
                    domain: rt.current_domain(&c.env.data).index(),
                    mem_map_base: l.mem_map_base,
                    prot_bottom: l.prot_bottom,
                    prot_top: l.prot_top,
                    block_log2: l.block_log2,
                    stack_bound: self.sram16(l.stack_bound),
                    safe_stack_ptr: self.sram16(l.safe_stack_ptr),
                    safe_stack_base: l.safe_stack_base,
                    safe_stack_limit: l.safe_stack_limit,
                    ..ArchSnapshot::default()
                }
            }
            _ => ArchSnapshot { domain: DomainId::TRUSTED.index(), ..ArchSnapshot::default() },
        };
        s.cycles = self.cycles();
        s.pc = self.pc();
        s.sp = self.sp();
        s
    }

    /// The occupied bytes of the safe (control) stack, `base..ptr` — the
    /// return-address and crossing-frame record a postmortem dump preserves
    /// so the fatal call chain can be reconstructed. Empty for the
    /// unprotected build (no safe stack exists).
    pub fn safe_stack_bytes(&self) -> Vec<u8> {
        let (base, ptr) = match (&self.mach, self.protection) {
            (Mach::Umpu(c), _) => (c.env.safe_stack.base, c.env.safe_stack.ptr),
            (Mach::Plain(_), Protection::Sfi) => {
                let l = *self.runtime.as_ref().expect("SFI runtime").layout();
                (l.safe_stack_base, self.sram16(l.safe_stack_ptr))
            }
            _ => return Vec::new(),
        };
        (base..ptr.max(base)).map(|a| self.sram(a)).collect()
    }

    /// Per-domain ownership census of the memory-map table: element `d` is
    /// the number of protection blocks domain `d` currently owns, with
    /// element 7 counting trusted/free blocks. All zeros for the `None`
    /// build (no map exists).
    pub fn ownership_summary(&self) -> [u16; 8] {
        let mut owned = [0u16; 8];
        let map = match (&self.mach, self.protection) {
            (Mach::Umpu(c), _) => c.env.memory_map_view(),
            (Mach::Plain(c), Protection::Sfi) => {
                self.runtime.as_ref().expect("SFI runtime").memory_map_view(&c.env.data)
            }
            _ => return owned,
        };
        for block in 0..map.config().num_blocks() {
            owned[map.record(block).owner.index() as usize & 7] += 1;
        }
        owned
    }

    /// The rich fault record of the most recent protection fault, where the
    /// build keeps one (UMPU).
    pub fn last_protection_fault(&self) -> Option<harbor::ProtectionFault> {
        match &self.mach {
            Mach::Umpu(c) => c.env.last_fault,
            Mach::Plain(_) => None,
        }
    }

    /// The flash-region classification the per-domain cycle profiler uses:
    /// jump-table pages count as each domain's crossing machinery, module
    /// slots as its application code, the SFI run-time's stubs as trusted
    /// check/crossing code, and everything else (kernel, API, driver) as
    /// trusted kernel work.
    pub fn scope_region_map(&self) -> RegionMap {
        let mut m = RegionMap::new(DomainId::TRUSTED.index(), Mechanism::Kernel);
        for dom in 0..8u8 {
            let base = self.layout.jt_page(dom) as u32;
            m.add(base, base + 128, dom, Mechanism::Crossing);
        }
        for dom in 0..7u8 {
            let slot = self.layout.slot_for(dom);
            m.add(slot, slot + self.layout.slot_words, dom, Mechanism::App);
        }
        if let Some(rt) = &self.runtime {
            for (start, end, mech) in rt.scope_regions() {
                m.add(start, end, DomainId::TRUSTED.index(), mech);
            }
        }
        m
    }

    /// Runs like [`SosSystem::run_to_break`] but steps one instruction at a
    /// time, attributing every elapsed cycle to a (domain, mechanism) pair:
    /// UMPU stall cycles reported by the attached sink are booked to their
    /// mechanism, the remainder to the retired PC's flash region. Totals
    /// reconcile exactly with [`SosSystem::cycles`] — every delta is booked.
    ///
    /// Works with or without a sink (without one, UMPU stalls are folded
    /// into the instruction's region — attach one for the exact Table-5
    /// split). With a [`RingSink`](harbor_scope::RingSink), size it to hold
    /// at least one instruction's events (a handful).
    ///
    /// # Errors
    ///
    /// Any [`Fault`], including [`Fault::CycleLimit`] past `max_cycles`.
    /// The faulting instruction's elapsed cycles are still attributed.
    pub fn run_profiled(
        &mut self,
        profiler: &mut DomainProfiler,
        max_cycles: u64,
    ) -> Result<Step, Fault> {
        let limit = self.cycles().saturating_add(max_cycles);
        profiler.resync(self.cycles());
        loop {
            let before = self.scope().map_or(0, ScopeSink::recorded);
            let pc = self.pc();
            let stepped = match &mut self.mach {
                Mach::Plain(c) => c.step_traced(),
                Mach::Umpu(c) => c.step_traced(),
            };
            match stepped {
                Ok((step, entry)) => {
                    let stalls = self.stalls_since(before);
                    profiler.record_instruction(entry.pc, entry.cycles_after, &stalls);
                    match step {
                        Step::Continue => {}
                        s => return Ok(s),
                    }
                    if self.cycles() > limit {
                        return Err(Fault::CycleLimit { cycles: self.cycles() });
                    }
                }
                Err(f) => {
                    // The instruction did not retire; whatever the attempt
                    // cost still belongs to its region.
                    let stalls = self.stalls_since(before);
                    profiler.record_instruction(pc, self.cycles(), &stalls);
                    let r = Err(f);
                    self.note_result(&r);
                    return r;
                }
            }
        }
    }

    /// [`SosSystem::run_slice`] under the profiler: re-enters the app's
    /// scheduler loop and attributes the whole slice.
    ///
    /// # Errors
    ///
    /// As [`SosSystem::run_profiled`].
    pub fn run_slice_profiled(
        &mut self,
        profiler: &mut DomainProfiler,
        max_cycles: u64,
    ) -> Result<Step, Fault> {
        let entry = self.scheduler_entry();
        self.steer(entry);
        let cycles = self.cycles();
        let queued = self.queue_len();
        self.emit(Event::SchedulerSlice { cycles, queued });
        self.run_profiled(profiler, max_cycles)
    }

    // Stall attributions from events the last instruction recorded:
    // (domain, mechanism, stall cycles) for every stall-charging event.
    fn stalls_since(&self, before: u64) -> Vec<(u8, Mechanism, u64)> {
        let Some(sink) = self.scope() else {
            return Vec::new();
        };
        let newly = (sink.recorded() - before) as usize;
        if newly == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for ev in sink.tail(newly) {
            match ev {
                Event::MemMapCheck { granted: true, stall, domain, .. } if stall > 0 => {
                    out.push((domain, Mechanism::Check, stall as u64));
                }
                Event::CrossDomainCall { callee, stall, .. } => {
                    out.push((callee, Mechanism::Crossing, stall as u64));
                }
                Event::CrossDomainRet { from, stall, .. } => {
                    out.push((from, Mechanism::Crossing, stall as u64));
                }
                Event::InterruptEntry { stall, .. } => {
                    out.push((DomainId::TRUSTED.index(), Mechanism::Crossing, stall as u64));
                }
                _ => {}
            }
        }
        out
    }
}
