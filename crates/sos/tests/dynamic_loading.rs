//! Runtime module loading and unloading — SOS's signature capability, and
//! the exact deployment scenario of the paper's war story: "the
//! cross-domain function call fails under the rare condition when the
//! Surge module is loaded on a node before the Tree routing module".

use avr_core::Fault;
use harbor::{fault_code, DomainId};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, SosSystem, ENGINES};

const ALL: [Protection; 3] = [Protection::None, Protection::Umpu, Protection::Sfi];
const PROTECTED: [Protection; 2] = [Protection::Umpu, Protection::Sfi];

fn scheduler_app(a: &mut avr_asm::Asm, api: &mini_sos::KernelApi) {
    api.run_scheduler(a);
    a.brk();
}

/// Re-enters the driver loop and drains the queue.
fn drain(sys: &mut SosSystem) -> Result<(), Fault> {
    sys.steer(sys.symbol("ker_boot_done") + 1);
    sys.run_to_break(10_000_000).map(|_| ())
}

#[test]
fn late_loading_tree_routing_resolves_the_war_story() {
    // Surge alone: under protection, sampling faults. Then Tree Routing is
    // hot-loaded — exactly what the deployment should have done — and the
    // next sample succeeds.
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in PROTECTED {
            let mut sys = SosSystem::build(p, &[modules::surge(1, 3)], scheduler_app).unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.run_to_break(10_000_000).unwrap(); // deliver init

            // Tick 1: caught.
            sys.post(DomainId::num(1), MSG_TIMER);
            let err = drain(&mut sys).unwrap_err();
            match err {
                Fault::Env(e) => assert_eq!(e.code, fault_code::MEM_MAP, "{p:?} {engine}"),
                other => panic!("{p:?} {engine}: {other:?}"),
            }

            // The kernel's exception handler restores a clean trusted context.
            sys.recover_from_fault();

            // Hot-load Tree Routing; its init message runs first, then tick 2
            // samples successfully.
            sys.load_module(&modules::tree_routing(3)).unwrap();
            sys.post(DomainId::num(1), MSG_TIMER);
            drain(&mut sys).unwrap_or_else(|e| panic!("{p:?} {engine} after load: {e}"));

            let state = sys.layout.state_addr(1);
            let buf = sys.sram16(state);
            assert_eq!(sys.sram(buf + 2), 2, "{p:?} {engine}: post-load sample stored at offset 2");
        }
    }
}

#[test]
fn runtime_load_works_on_a_bare_system() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in ALL {
            let mut sys = SosSystem::build(p, &[], scheduler_app).unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.load_module(&modules::blink(0)).unwrap();
            sys.post(DomainId::num(0), MSG_TIMER);
            sys.post(DomainId::num(0), MSG_TIMER);
            drain(&mut sys).unwrap_or_else(|e| panic!("{p:?} {engine}: {e}"));
            assert_eq!(sys.sram(sys.layout.state_addr(0)), 2, "{p:?} {engine}");
        }
    }
}

#[test]
fn unload_redirects_calls_to_the_error_stub() {
    // Surge + Tree running fine; unload Tree; the next sample takes the
    // 0xff error path — caught under protection, silent corruption without.
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in PROTECTED {
            let mods = [modules::tree_routing(3), modules::surge(1, 3)];
            let mut sys = SosSystem::build(p, &mods, scheduler_app).unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.run_to_break(10_000_000).unwrap();
            sys.post(DomainId::num(1), MSG_TIMER);
            drain(&mut sys).unwrap();

            sys.unload_module(DomainId::num(3));
            sys.post(DomainId::num(1), MSG_TIMER);
            let err = drain(&mut sys).unwrap_err();
            match err {
                Fault::Env(e) => assert_eq!(e.code, fault_code::MEM_MAP, "{p:?} {engine}"),
                other => panic!("{p:?} {engine}: {other:?}"),
            }
        }
    }
}

#[test]
fn unload_reclaims_every_owned_block() {
    // The producer owns heap buffers and its state segment; unloading must
    // return them all to the free pool — the memory map makes that
    // possible.
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in PROTECTED {
            // A producer with no consumer: its buffers accumulate.
            let mods = [modules::producer(1, 4)];
            let mut sys = SosSystem::build(p, &mods, scheduler_app).unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.run_to_break(10_000_000).unwrap();
            for _ in 0..3 {
                sys.post(DomainId::num(1), MSG_TIMER);
                drain(&mut sys).unwrap();
            }

            let owned_blocks = |sys: &SosSystem| -> usize {
                let cfg = harbor::MemMapConfig::new(
                    harbor::DomainMode::Multi,
                    harbor::BlockSize::new(sys.layout.block_bytes()).unwrap(),
                    sys.layout.prot.prot_bottom,
                    sys.layout.prot.prot_top,
                )
                .unwrap();
                let base = sys.layout.prot.mem_map_base;
                let bytes: Vec<u8> =
                    (0..cfg.map_size_bytes()).map(|i| sys.sram(base + i)).collect();
                let map = harbor::MemoryMap::from_raw(cfg, bytes);
                (0..cfg.num_blocks()).filter(|&b| map.record(b).owner == DomainId::num(1)).count()
            };
            assert!(owned_blocks(&sys) >= 4, "{p:?} {engine}: buffers + state accumulated");

            sys.unload_module(DomainId::num(1));
            assert_eq!(owned_blocks(&sys), 0, "{p:?} {engine}: everything reclaimed");

            // The freed blocks are allocatable again: load a fresh module into
            // the same domain and let it malloc.
            sys.load_module(&modules::surge(1, 3)).unwrap();
            drain(&mut sys).unwrap();
            let buf = sys.sram16(sys.layout.state_addr(1));
            assert_ne!(buf, 0, "{p:?} {engine}: reloaded module allocated from the reclaimed pool");
        }
    }
}

#[test]
fn unprotected_unload_leaks_by_construction() {
    // Without the memory map there is no record of what the module owned:
    // its buffers stay marked used in the allocator bitmap forever.
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let mods = [modules::producer(1, 4)];
        let mut sys = SosSystem::build(Protection::None, &mods, scheduler_app).unwrap();
        sys.set_prove(prove);
        sys.set_turbo(turbo);
        sys.boot().unwrap();
        sys.run_to_break(10_000_000).unwrap();
        sys.post(DomainId::num(1), MSG_TIMER);
        drain(&mut sys).unwrap();

        let used_bits = |sys: &SosSystem| -> u32 {
            (0..31u16).map(|i| sys.sram(sys.layout.alloc_bitmap + i).count_ones()).sum()
        };
        let before = used_bits(&sys);
        assert!(before > 0, "{engine}: the producer allocated");
        sys.unload_module(DomainId::num(1));
        assert_eq!(used_bits(&sys), before, "{engine}: the unprotected build cannot reclaim");
    }
}

#[test]
fn installs_and_unloads_keep_the_certificates_a_fresh_build_derives() {
    // Install and unload certify (or drop) only the module they change.
    // After every step of install → unload → reinstall, the certificates
    // must be exactly those a freshly built system holding the same
    // modules derives, in the same order, and current: derived under the
    // system's present flash generation, as the fresh build's are.
    let blink = || modules::blink(0);
    let surge = || modules::surge_fixed(3, 1);
    let tree = || modules::tree_routing(1);
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let mut sys =
            SosSystem::build(Protection::Umpu, &[blink(), tree()], scheduler_app).unwrap();
        sys.set_prove(prove);
        sys.set_turbo(turbo);
        sys.boot().unwrap();
        let check = |sys: &SosSystem, sources: &[mini_sos::ModuleSource], step: &str| {
            let mut fresh = SosSystem::build(Protection::Umpu, sources, scheduler_app).unwrap();
            fresh.set_prove(prove);
            let ((certs, generation), (expected, fresh_generation)) =
                (sys.store_certificates(), fresh.store_certificates());
            assert_eq!(certs, expected, "{engine} after {step}");
            assert_eq!(certs.len(), if prove { sources.len() } else { 0 }, "{engine} after {step}");
            assert_eq!(generation, sys.flash_generation(), "{engine} after {step}");
            assert_eq!(fresh_generation, fresh.flash_generation(), "{engine} fresh, {step}");
        };
        check(&sys, &[blink(), tree()], "boot");
        sys.load_module(&surge()).unwrap();
        check(&sys, &[blink(), tree(), surge()], "installing surge");
        sys.unload_module(DomainId::num(1));
        check(&sys, &[blink(), surge()], "unloading tree routing");
        sys.load_module(&tree()).unwrap();
        check(&sys, &[blink(), surge(), tree()], "reinstalling tree routing");
    }
}
