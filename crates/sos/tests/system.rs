//! Full-system tests: boot mini-SOS under all three protection builds, run
//! module workloads through the scheduler, and reproduce the paper's
//! Surge / Tree-Routing memory-corruption war story. Every test runs on
//! each engine of [`ENGINES`].

use avr_core::isa::Reg;
use avr_core::Fault;
use harbor::{fault_code, DomainId};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::modules;
use mini_sos::{FaultRecord, JtEntry, ModuleSource, Protection, SosSystem, ENGINES};

const ALL: [Protection; 3] = [Protection::None, Protection::Umpu, Protection::Sfi];
const PROTECTED: [Protection; 2] = [Protection::Umpu, Protection::Sfi];

/// Scratch where driver apps deposit results (kernel spare RAM).
const OUT: u16 = 0x01ee;

fn run_scheduler_app(a: &mut avr_asm::Asm, api: &mini_sos::KernelApi) {
    api.run_scheduler(a);
    a.brk();
}

#[test]
fn boot_and_blink_under_all_builds() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in ALL {
            let mut sys = SosSystem::build(p, &[modules::blink(0)], run_scheduler_app)
                .unwrap_or_else(|e| panic!("{p:?} {engine}: {e}"));
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap_or_else(|e| panic!("{p:?} {engine} boot: {e}"));
            // Three timer ticks on top of the init message.
            for _ in 0..3 {
                sys.post(DomainId::num(0), MSG_TIMER);
            }
            sys.run_to_break(2_000_000).unwrap_or_else(|e| panic!("{p:?} {engine} run: {e}"));
            let state = sys.layout.state_addr(0);
            assert_eq!(sys.sram(state), 3, "{p:?} {engine}: blink counted its ticks");
        }
    }
}

#[test]
fn kernel_malloc_updates_the_memory_map() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in PROTECTED {
            let mut sys = SosSystem::build(p, &[], |a, api| {
                use avr_core::isa::Reg;
                // a = malloc(10, dom1)
                a.ldi(Reg::R24, 10);
                a.ldi(Reg::R22, 1);
                api.call_kernel(a, JtEntry::Malloc);
                a.sts(OUT, Reg::R24);
                a.sts(OUT + 1, Reg::R25);
                // b = malloc(20, dom2)
                a.ldi(Reg::R24, 20);
                a.ldi(Reg::R22, 2);
                api.call_kernel(a, JtEntry::Malloc);
                a.sts(OUT + 2, Reg::R24);
                a.sts(OUT + 3, Reg::R25);
                // free(a)  (trusted may free anything)
                a.lds(Reg::R24, OUT);
                a.lds(Reg::R25, OUT + 1);
                api.call_kernel(a, JtEntry::Free);
                a.sts(OUT + 4, Reg::R24); // status
                a.brk();
            })
            .unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.run_to_break(2_000_000).unwrap_or_else(|e| panic!("{p:?} {engine}: {e}"));

            let a_ptr = sys.sram16(OUT);
            let b_ptr = sys.sram16(OUT + 2);
            assert_ne!(a_ptr, 0, "{p:?} {engine}: first malloc succeeded");
            assert_ne!(b_ptr, 0, "{p:?} {engine}: second malloc succeeded");
            assert_eq!(sys.sram(OUT + 4), 0, "{p:?} {engine}: free succeeded");
            assert!(b_ptr > a_ptr, "{p:?} {engine}: first-fit placement");

            // The RAM-resident memory map must agree with the golden model run
            // through the same operations.
            let view = match p {
                Protection::Umpu => sys.umpu_env().unwrap().memory_map_view(),
                Protection::Sfi => {
                    let rt = sys.runtime.as_ref().unwrap();
                    // Read through the public accessor into a golden view.
                    let cfg = rt.memmap_config();
                    let base = sys.layout.prot.mem_map_base;
                    let bytes: Vec<u8> =
                        (0..cfg.map_size_bytes()).map(|i| sys.sram(base + i)).collect();
                    harbor::MemoryMap::from_raw(cfg, bytes)
                }
                Protection::None => unreachable!(),
            };
            // a was freed: its header block is free again.
            assert_eq!(view.owner_of(a_ptr - 2).unwrap(), DomainId::TRUSTED, "{p:?} {engine}");
            // b belongs to dom2, with a start flag on its header block.
            assert_eq!(view.owner_of(b_ptr - 2).unwrap(), DomainId::num(2), "{p:?} {engine}");
            assert!(view.is_segment_start(b_ptr - 2).unwrap(), "{p:?} {engine}");
            // 20 B + 2 header = 3 blocks.
            assert_eq!(view.segment_blocks(b_ptr - 2).unwrap(), 3, "{p:?} {engine}");
        }
    }
}

#[test]
fn surge_with_tree_routing_collects_samples_everywhere() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in ALL {
            let mods = [modules::tree_routing(3), modules::surge(1, 3)];
            let mut sys = SosSystem::build(p, &mods, run_scheduler_app).unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.post(DomainId::num(1), MSG_TIMER);
            sys.post(DomainId::num(1), MSG_TIMER);
            sys.run_to_break(4_000_000).unwrap_or_else(|e| panic!("{p:?} {engine}: {e}"));

            let state = sys.layout.state_addr(1);
            let buf = sys.sram16(state);
            assert_ne!(buf, 0, "{p:?} {engine}: surge allocated its buffer");
            assert_eq!(sys.sram(state + 2), 2, "{p:?} {engine}: two samples taken");
            // Samples land at buffer[parent offset = 2].
            assert_eq!(sys.sram(buf + 2), 2, "{p:?} {engine}: latest sample stored");
        }
    }
}

#[test]
fn surge_without_tree_corrupts_silently_on_stock_avr() {
    // The paper's war story, unprotected: the failed cross-domain call
    // returns 0xff, and Surge writes the sample 255 bytes past its buffer.
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let mut sys =
            SosSystem::build(Protection::None, &[modules::surge(1, 3)], run_scheduler_app).unwrap();
        sys.set_prove(prove);
        sys.set_turbo(turbo);
        sys.boot().unwrap();
        sys.post(DomainId::num(1), MSG_TIMER);
        sys.run_to_break(4_000_000).unwrap();

        let state = sys.layout.state_addr(1);
        let buf = sys.sram16(state);
        let wild = buf + 0xff;
        assert_eq!(sys.sram(wild), 1, "{engine}: the sample landed 255 bytes out of bounds");
    }
}

#[test]
fn surge_without_tree_is_caught_by_protection() {
    // The same fault under UMPU and SFI: detected and blocked.
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in PROTECTED {
            let mut sys = SosSystem::build(p, &[modules::surge(1, 3)], run_scheduler_app).unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.post(DomainId::num(1), MSG_TIMER);
            let err = sys.run_to_break(4_000_000).unwrap_err();
            match err {
                Fault::Env(e) => assert_eq!(e.code, fault_code::MEM_MAP, "{p:?} {engine}"),
                other => panic!("{p:?} {engine}: expected protection fault, got {other:?}"),
            }
            // And the wild byte was never written.
            let state = sys.layout.state_addr(1);
            let buf = sys.sram16(state);
            assert_eq!(sys.sram(buf + 0xff), 0, "{p:?} {engine}: store blocked");
        }
    }
}

#[test]
fn surge_fixed_survives_missing_tree_everywhere() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in ALL {
            let mut sys =
                SosSystem::build(p, &[modules::surge_fixed(1, 3)], run_scheduler_app).unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.post(DomainId::num(1), MSG_TIMER);
            sys.run_to_break(4_000_000).unwrap_or_else(|e| panic!("{p:?} {engine}: {e}"));
            let state = sys.layout.state_addr(1);
            assert_eq!(sys.sram(state + 2), 0, "{p:?} {engine}: sample dropped, no corruption");
        }
    }
}

#[test]
fn free_by_non_owner_is_refused_under_protection() {
    // dom2 mallocs on init; dom4 (the thief) tries to free dom2's buffer on
    // its timer message and records the kernel's answer.
    fn owner_module(dom: u8) -> mini_sos::ModuleSource {
        mini_sos::ModuleSource {
            name: "owner",
            domain: DomainId::num(dom),
            entries: vec!["own_handler"],
            build: Box::new(move |a, ctx| {
                use avr_core::isa::Reg;
                let done = a.label("own_done");
                a.here("own_handler");
                a.cpi(Reg::R24, mini_sos::MSG_INIT);
                a.brne(done);
                a.ldi(Reg::R24, 8);
                a.ldi(Reg::R22, ctx.domain.index());
                ctx.call_kernel(a, JtEntry::Malloc);
                a.sts(ctx.state_addr, Reg::R24);
                a.sts(ctx.state_addr + 1, Reg::R25);
                a.bind(done);
                a.ret();
            }),
        }
    }
    fn thief_module(dom: u8, victim_state: u16) -> mini_sos::ModuleSource {
        mini_sos::ModuleSource {
            name: "thief",
            domain: DomainId::num(dom),
            entries: vec!["thief_handler"],
            build: Box::new(move |a, ctx| {
                use avr_core::isa::Reg;
                let done = a.label("thief_done");
                a.here("thief_handler");
                a.cpi(Reg::R24, MSG_TIMER);
                a.brne(done);
                a.lds(Reg::R24, victim_state); // reads are unrestricted
                a.lds(Reg::R25, victim_state + 1);
                ctx.call_kernel(a, JtEntry::Free);
                a.sts(ctx.state_addr, Reg::R24); // record the status
                a.bind(done);
                a.ret();
            }),
        }
    }

    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in PROTECTED {
            let layout = mini_sos::SosLayout::default_layout();
            let mods = [owner_module(2), thief_module(4, layout.state_addr(2))];
            let mut sys = SosSystem::build(p, &mods, run_scheduler_app).unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.post(DomainId::num(4), MSG_TIMER);
            sys.run_to_break(4_000_000).unwrap_or_else(|e| panic!("{p:?} {engine}: {e}"));

            let thief_state = sys.layout.state_addr(4);
            assert_eq!(
                sys.sram(thief_state),
                0xff,
                "{p:?} {engine}: kernel refused the rogue free"
            );
            // The victim's buffer is still owned by dom2.
            let victim_buf = sys.sram16(sys.layout.state_addr(2));
            let owner = match p {
                Protection::Umpu => {
                    sys.umpu_env().unwrap().memory_map_view().owner_of(victim_buf - 2).unwrap()
                }
                Protection::Sfi => {
                    let rt = sys.runtime.as_ref().unwrap();
                    let cfg = rt.memmap_config();
                    let base = sys.layout.prot.mem_map_base;
                    let bytes: Vec<u8> =
                        (0..cfg.map_size_bytes()).map(|i| sys.sram(base + i)).collect();
                    harbor::MemoryMap::from_raw(cfg, bytes).owner_of(victim_buf - 2).unwrap()
                }
                Protection::None => unreachable!(),
            };
            assert_eq!(owner, DomainId::num(2), "{p:?} {engine}: segment ownership intact");
        }
    }
}

#[test]
fn protection_overhead_ordering_on_the_blink_workload() {
    // The macro shape: UMPU costs a little more than no protection; SFI
    // costs much more than UMPU.
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let mut cycles = Vec::new();
        for p in ALL {
            let mut sys = SosSystem::build(p, &[modules::blink(0)], run_scheduler_app).unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            let booted = sys.cycles();
            for _ in 0..8 {
                sys.post(DomainId::num(0), MSG_TIMER);
            }
            sys.run_to_break(4_000_000).unwrap();
            cycles.push((p, sys.cycles() - booted));
        }
        let (none, umpu, sfi) = (cycles[0].1, cycles[1].1, cycles[2].1);
        assert!(umpu > none, "{engine}: UMPU adds overhead: {none} vs {umpu}");
        assert!(sfi > umpu, "{engine}: SFI costs more than UMPU: {umpu} vs {sfi}");
        let umpu_ovh = umpu as f64 / none as f64;
        let sfi_ovh = sfi as f64 / none as f64;
        assert!(umpu_ovh < 1.35, "{engine}: UMPU overhead is small ({umpu_ovh:.2}x)");
        assert!(sfi_ovh > 1.25, "{engine}: SFI overhead is substantial ({sfi_ovh:.2}x)");
    }
}

#[test]
fn snapshots_replay_deterministically() {
    // The machine is a value: cloning it forks the entire state, and the
    // simulator is deterministic, so both forks evolve identically.
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let mut sys =
            SosSystem::build(Protection::Umpu, &[modules::blink(0)], run_scheduler_app).unwrap();
        sys.set_prove(prove);
        sys.set_turbo(turbo);
        sys.boot().unwrap();
        for _ in 0..2 {
            sys.post(DomainId::num(0), MSG_TIMER);
        }
        let snapshot = sys.clone();

        sys.run_to_break(2_000_000).unwrap();
        let mut replay = snapshot;
        replay.run_to_break(2_000_000).unwrap();

        assert_eq!(sys.cycles(), replay.cycles(), "{engine}: cycles");
        assert_eq!(sys.pc(), replay.pc(), "{engine}: pc");
        let state = sys.layout.state_addr(0);
        assert_eq!(sys.sram(state), replay.sram(state), "{engine}: blink state");
    }
}

/// Fetch-side protection on every engine: the domain tracker admits only a
/// domain's own code and the jump tables, so a domain-2 timer handler that
/// jumps into kernel code must fault at the jump target with the reference
/// interpreter's CFI fault, cycle count and fault history, and the
/// recovered system must keep running Blink.
#[test]
fn jump_into_kernel_code_faults_identically_on_every_engine() {
    fn kernel_jumper(dom: u8) -> ModuleSource {
        ModuleSource {
            name: "kernel_jumper",
            domain: DomainId::num(dom),
            entries: vec!["kj_handler"],
            build: Box::new(|a, _ctx| {
                let done = a.label("kj_done");
                a.here("kj_handler");
                a.cpi(Reg::R24, MSG_TIMER);
                a.brne(done);
                a.jmp_abs(0x0000);
                a.bind(done);
                a.ret();
            }),
        }
    }
    // Returns the fault, the cycle count at the fault, the fault history
    // and Blink's tick count after recovery.
    let run = |turbo: bool, prove: bool| {
        let mods = [modules::blink(0), kernel_jumper(2)];
        let mut sys = SosSystem::build(Protection::Umpu, &mods, run_scheduler_app).unwrap();
        sys.set_prove(prove);
        sys.set_turbo(turbo);
        sys.boot().unwrap();
        sys.run_slice(1_000_000).unwrap(); // deliver the init messages
        sys.post(DomainId::num(2), MSG_TIMER);
        let fault = sys.run_slice(1_000_000).expect_err("a jump into the kernel must fault");
        let cycles = sys.cycles();
        sys.recover_from_fault();
        for _ in 0..3 {
            sys.post(DomainId::num(0), MSG_TIMER);
        }
        sys.run_slice(1_000_000).unwrap();
        (fault, cycles, sys.fault_history().to_vec(), sys.sram(sys.layout.state_addr(0)))
    };
    let reference = run(false, false);
    let Fault::Env(e) = reference.0 else { panic!("expected a protection fault: {reference:?}") };
    assert_eq!(
        (e.code, e.addr, e.info),
        (fault_code::CFI, 0, 2),
        "reference: CFI fault at 0 in domain 2"
    );
    assert_eq!(
        reference.2,
        [FaultRecord { cycles: reference.1, code: fault_code::CFI, addr: 0, info: 2 }],
        "reference: one fault recorded"
    );
    assert_eq!(reference.3, 3, "reference: blink kept running after recovery");
    for (turbo, prove) in ENGINES {
        assert_eq!(run(turbo, prove), reference, "turbo={turbo} prove={prove}");
    }
}
