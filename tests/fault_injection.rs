//! Fault-injection matrix: a module performs one wild write into each
//! region class of the address space; UMPU and SFI must both block it and
//! report the same fault class. Benign variants must pass everywhere, and
//! every engine of [`ENGINES`] must agree.
//!
//! The randomized sweep is reproducible from a single u64 seed: set
//! `HARBOR_SEED=n cargo test --test fault_injection` to replay a run
//! (the default seed is fixed, so plain `cargo test` is deterministic too).

use avr_core::isa::Reg;
use avr_core::Fault;
use harbor::{fault_code, DomainId};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{ModuleSource, Protection, SosSystem, ENGINES};
use rand::{Rng, SeedableRng, StdRng};

const DOM: u8 = 2;

/// Explicit sweep seed: `HARBOR_SEED` if set, a fixed default otherwise —
/// never ambient entropy.
fn seed() -> u64 {
    match std::env::var("HARBOR_SEED") {
        Ok(v) => v.parse().expect("HARBOR_SEED must be a u64"),
        Err(_) => 0x5eed,
    }
}

/// Builds a module whose timer handler stores 0xEE at `target`.
fn wild_writer(target: u16) -> ModuleSource {
    ModuleSource {
        name: "wild_writer",
        domain: DomainId::num(DOM),
        entries: vec!["ww_handler"],
        build: Box::new(move |a, _ctx| {
            let done = a.label("ww_done");
            a.here("ww_handler");
            a.cpi(Reg::R24, MSG_TIMER);
            a.brne(done);
            a.ldi(Reg::R16, 0xee);
            a.sts(target, Reg::R16);
            a.bind(done);
            a.ret();
        }),
    }
}

/// Runs the wild writer under `p` on one `(turbo, prove)` engine; returns
/// the fault code (None = clean).
fn outcome(p: Protection, (turbo, prove): (bool, bool), target: u16) -> Option<u16> {
    let mut sys = SosSystem::build(p, &[wild_writer(target)], |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .expect("builds");
    sys.set_prove(prove);
    sys.set_turbo(turbo);
    sys.boot().expect("boot");
    sys.post(DomainId::num(DOM), MSG_TIMER);
    match sys.run_to_break(10_000_000) {
        Ok(_) => None,
        Err(Fault::Env(e)) => Some(e.code),
        Err(other) => panic!("{p:?} turbo={turbo} prove={prove}: unexpected failure: {other}"),
    }
}

#[test]
fn wild_write_matrix() {
    let layout = mini_sos::SosLayout::default_layout();
    // (description, target, expected fault code; the module's own state
    // segment is the one benign row).
    let cases: &[(&str, u16, Option<u16>)] = &[
        ("own state segment", layout.state_addr(DOM), None),
        ("kernel globals (cur_dom)", 0x0062, Some(fault_code::KERNEL_SPACE)),
        ("memory-map table itself", layout.prot.mem_map_base, Some(fault_code::KERNEL_SPACE)),
        ("foreign heap block", layout.heap_base() + 0x80, Some(fault_code::MEM_MAP)),
        ("another module's state", layout.state_addr(5), Some(fault_code::MEM_MAP)),
        ("safe stack", layout.prot.safe_stack_base + 4, Some(fault_code::MEM_MAP)),
        ("caller's stack frames", avr_core::mem::RAMEND, Some(fault_code::STACK_BOUND)),
    ];
    for engine @ (turbo, prove) in ENGINES {
        for p in [Protection::Umpu, Protection::Sfi] {
            for (what, target, expect) in cases {
                let got = outcome(p, engine, *target);
                assert_eq!(
                    got, *expect,
                    "{p:?} turbo={turbo} prove={prove}: wild write to {what} ({target:#06x}): \
                     got {got:?}, expected {expect:?}"
                );
            }
        }
    }
}

#[test]
fn unprotected_build_lets_every_wild_write_through() {
    let layout = mini_sos::SosLayout::default_layout();
    for (turbo, prove) in ENGINES {
        for target in
            [layout.heap_base() + 0x80, layout.state_addr(5), layout.prot.safe_stack_base + 4]
        {
            let mut sys = SosSystem::build(Protection::None, &[wild_writer(target)], |a, api| {
                api.run_scheduler(a);
                a.brk();
            })
            .unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.post(DomainId::num(DOM), MSG_TIMER);
            sys.run_to_break(10_000_000).unwrap();
            assert_eq!(
                sys.sram(target),
                0xee,
                "turbo={turbo} prove={prove}: stock AVR: the write landed at {target:#06x}"
            );
        }
    }
}

#[test]
fn umpu_and_sfi_agree_on_every_case() {
    // Protection equivalence: the two implementations enforce the same
    // policy (the matrix above asserts this pairwise; this test makes the
    // property explicit over a denser target sweep).
    let layout = mini_sos::SosLayout::default_layout();
    for engine @ (turbo, prove) in ENGINES {
        for target in (0x0062..0x0fff).step_by(251) {
            let u = outcome(Protection::Umpu, engine, target);
            let s = outcome(Protection::Sfi, engine, target);
            assert_eq!(
                u, s,
                "turbo={turbo} prove={prove}: divergence at {target:#06x}: UMPU {u:?} vs SFI {s:?}"
            );
        }
    }
    let _ = layout;
}

#[test]
fn umpu_and_sfi_agree_on_seeded_random_targets() {
    // The dense sweep above uses a fixed stride; this one draws targets
    // from the seeded generator so CI can widen coverage over time by
    // varying HARBOR_SEED while any failure stays reproducible.
    let seed = seed();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..24 {
        let target = rng.gen_range(0x0062u16..0x0fff);
        for engine @ (turbo, prove) in ENGINES {
            let u = outcome(Protection::Umpu, engine, target);
            let s = outcome(Protection::Sfi, engine, target);
            assert_eq!(
                u, s,
                "seed {seed} turbo={turbo} prove={prove}: divergence at {target:#06x}: \
                 UMPU {u:?} vs SFI {s:?}"
            );
        }
    }
}
