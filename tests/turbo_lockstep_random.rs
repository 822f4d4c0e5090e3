//! Randomized differential campaigns for the turbo engine, reproducible
//! from a single seed: `HARBOR_SEED=n cargo test --test turbo_lockstep_random`
//! replays any run. Three layers:
//!
//! 1. raw-flash fuzzing — machines filled with random opcode words, stepped
//!    in instruction-by-instruction lockstep (registers, SRAM, cycles and
//!    fault verdicts must agree at every step, including illegal encodings);
//! 2. seeded wild-write fault injection on full mini-SOS systems — the
//!    turbo run must reach the same verdict in the same number of cycles;
//! 3. a proptest harness mixing module-shape variants with random fault
//!    targets, shrinkable on failure.

mod common;

use avr_core::exec::{Cpu, Step};
use avr_core::isa::Reg;
use avr_core::mem::PlainEnv;
use common::seed;
use harbor::DomainId;
use harbor_turbo::TurboEngine;
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{ModuleSource, Protection, SosSystem};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

const DOM: u8 = 2;

/// Default seed; `HARBOR_SEED` overrides it.
const SEED: u64 = 0x5eed;

fn assert_same_state(a: &Cpu<PlainEnv>, b: &Cpu<PlainEnv>, what: &str) {
    assert_eq!(a.pc, b.pc, "{what}: pc");
    assert_eq!(a.sp, b.sp, "{what}: sp");
    assert_eq!(a.sreg, b.sreg, "{what}: sreg");
    assert_eq!(a.regs, b.regs, "{what}: register file");
    assert_eq!(a.cycles(), b.cycles(), "{what}: cycles");
    assert_eq!(a.instructions(), b.instructions(), "{what}: instructions");
    assert_eq!(a.env.data.sram(), b.env.data.sram(), "{what}: sram");
}

/// Layer 1: machines whose flash is random words — every decodable and
/// reserved encoding the generator stumbles into must behave identically,
/// step by step, through the cached and fallback paths alike.
#[test]
fn random_flash_images_run_in_lockstep() {
    let campaign = seed(SEED);
    for image in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(campaign ^ (image << 32));
        let mut env = PlainEnv::new();
        for w in 0..512u32 {
            env.flash.set_word(w, rng.gen::<u16>());
        }
        let env_b = env.clone();
        let mut reference = Cpu::new(env);
        let mut turbo_cpu = Cpu::new(env_b);
        let mut turbo = TurboEngine::new();
        for n in 0..3_000 {
            let r = reference.step();
            let t = turbo.step(&mut turbo_cpu, 0);
            assert_eq!(r, t, "seed {campaign} image {image} step {n}: outcome diverged");
            assert_same_state(
                &reference,
                &turbo_cpu,
                &format!("seed {campaign} image {image} step {n}"),
            );
            if !matches!(r, Ok(Step::Continue)) {
                break;
            }
        }
    }
}

/// Builds a module whose timer handler does `variant`-shaped busywork and
/// then stores 0xEE at `target` — the fault-injection wild writer crossed
/// with the flow suite's module-shape battery.
fn variant_writer(variant: u8, target: u16) -> ModuleSource {
    ModuleSource {
        name: "variant_writer",
        domain: DomainId::num(DOM),
        entries: vec!["vw_handler"],
        build: Box::new(move |a, ctx| {
            let done = a.label("vw_done");
            a.here("vw_handler");
            a.cpi(Reg::R24, MSG_TIMER);
            a.brne(done);
            match variant % 4 {
                0 => {}
                1 => {
                    // A counting loop (branch taken and not taken).
                    let l = a.label("vw_loop");
                    a.ldi(Reg::R16, 5);
                    a.bind(l);
                    a.dec(Reg::R16);
                    a.brne(l);
                }
                2 => {
                    // A store into the module's own state first (benign).
                    a.ldi(Reg::R16, 1);
                    a.sts(ctx.state_addr, Reg::R16);
                }
                _ => {
                    // Skips over one- and two-word instructions.
                    a.ldi(Reg::R16, 1);
                    a.sbrs(Reg::R16, 0);
                    a.sts(ctx.state_addr, Reg::R16);
                    a.sbrc(Reg::R16, 1);
                    a.inc(Reg::R16);
                }
            }
            a.ldi(Reg::R17, 0xee);
            a.sts(target, Reg::R17);
            a.bind(done);
            a.ret();
        }),
    }
}

/// Runs a variant writer to completion; returns (outcome, cycles,
/// instructions, byte at target). The outcome is the full result rendered
/// to a string, so *any* ending — clean break, protection fault, or a
/// wild-jump crash into erased flash — must match exactly.
fn run_one(p: Protection, variant: u8, target: u16, turbo: bool) -> (String, u64, u64, u8) {
    let mut sys = SosSystem::build(p, &[variant_writer(variant, target)], |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .expect("builds");
    sys.set_turbo(turbo);
    sys.boot().expect("boot");
    sys.post(DomainId::num(DOM), MSG_TIMER);
    let verdict = format!("{:?}", sys.run_to_break(10_000_000));
    (verdict, sys.cycles(), sys.instructions(), sys.sram(target))
}

/// Layer 2: the seeded wild-write campaign across all three protection
/// builds — turbo and reference must agree on the verdict, the exact cycle
/// count, and whether the poison byte landed.
#[test]
fn seeded_fault_injection_is_identical_under_turbo() {
    let campaign = seed(SEED);
    let mut rng = StdRng::seed_from_u64(campaign ^ 0x7475_7262); // "turb"
    for p in [Protection::None, Protection::Umpu, Protection::Sfi] {
        for round in 0..8 {
            let variant = rng.gen_range(0u8..4);
            let target = rng.gen_range(0x0062u16..0x0fff);
            let reference = run_one(p, variant, target, false);
            let turbo = run_one(p, variant, target, true);
            assert_eq!(
                reference, turbo,
                "seed {campaign} {p:?} round {round}: variant {variant} target {target:#06x}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Layer 3: shrinkable equivalence over the full (variant × target ×
    /// protection) space. `salt` folds in `HARBOR_SEED` so the campaign
    /// moves with the repo-wide seed while staying reproducible.
    #[test]
    fn turbo_matches_reference_on_random_modules(
        variant in 0u8..4,
        target in 0x0062u16..0x0fff,
        prot in 0u8..3,
        salt in any::<u64>(),
    ) {
        let p = [Protection::None, Protection::Umpu, Protection::Sfi][prot as usize];
        let target = (target ^ (seed(SEED) as u16 & 0x03ff) ^ (salt as u16 & 0x01ff)).clamp(0x0062, 0x0ffe);
        let reference = run_one(p, variant, target, false);
        let turbo = run_one(p, variant, target, true);
        prop_assert_eq!(reference, turbo, "{:?} variant {} target {:#06x}", p, variant, target);
    }
}
