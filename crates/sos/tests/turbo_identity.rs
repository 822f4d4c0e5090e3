//! The turbo engine's contract at system level: enabling `harbor-turbo` on
//! a full mini-SOS machine changes *nothing observable* — cycles,
//! instructions, debug output, SRAM, fault codes and the complete
//! protection-event stream are byte-identical to the reference interpreter,
//! across every protection build and through hot-load/unload flash churn.

use avr_core::Fault;
use harbor::{fault_code, DomainId};
use harbor_scope::ScopeSink;
use mini_sos::modules::{blink, consumer, producer, stress_store, surge, tree_routing};
use mini_sos::{Protection, SosSystem, MSG_TIMER};

const BUILDS: [Protection; 3] = [Protection::None, Protection::Sfi, Protection::Umpu];

fn pipeline(p: Protection, turbo: bool) -> SosSystem {
    let mods = [blink(0), producer(1, 2), consumer(2, 1)];
    let mut sys = SosSystem::build(p, &mods, |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .unwrap();
    sys.set_turbo(turbo);
    sys.boot().unwrap();
    sys
}

fn drive(sys: &mut SosSystem, rounds: usize) {
    for _ in 0..rounds {
        sys.post(DomainId::num(0), MSG_TIMER);
        sys.post(DomainId::num(1), MSG_TIMER);
        sys.run_slice(1_000_000).unwrap();
    }
}

/// The headline invariant: for every protection build, the turbo run of the
/// message pipeline retires the same instructions in the same cycles with
/// the same output, SRAM state and trace events as the reference run.
#[test]
fn turbo_is_cycle_and_event_identical_across_builds() {
    for p in BUILDS {
        let mut reference = pipeline(p, false);
        let mut turbo = pipeline(p, true);
        assert!(!reference.turbo_enabled() && turbo.turbo_enabled());
        reference.attach_scope(ScopeSink::stream());
        turbo.attach_scope(ScopeSink::stream());
        drive(&mut reference, 6);
        drive(&mut turbo, 6);
        assert_eq!(reference.cycles(), turbo.cycles(), "{p:?}: cycles diverged");
        assert_eq!(reference.instructions(), turbo.instructions(), "{p:?}: instructions");
        assert_eq!(reference.debug_out(), turbo.debug_out(), "{p:?}: output diverged");
        for dom in 0..3 {
            let at = reference.layout.state_addr(dom);
            assert_eq!(reference.sram(at), turbo.sram(at), "{p:?}: dom{dom} state");
        }
        assert_eq!(
            reference.take_scope().unwrap().events(),
            turbo.take_scope().unwrap().events(),
            "{p:?}: protection-event streams diverged"
        );
        // ...and the fast path actually ran (not everything fell back).
        let stats = turbo.turbo_stats().unwrap();
        assert!(stats.blocks_built > 0, "{p:?}: no blocks decoded");
        assert!(stats.cached > stats.fallback, "{p:?}: cache barely used");
    }
}

/// The war-story fault path (Surge calling an absent Tree Routing) must
/// fault, recover and refault identically under turbo: same fault codes at
/// the same cycle stamps, in the history and in the trace.
#[test]
fn turbo_fault_recover_refault_is_identical() {
    for p in [Protection::Sfi, Protection::Umpu] {
        let mk = |turbo: bool| {
            let mut sys = SosSystem::build(p, &[surge(3, 2)], |a, api| {
                api.run_scheduler(a);
                a.brk();
            })
            .unwrap();
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.attach_scope(ScopeSink::stream());
            for _ in 0..2 {
                sys.post(DomainId::num(3), MSG_TIMER);
                sys.run_slice(1_000_000).expect_err("surge must fault");
                sys.recover_from_fault();
            }
            sys
        };
        let mut reference = mk(false);
        let mut turbo = mk(true);
        assert_eq!(reference.cycles(), turbo.cycles(), "{p:?}: cycles diverged");
        let rh = reference.fault_history().to_vec();
        let th = turbo.fault_history().to_vec();
        assert_eq!(rh.len(), 2, "{p:?}: both faults recorded");
        assert_eq!(rh, th, "{p:?}: fault histories diverged");
        assert_eq!(rh[0].code, fault_code::MEM_MAP, "{p:?}");
        assert_eq!(
            reference.take_scope().unwrap().events(),
            turbo.take_scope().unwrap().events(),
            "{p:?}: event streams diverged across fault + recovery"
        );
    }
}

/// Hot-loading and unloading modules rewrites flash at runtime; each write
/// must bump the generation counter, invalidate the turbo cache, and leave
/// the turbo run indistinguishable from the reference run.
#[test]
fn hot_load_unload_invalidates_and_stays_identical() {
    for p in [Protection::Sfi, Protection::Umpu] {
        let scenario = |turbo: bool| -> SosSystem {
            let mut sys = SosSystem::build(p, &[surge(1, 3)], |a, api| {
                api.run_scheduler(a);
                a.brk();
            })
            .unwrap();
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.run_to_break(10_000_000).unwrap();
            // Fault (no Tree Routing), recover, hot-load it, sample again,
            // then unload and take the error-stub fault once more.
            sys.post(DomainId::num(1), MSG_TIMER);
            sys.steer(sys.symbol("ker_boot_done") + 1);
            let err = sys.run_to_break(10_000_000).unwrap_err();
            assert!(matches!(err, Fault::Env(e) if e.code == fault_code::MEM_MAP), "{p:?}");
            sys.recover_from_fault();
            sys.load_module(&tree_routing(3)).unwrap();
            sys.post(DomainId::num(1), MSG_TIMER);
            sys.steer(sys.symbol("ker_boot_done") + 1);
            sys.run_to_break(10_000_000).unwrap();
            sys.unload_module(DomainId::num(3));
            sys.post(DomainId::num(1), MSG_TIMER);
            sys.steer(sys.symbol("ker_boot_done") + 1);
            sys.run_to_break(10_000_000).unwrap_err();
            sys.recover_from_fault();
            sys
        };
        let reference = scenario(false);
        let turbo = scenario(true);
        assert_eq!(reference.cycles(), turbo.cycles(), "{p:?}: cycles diverged");
        assert_eq!(reference.instructions(), turbo.instructions(), "{p:?}");
        assert_eq!(reference.fault_history().to_vec(), turbo.fault_history().to_vec(), "{p:?}");
        let state = reference.layout.state_addr(1);
        let (rbuf, tbuf) = (reference.sram16(state), turbo.sram16(state));
        assert_eq!(rbuf, tbuf, "{p:?}: surge state diverged");
        assert_eq!(reference.sram(rbuf + 2), turbo.sram(tbuf + 2), "{p:?}: sample diverged");
        // Every flash write (module burn + jump-table relink) bumped the
        // generation, and the engine invalidated on each change it saw.
        assert!(turbo.flash_generation() >= 4, "{p:?}: load + unload churn counted");
        assert_eq!(reference.flash_generation(), turbo.flash_generation(), "{p:?}");
        let stats = turbo.turbo_stats().unwrap();
        assert!(stats.invalidations >= 2, "{p:?}: hot-load churn must invalidate");
    }
}

/// `set_turbo` and `set_prove` commute: whichever comes first, and before
/// or after boot, a turbo + prove system hot-loading `stress_store` next
/// to Blink runs exactly like the reference with prove, eliding the same
/// stores.
#[test]
fn turbo_and_prove_in_either_order_run_identically() {
    let run = |turbo_first: Option<bool>, before_boot: bool| {
        let mut sys = SosSystem::build(Protection::Umpu, &[blink(0)], |a, api| {
            api.run_scheduler(a);
            a.brk();
        })
        .unwrap();
        let enable = |sys: &mut SosSystem| match turbo_first {
            Some(true) => {
                sys.set_turbo(true);
                sys.set_prove(true);
            }
            Some(false) => {
                sys.set_prove(true);
                sys.set_turbo(true);
            }
            None => sys.set_prove(true),
        };
        if before_boot {
            enable(&mut sys);
        }
        sys.boot().unwrap();
        if !before_boot {
            enable(&mut sys);
        }
        sys.load_module(&stress_store(2)).unwrap();
        for _ in 0..4 {
            sys.post(DomainId::num(0), MSG_TIMER);
            sys.post(DomainId::num(2), MSG_TIMER);
            sys.run_slice(1_000_000).unwrap();
        }
        sys
    };
    for before_boot in [true, false] {
        let reference = run(None, before_boot);
        assert!(reference.stores_elided() > 0, "prove elided no store");
        for turbo_first in [true, false] {
            let sys = run(Some(turbo_first), before_boot);
            let on = format!("turbo first: {turbo_first}, before boot: {before_boot}");
            assert!(sys.turbo_enabled() && sys.prove_enabled(), "{on}");
            assert_eq!(sys.cycles(), reference.cycles(), "{on}: cycles");
            assert_eq!(sys.instructions(), reference.instructions(), "{on}: instructions");
            assert_eq!(sys.stores_elided(), reference.stores_elided(), "{on}: stores elided");
            assert_eq!(sys.fault_history(), reference.fault_history(), "{on}: faults");
            let state = reference.layout.state_addr(2);
            assert_eq!(sys.sram(state), reference.sram(state), "{on}: stress_store state");
        }
    }
}

/// `run_profiled` intentionally stays on the reference interpreter (it
/// observes per-instruction PC), so a turbo system still profiles exactly.
#[test]
fn profiled_runs_agree_with_turbo_runs() {
    let mut turbo = pipeline(Protection::Umpu, true);
    let mut reference = pipeline(Protection::Umpu, false);
    drive(&mut turbo, 3);
    drive(&mut reference, 3);
    assert_eq!(reference.cycles(), turbo.cycles());
}
