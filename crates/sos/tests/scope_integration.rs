//! Integration of harbor-scope with the full mini-SOS system: attaching a
//! sink must never perturb the simulated machine, faults must land in the
//! trace and the fault history across recoveries, and the per-domain cycle
//! profiler must attribute exactly what the workload did.

use harbor::DomainId;
use harbor_scope::{DomainProfiler, Event, EventKind, Mechanism, ScopeSink};
use mini_sos::modules::{blink, consumer, producer, surge};
use mini_sos::{modules, Protection, SosSystem, ENGINES, MSG_TIMER};

const BUILDS: [Protection; 3] = [Protection::None, Protection::Sfi, Protection::Umpu];

/// The message pipeline under `p` on one `(turbo, prove)` engine of
/// [`ENGINES`], booted.
fn pipeline(p: Protection, (turbo, prove): (bool, bool)) -> SosSystem {
    let mods = [blink(0), producer(1, 2), consumer(2, 1)];
    let mut sys = SosSystem::build(p, &mods, |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .unwrap();
    sys.set_prove(prove);
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

/// The tentpole's zero-cost guarantee: for every protection build, the same
/// workload with a sink attached retires the same instructions in the same
/// number of cycles with the same output as a bare run.
#[test]
fn attaching_a_sink_is_cycle_identical() {
    for engine @ (turbo, prove) in ENGINES {
        for p in BUILDS {
            let on = format!("{p:?} turbo={turbo} prove={prove}");
            let mut bare = pipeline(p, engine);
            let mut traced = pipeline(p, engine);
            traced.attach_scope(ScopeSink::stream());
            drive(&mut bare, 6);
            drive(&mut traced, 6);
            assert_eq!(bare.cycles(), traced.cycles(), "{on}: cycles diverged");
            assert_eq!(bare.instructions(), traced.instructions(), "{on}: instructions diverged");
            assert_eq!(bare.debug_out(), traced.debug_out(), "{on}: output diverged");
            let state = bare.layout.state_addr(0);
            assert_eq!(bare.sram(state), traced.sram(state), "{on}: blink state diverged");
            // ...and the traced run actually observed something.
            assert!(traced.scope().unwrap().recorded() > 0, "{on}: no events recorded");
        }
    }
}

/// A ring sink under pressure drops old event bodies but must not perturb
/// the machine either, and its per-kind counts stay exact.
#[test]
fn ring_sink_under_pressure_is_also_identical() {
    for engine @ (turbo, prove) in ENGINES {
        let on = format!("turbo={turbo} prove={prove}");
        let mut bare = pipeline(Protection::Umpu, engine);
        let mut ring = pipeline(Protection::Umpu, engine);
        ring.attach_scope(ScopeSink::ring(16));
        drive(&mut bare, 6);
        drive(&mut ring, 6);
        assert_eq!(bare.cycles(), ring.cycles(), "{on}: cycles diverged");
        let sink = ring.take_scope().unwrap();
        assert!(sink.dropped() > 0, "{on}: 16 slots must overflow on this workload");
        let counted: u64 = sink.kind_counts().as_array().iter().sum();
        assert_eq!(counted, sink.recorded(), "{on}: kind counts survive drops");
    }
}

/// The war-story fault (Surge using the unchecked 0xff error return as a
/// buffer offset) must appear in both the fault history and the trace, and
/// recovery must leave the system able to fault cleanly again.
#[test]
fn fault_recover_refault_history_and_trace() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in [Protection::Sfi, Protection::Umpu] {
            // No tree-routing module installed: the cross-domain call lands on
            // the jump table's error stub.
            let mods = [surge(3, 2)];
            let mut sys = SosSystem::build(p, &mods, |a, api| {
                api.run_scheduler(a);
                a.brk();
            })
            .unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.attach_scope(ScopeSink::stream());
            assert!(
                sys.fault_history().is_empty(),
                "{p:?} {engine}: no fault before the first tick"
            );

            sys.post(DomainId::num(3), MSG_TIMER);
            sys.run_slice(1_000_000).expect_err("surge must fault");
            assert_eq!(sys.fault_history().len(), 1, "{p:?} {engine}: first fault recorded");
            sys.recover_from_fault();

            sys.post(DomainId::num(3), MSG_TIMER);
            sys.run_slice(1_000_000).expect_err("surge must refault after recovery");
            assert_eq!(sys.fault_history().len(), 2, "{p:?} {engine}: refault recorded");
            sys.recover_from_fault();

            let first = sys.fault_history()[0];
            let second = sys.fault_history()[1];
            assert_eq!(first.code, second.code, "{p:?} {engine}: same bug, same fault code");
            assert!(second.cycles > first.cycles, "{p:?} {engine}: the refault came later");

            let events = sys.take_scope().unwrap().events();
            let faults = events.iter().filter(|e| matches!(e, Event::Fault { .. })).count();
            let recoveries = events.iter().filter(|e| matches!(e, Event::Recovery { .. })).count();
            assert!(faults >= 2, "{p:?} {engine}: trace shows both faults");
            assert_eq!(recoveries, 2, "{p:?} {engine}: trace shows both recoveries");
        }
    }
}

/// Under UMPU the fixed workload has a known cross-domain call count: one
/// init dispatch plus one per timer message, each matched by a return.
#[test]
fn umpu_cross_domain_edges_count_the_workload() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let rounds = 5u64;
        let mut sys = SosSystem::build(Protection::Umpu, &[modules::blink(0)], |a, api| {
            api.run_scheduler(a);
            a.brk();
        })
        .unwrap();
        sys.set_prove(prove);
        sys.set_turbo(turbo);
        sys.boot().unwrap();
        sys.attach_scope(ScopeSink::stream());
        for _ in 0..rounds {
            sys.post(DomainId::num(0), MSG_TIMER);
            sys.run_slice(1_000_000).unwrap();
        }
        let sink = sys.take_scope().unwrap();
        let counts = sink.kind_counts();
        let calls = counts.get(EventKind::CrossDomainCall);
        assert_eq!(calls, rounds + 1, "{engine}: init + one per timer");
        assert_eq!(counts.get(EventKind::CrossDomainRet), rounds + 1, "{engine}: returns");
        assert_eq!(counts.get(EventKind::JumpTableDispatch), rounds + 1, "{engine}: dispatches");
        // Blink's handler stores to its state block each delivery: the memory
        // map arbitrated at least that many stores.
        assert!(counts.get(EventKind::MemMapCheck) >= rounds, "{engine}: store checks");
    }
}

/// Profiler attribution: totals reconcile exactly with the cycle counter,
/// every module domain shows app cycles, and under UMPU the crossing total
/// books exactly 10 stall cycles per dispatched call (5 call + 5 ret) plus
/// the jump-table instructions themselves.
#[test]
fn profiler_attributes_every_cycle() {
    for engine @ (turbo, prove) in ENGINES {
        for p in BUILDS {
            let on = format!("{p:?} turbo={turbo} prove={prove}");
            let mut sys = pipeline(p, engine);
            sys.attach_scope(ScopeSink::stream());
            let mut prof = DomainProfiler::new(sys.scope_region_map(), sys.cycles());
            let start = sys.cycles();
            for _ in 0..4 {
                sys.post(DomainId::num(0), MSG_TIMER);
                sys.post(DomainId::num(1), MSG_TIMER);
                sys.run_slice_profiled(&mut prof, 1_000_000).unwrap();
            }
            let report = prof.report();
            assert_eq!(report.total, sys.cycles() - start, "{on}: unattributed cycles");
            assert_eq!(
                report.rows.iter().map(|r| r.cycles).sum::<u64>(),
                report.total,
                "{on}: rows sum to total"
            );
            for dom in [0u8, 1, 2] {
                assert!(report.cycles(dom, Mechanism::App) > 0, "{on}: dom{dom} ran app code");
            }
            assert!(
                report.cycles(DomainId::TRUSTED.index(), Mechanism::Kernel) > 0,
                "{on}: kernel cycles attributed"
            );
            match p {
                // Stock AVR burns no cycles on checks.
                Protection::None => assert_eq!(report.mechanism_total(Mechanism::Check), 0, "{on}"),
                // SFI's rewriting spends real instructions in check stubs.
                Protection::Sfi => assert!(report.mechanism_total(Mechanism::Check) > 0, "{on}"),
                // UMPU's hardware stalls every protected store one cycle.
                Protection::Umpu => assert!(report.mechanism_total(Mechanism::Check) > 0, "{on}"),
            }
            assert!(report.mechanism_total(Mechanism::Crossing) > 0, "{on}: crossings attributed");
        }
    }
}

/// Under UMPU the stall cycles booked to crossings scale linearly with the
/// number of cross-domain calls: each extra timer round adds exactly one
/// call + return (10 stall cycles) along the same jump-table path.
#[test]
fn umpu_crossing_stalls_scale_with_call_count() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let crossing_for = |rounds: usize| {
            let mut sys = SosSystem::build(Protection::Umpu, &[modules::blink(0)], |a, api| {
                api.run_scheduler(a);
                a.brk();
            })
            .unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.attach_scope(ScopeSink::stream());
            let mut prof = DomainProfiler::new(sys.scope_region_map(), sys.cycles());
            for _ in 0..rounds {
                sys.post(DomainId::num(0), MSG_TIMER);
                sys.run_slice_profiled(&mut prof, 1_000_000).unwrap();
            }
            let calls = sys.scope().unwrap().kind_counts().get(EventKind::CrossDomainCall);
            (calls, prof.report().cycles(0, Mechanism::Crossing))
        };
        let (calls3, cross3) = crossing_for(3);
        let (calls5, cross5) = crossing_for(5);
        assert_eq!(calls5 - calls3, 2, "{engine}: two more calls");
        let per_call = (cross5 - cross3) / 2;
        assert_eq!(cross5 - cross3, per_call * 2, "{engine}: per-call crossing cost is constant");
        // Each call costs at least the 10 hardware stall cycles.
        assert!(per_call >= 10, "{engine}: per-call crossing cost {per_call} < hardware stalls");
    }
}
