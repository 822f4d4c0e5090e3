//! Fleet-level harbor-pulse integration: the pipeline profiler is
//! strictly observational (telemetry byte-identical with pulse off/on,
//! serial/parallel), its timer and ledger invariants reconcile on a real
//! dissemination run, and the idle-work ledger exactly matches a
//! host-side census of pending work taken independently of the recorder.
//! Every test runs on each engine of [`ENGINES`].

mod common;

use common::seed;
use harbor::DomainId;
use harbor_fleet::{Fleet, FleetConfig, ModuleImage, NetConfig};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, ENGINES};

const NODES: usize = 24;
const ROUNDS: u64 = 20;

/// Default seed; `HARBOR_SEED` overrides it.
const SEED: u64 = 0x9a15e;

/// Blink everywhere with a mid-run Tree Routing dissemination: radio
/// traffic, OTA reassembly and kernel timers all land in the ledger.
fn run(pulse: bool, threads: usize, (turbo, prove): (bool, bool)) -> Fleet {
    let cfg = FleetConfig {
        nodes: NODES,
        protection: Protection::Umpu,
        seed: seed(SEED),
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads,
        turbo,
        prove,
        pulse,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("fleet builds");
    for round in 0..ROUNDS {
        if round % 4 == 0 {
            fleet.post_all(DomainId::num(0), MSG_TIMER);
        }
        if round == 4 {
            let image =
                ModuleImage::assemble(&modules::tree_routing(3), &fleet.layout(), cfg.protection)
                    .expect("image assembles");
            fleet.disseminate(&image);
        }
        fleet.step_round();
    }
    fleet
}

#[test]
fn pulse_is_observational() {
    for engine @ (turbo, prove) in ENGINES {
        let baseline = run(false, 1, engine).telemetry().comparable_json();
        for (pulse, threads) in [(true, 1), (true, 4), (false, 4)] {
            let mut fleet = run(pulse, threads, engine);
            assert_eq!(
                fleet.telemetry().comparable_json(),
                baseline,
                "turbo={turbo} prove={prove} pulse={pulse} threads={threads} perturbed the machines"
            );
        }
    }
}

#[test]
fn report_reconciles_and_accounts_every_node_step() {
    for engine @ (turbo, prove) in ENGINES {
        for threads in [1, 4] {
            let on = format!("turbo={turbo} prove={prove} threads={threads}");
            let fleet = run(true, threads, engine);
            let report = fleet.pulse_report().expect("pulse enabled");
            assert_eq!(report.rounds, ROUNDS, "{on}: rounds");
            assert_eq!(report.ledger.stepped, NODES as u64 * ROUNDS, "{on}: node-steps");
            let bad = report.reconcile();
            assert!(bad.is_empty(), "{on}: {bad:?}");
            assert_eq!(report.timeline.len(), ROUNDS as usize, "{on}: all rounds retained");
        }
    }
}

/// The ledger is a pure function of node state: a census of pending work
/// taken on the host before every round, at one and four workers, must
/// match it exactly. The radio is silent, so all the work is queued
/// timer messages. The event-driven core steps exactly the busy nodes:
/// the workers' node counts sum to the ledger's busy count every round.
#[test]
fn ledger_matches_independent_census() {
    for (turbo, prove) in ENGINES {
        for threads in [1, 4] {
            let cfg = FleetConfig {
                nodes: NODES,
                protection: Protection::Umpu,
                seed: seed(SEED),
                net: NetConfig { loss: 0.0, ..NetConfig::default() },
                threads,
                turbo,
                prove,
                pulse: true,
                ..FleetConfig::default()
            };
            let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("fleet builds");
            let mut census = Vec::new();
            for round in 0..8u64 {
                if round % 3 == 0 {
                    fleet.post_all(DomainId::num(0), MSG_TIMER);
                }
                let busy =
                    (0..NODES).filter(|&i| fleet.node(i).pending_work().any()).count() as u64;
                census.push(busy);
                fleet.step_round();
            }
            let report = fleet.pulse_report().expect("pulse enabled");
            for (r, &expect) in report.timeline.iter().zip(&census) {
                let on = format!("turbo={turbo} prove={prove} threads={threads} round {}", r.round);
                let l = &r.ledger;
                assert_eq!((l.busy, l.queue, l.inbox, l.ota), (expect, expect, 0, 0), "{on}");
                assert_eq!(l.stepped, NODES as u64, "{on}: stepped");
                let stepped: u64 = r.workers.iter().map(|w| w.nodes).sum();
                assert_eq!(stepped, l.busy, "{on}: workers stepped idle nodes");
            }
        }
    }
}

#[test]
fn serial_and_parallel_ledgers_are_byte_identical() {
    for engine @ (turbo, prove) in ENGINES {
        let serial = run(true, 1, engine).pulse_report().expect("pulse enabled");
        let parallel = run(true, 4, engine).pulse_report().expect("pulse enabled");
        assert_eq!(
            serial.ledger_json(),
            parallel.ledger_json(),
            "turbo={turbo} prove={prove}: ledger"
        );
        for (s, p) in serial.timeline.iter().zip(&parallel.timeline) {
            let on = format!("turbo={turbo} prove={prove} round {}", s.round);
            assert_eq!(s.ledger, p.ledger, "{on}: ledger");
            assert_eq!(s.cycles_delta, p.cycles_delta, "{on}: cycles");
        }
    }
}

#[test]
fn disabled_pulse_has_no_report() {
    for engine @ (turbo, prove) in ENGINES {
        assert!(run(false, 1, engine).pulse_report().is_none(), "turbo={turbo} prove={prove}");
    }
}
