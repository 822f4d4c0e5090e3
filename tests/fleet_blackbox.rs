//! Fleet-level harbor-blackbox integration: postmortem dumps must be
//! byte-identical between serial and parallel runs, faults and dumps must
//! pair one-to-one, and — as a property over random seeds, loss rates and
//! fault patterns — Lamport stamps must strictly increase along every
//! happens-before edge of the fleet's causal DAG. Every test runs on each
//! engine of [`ENGINES`].

use harbor::DomainId;
use harbor_blackbox::{build_edges, check_monotone, Postmortem};
use harbor_fleet::{BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, ENGINES};
use proptest::prelude::*;

const NODES: usize = 8;
const ROUNDS: u64 = 24;

fn seed() -> u64 {
    match std::env::var("HARBOR_SEED") {
        Ok(v) => v.parse().expect("HARBOR_SEED must be a u64"),
        Err(_) => 0x5c09e,
    }
}

/// A fleet under the full blackbox, with Blink everywhere, the faulting
/// Surge on every node, and an OTA dissemination mid-run so the causal
/// logs carry real radio traffic. `engine` is a `(turbo, prove)` pair of
/// [`ENGINES`].
fn run(seed: u64, loss: f64, threads: usize, engine: (bool, bool), fault_rounds: &[u64]) -> Fleet {
    let (turbo, prove) = engine;
    let cfg = FleetConfig {
        nodes: NODES,
        protection: Protection::Umpu,
        seed,
        net: NetConfig { loss, ..NetConfig::default() },
        threads,
        blackbox: Some(BlackboxConfig::default()),
        turbo,
        prove,
        ..FleetConfig::default()
    };
    let mut fleet =
        Fleet::new(&cfg, &[modules::blink(0), modules::surge(3, 2)]).expect("fleet builds");
    for round in 0..ROUNDS {
        fleet.post_all(DomainId::num(0), MSG_TIMER);
        if fault_rounds.contains(&round) {
            for victim in (0..NODES).step_by(2) {
                fleet.post(victim, DomainId::num(3), MSG_TIMER);
            }
        }
        // The patch goes out only after the faults have fired: installing
        // Tree Routing gives Surge's lookup a real target and cures it.
        if round == 18 {
            let image =
                ModuleImage::assemble(&modules::tree_routing(2), &fleet.layout(), cfg.protection)
                    .expect("image assembles");
            fleet.disseminate(&image);
        }
        fleet.step_round();
    }
    fleet
}

#[test]
fn every_fault_freezes_exactly_one_dump() {
    for engine @ (turbo, prove) in ENGINES {
        let on = format!("turbo={turbo} prove={prove}");
        let mut fleet = run(seed(), 0.1, 1, engine, &[8, 16]);
        let telemetry = fleet.telemetry();
        let faults = telemetry.total(harbor_fleet::NodeTelemetry::faults);
        let dumps = fleet.dumps();
        assert!(faults > 0, "{on}: the scenario faults");
        assert_eq!(faults, dumps.len() as u64, "{on}: one dump per fault");
        for dump in &dumps {
            assert_eq!(dump.protection, "umpu", "{on}");
            assert!(!dump.events.is_empty(), "{on}: the ring captured the lead-up");
            let back = Postmortem::from_json(&dump.to_json()).expect("round-trips");
            assert_eq!(&back, dump, "{on}: dump JSON is lossless");
        }
    }
}

#[test]
fn watchdog_fires_exactly_twice_across_two_bursts() {
    // End-to-end re-arm regression under the *default* watchdog budgets
    // (8-round window, 2 faults): node 0 crash-bursts for three rounds,
    // goes quiet long enough for the window to drain, then bursts again.
    // The rising-edge detector must raise exactly two FaultRate alerts —
    // one per burst — and nothing else (loss is 0, so no retransmits).
    const BURSTS: [std::ops::RangeInclusive<u64>; 2] = [0..=2, 11..=13];
    for (turbo, prove) in ENGINES {
        let on = format!("turbo={turbo} prove={prove}");
        let cfg = FleetConfig {
            nodes: 4,
            protection: Protection::Umpu,
            seed: seed(),
            net: NetConfig { loss: 0.0, ..NetConfig::default() },
            threads: 1,
            blackbox: Some(BlackboxConfig::default()),
            turbo,
            prove,
            ..FleetConfig::default()
        };
        let mut fleet =
            Fleet::new(&cfg, &[modules::blink(0), modules::surge(3, 2)]).expect("fleet builds");
        for round in 0..20 {
            fleet.post_all(DomainId::num(0), MSG_TIMER);
            if BURSTS.iter().any(|b| b.contains(&round)) {
                fleet.post(0, DomainId::num(3), MSG_TIMER);
            }
            fleet.step_round();
        }
        let alerts = fleet.alerts();
        let fault_alerts: Vec<_> =
            alerts.iter().filter(|a| a.kind == harbor_blackbox::AlertKind::FaultRate).collect();
        assert_eq!(fault_alerts.len(), 2, "{on}: one alert per burst: {fault_alerts:?}");
        for (alert, burst) in fault_alerts.iter().zip(&BURSTS) {
            assert_eq!(alert.node, 0, "{on}");
            // The edge is the third fault of the burst: 3 > the budget of 2.
            assert_eq!(alert.round, *burst.end(), "{on}");
            assert_eq!(alert.value, 3, "{on}");
            assert_eq!(alert.limit, 2, "{on}");
        }
        assert!(
            !alerts.iter().any(|a| a.kind == harbor_blackbox::AlertKind::RetransmitRate),
            "{on}: a lossless radio never retransmits"
        );
    }
}

#[test]
fn serial_and_parallel_dumps_are_byte_identical() {
    let s = seed();
    for engine @ (turbo, prove) in ENGINES {
        let dumps = |threads: usize| -> Vec<String> {
            run(s, 0.1, threads, engine, &[8, 16]).dumps().iter().map(Postmortem::to_json).collect()
        };
        let serial = dumps(1);
        assert!(!serial.is_empty(), "turbo={turbo} prove={prove}: the scenario dumps");
        assert_eq!(
            serial,
            dumps(4),
            "turbo={turbo} prove={prove}: dump bytes must not depend on the schedule"
        );
    }
}

#[test]
fn causal_trace_is_deterministic_and_has_message_edges() {
    let s = seed();
    for engine @ (turbo, prove) in ENGINES {
        let on = format!("turbo={turbo} prove={prove}");
        let serial = run(s, 0.1, 1, engine, &[8]).causal_trace();
        let parallel = run(s, 0.1, 4, engine, &[8]).causal_trace();
        assert_eq!(serial, parallel, "{on}: chrome trace must not depend on the schedule");
        assert!(serial.contains("\"ph\":\"s\""), "{on}: flow arrows present");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// The Lamport invariant holds along every happens-before edge — for
    /// any seed, any loss rate, any fault pattern, serial or parallel.
    #[test]
    fn lamport_monotone_along_every_edge(
        s in 0u64..1_000_000,
        loss_pct in 0u32..50,
        fault_round in 0u64..18,
        threads in 1usize..5,
    ) {
        for engine @ (turbo, prove) in ENGINES {
            let mut fleet = run(s, f64::from(loss_pct) / 100.0, threads, engine, &[fault_round]);
            let logs = fleet.causal_logs();
            let edges = build_edges(&logs);
            prop_assert!(
                edges.iter().any(|e| e.message),
                "turbo={} prove={}: radio traffic produced message edges", turbo, prove
            );
            prop_assert!(
                check_monotone(&logs).is_ok(),
                "turbo={} prove={}: {:?}", turbo, prove, check_monotone(&logs)
            );
        }
    }
}
