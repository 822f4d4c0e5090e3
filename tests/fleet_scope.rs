//! Fleet-level harbor-scope integration: per-node ring sinks must not
//! perturb any node's simulation, the scope aggregate must appear in the
//! telemetry JSON exactly when sinks are attached, and a serial and a
//! parallel run of the same seed must still agree byte-for-byte, on every
//! engine of [`ENGINES`].

mod common;

use common::seed;
use harbor::DomainId;
use harbor_fleet::{Fleet, FleetConfig, NetConfig};
use harbor_scope::{EventKind, SinkSpec};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, ENGINES};

const NODES: usize = 8;
const ROUNDS: u64 = 24;

/// Default seed; `HARBOR_SEED` overrides it.
const SEED: u64 = 0x5c09e;

fn run(
    scope: Option<SinkSpec>,
    threads: usize,
    (turbo, prove): (bool, bool),
) -> harbor_fleet::FleetTelemetry {
    let cfg = FleetConfig {
        nodes: NODES,
        protection: Protection::Umpu,
        seed: seed(SEED),
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads,
        scope,
        turbo,
        prove,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("fleet builds");
    for _ in 0..ROUNDS {
        fleet.post_all(DomainId::num(0), MSG_TIMER);
        fleet.step_round();
    }
    fleet.telemetry()
}

#[test]
fn per_node_sinks_do_not_perturb_the_fleet() {
    for engine @ (turbo, prove) in ENGINES {
        let on = format!("turbo={turbo} prove={prove}");
        let bare = run(None, 1, engine);
        let traced = run(Some(SinkSpec::Ring(64)), 1, engine);
        // Every machine-level counter agrees; only the sink's own bookkeeping
        // (the scope reduction and the per-node ring-drop mirror) differs.
        let mut traced_wiped = traced.clone();
        traced_wiped.scope = None;
        for n in &mut traced_wiped.per_node {
            n.metrics = harbor_scope::MetricsRegistry::new();
            n.ring_dropped = 0;
        }
        let mut bare_wiped = bare.clone();
        for n in &mut bare_wiped.per_node {
            n.metrics = harbor_scope::MetricsRegistry::new();
        }
        assert_eq!(bare_wiped, traced_wiped, "{on}: sinks changed fleet behaviour");
        let mut t = traced.clone();
        t.scope = None;
        for n in &mut t.per_node {
            n.ring_dropped = 0;
        }
        assert_eq!(bare.comparable_json(), t.comparable_json(), "{on}: telemetry JSON");
    }
}

#[test]
fn scope_aggregate_appears_only_when_sinks_attached() {
    for engine @ (turbo, prove) in ENGINES {
        let on = format!("turbo={turbo} prove={prove}");
        let bare = run(None, 1, engine);
        assert!(bare.scope.is_none(), "{on}: no aggregate without sinks");
        assert!(!bare.to_json().contains("\"scope\""), "{on}: no scope JSON without sinks");

        let traced = run(Some(SinkSpec::Ring(64)), 1, engine);
        let agg = traced.scope.as_ref().expect("aggregate present");
        assert!(agg.recorded > 0, "{on}: nodes recorded events");
        assert!(agg.max_recorded <= agg.recorded, "{on}: max <= total");
        assert!(agg.p99_recorded <= agg.max_recorded, "{on}: p99 <= max");
        // Identical nodes on an identical workload: per-kind sums divide evenly.
        let calls = agg.kinds[EventKind::CrossDomainCall.index()];
        assert!(
            calls > 0 && calls.is_multiple_of(NODES as u64),
            "{on}: uniform workload, uniform counts: {calls}"
        );
        let json = traced.to_json();
        assert!(json.contains("\"scope\":{\"recorded\":"), "{on}: scope JSON present");
    }
}

#[test]
fn serial_and_parallel_scoped_runs_are_byte_identical() {
    for engine @ (turbo, prove) in ENGINES {
        let on = format!("turbo={turbo} prove={prove}");
        let serial = run(Some(SinkSpec::Ring(64)), 1, engine);
        let parallel = run(Some(SinkSpec::Ring(64)), 4, engine);
        assert_eq!(serial.comparable_json(), parallel.comparable_json(), "{on}: telemetry");
        assert_eq!(serial.scope, parallel.scope, "{on}: scope aggregate");
    }
}
