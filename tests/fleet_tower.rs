//! Fleet-level harbor-tower integration: the telemetry rollup must be
//! byte-identical across serial and parallel stepping and across shard
//! counts — as a property over random seeds, loss rates and schedules —
//! and every rollup counter must reconcile *exactly* against the raw
//! per-node telemetry, including under the turbo engine and certified
//! store elision.

use harbor::DomainId;
use harbor_fleet::{
    BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig, NodeTelemetry, TowerConfig,
};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, ENGINES};
use proptest::prelude::*;

const NODES: usize = 12;
const ROUNDS: u64 = 24;
const COHORTS: u32 = 4;

/// Test seed, overridable for reproduction: `HARBOR_SEED=n cargo test`.
fn seed() -> u64 {
    match std::env::var("HARBOR_SEED") {
        Ok(v) => v.parse().expect("HARBOR_SEED must be a u64"),
        Err(_) => 0x70_3e_12,
    }
}

/// A cohorted fleet with the blackbox and tower attached: Blink ticks
/// everywhere, cohort 2 gets the faulting Surge timer in two rounds, and
/// Tree Routing goes out over the radio mid-run (into an unrelated domain,
/// so Surge keeps faulting) to exercise the install counters.
fn run(seed: u64, loss: f64, threads: usize, shards: u32, turbo: bool, prove: bool) -> Fleet {
    let cfg = FleetConfig {
        nodes: NODES,
        protection: Protection::Umpu,
        seed,
        net: NetConfig { loss, ..NetConfig::default() },
        threads,
        blackbox: Some(BlackboxConfig::default()),
        turbo,
        prove,
        cohorts: COHORTS,
        tower: Some(TowerConfig { shards, ..TowerConfig::default() }),
        ..FleetConfig::default()
    };
    let mut fleet =
        Fleet::new(&cfg, &[modules::blink(0), modules::surge(3, 2)]).expect("fleet builds");
    for round in 0..ROUNDS {
        fleet.post_all(DomainId::num(0), MSG_TIMER);
        if round == 8 || round == 16 {
            for victim in (2..NODES).step_by(COHORTS as usize) {
                fleet.post(victim, DomainId::num(3), MSG_TIMER);
            }
        }
        if round == 4 {
            let image =
                ModuleImage::assemble(&modules::tree_routing(5), &fleet.layout(), cfg.protection)
                    .expect("image assembles");
            fleet.disseminate(&image);
        }
        fleet.step_round();
    }
    fleet
}

fn rollup_json(seed: u64, loss: f64, threads: usize, shards: u32) -> String {
    run(seed, loss, threads, shards, false, false).tower_rollup().expect("tower attached").to_json()
}

/// The headline invariant: same seed → same rollup bytes, no matter how
/// many worker threads stepped the fleet or how many shards aggregated it.
#[test]
fn rollup_is_schedule_and_shard_independent() {
    let reference = rollup_json(seed(), 0.1, 1, 4);
    assert!(reference.contains("\"schema\":\"harbor-tower-rollup-v1\""));
    assert_eq!(reference, rollup_json(seed(), 0.1, 4, 4), "parallel stepping diverged");
    assert_eq!(reference, rollup_json(seed(), 0.1, 8, 4), "worker count leaked");
    for shards in [1u32, 3, 7] {
        assert_eq!(reference, rollup_json(seed(), 0.1, 4, shards), "{shards} shards diverged");
    }
}

/// Every rollup counter reconciles exactly against the raw per-node
/// telemetry — no sampling, no loss — and the per-cohort fold invariant
/// (`totals == folded + Σ windows`) holds end to end. Every engine must
/// reconcile the same way, and prove's elision counter must agree with the
/// per-node metrics registry it was sampled from.
#[test]
fn rollup_reconciles_exactly_under_turbo_and_prove() {
    for (turbo, prove) in ENGINES {
        let mut fleet = run(seed(), 0.1, 4, 4, turbo, prove);
        let rollup = fleet.tower_rollup().expect("tower attached");
        let telemetry = fleet.telemetry();
        let totals = rollup.totals();
        let tag = format!("turbo={turbo} prove={prove}");
        assert_eq!(totals.samples, NODES as u64 * ROUNDS, "{tag}: samples");
        assert_eq!(totals.cycles, telemetry.total(|n| n.cycles), "{tag}: cycles");
        assert_eq!(totals.instructions, telemetry.total(|n| n.instructions), "{tag}: instr");
        assert_eq!(totals.rx, telemetry.total(|n| n.rx), "{tag}: rx");
        assert_eq!(totals.tx, telemetry.total(|n| n.tx), "{tag}: tx");
        assert_eq!(totals.messages, telemetry.total(|n| n.messages), "{tag}: messages");
        assert_eq!(totals.chunks, telemetry.total(|n| n.chunks), "{tag}: chunks");
        assert_eq!(totals.retransmits, telemetry.total(|n| n.requests), "{tag}: retransmits");
        assert_eq!(totals.faults, telemetry.total(NodeTelemetry::faults), "{tag}: faults");
        assert_eq!(totals.contained, telemetry.total(NodeTelemetry::contained), "{tag}: contained");
        assert_eq!(totals.alerts, telemetry.total(|n| n.alerts), "{tag}: alerts");
        assert_eq!(totals.ring_dropped, telemetry.total(|n| n.ring_dropped), "{tag}: ring");
        assert_eq!(totals.dumps, fleet.dumps().len() as u64, "{tag}: dumps");
        assert!(totals.faults > 0, "{tag}: the scenario faults");
        let elided_metric = telemetry.merged_metrics().counter("umpu.stores_elided");
        assert_eq!(totals.stores_elided, elided_metric, "{tag}: stores_elided vs metrics");
        if prove {
            assert!(totals.stores_elided > 0, "{tag}: elision fired under prove");
        } else {
            assert_eq!(totals.stores_elided, 0, "{tag}: no elision without prove");
        }
        for c in &rollup.cohorts {
            let mut sum = c.folded;
            for w in &c.windows {
                sum.add(&w.counters);
            }
            assert_eq!(sum, c.totals, "{tag}: cohort {} fold invariant", c.cohort);
        }
    }
}

/// Turbo and prove leave every schedule-independent aggregate untouched:
/// the prove rollup may differ from the reference only in `stores_elided`.
#[test]
fn prove_rollup_differs_only_in_elision_counter() {
    let reference = run(seed(), 0.1, 1, 4, false, false).tower_rollup().unwrap();
    let turbo = run(seed(), 0.1, 4, 4, true, false).tower_rollup().unwrap();
    assert_eq!(reference.to_json(), turbo.to_json(), "turbo rollup diverged");
    let prove = run(seed(), 0.1, 4, 4, false, true).tower_rollup().unwrap();
    let (r, p) = (reference.totals(), prove.totals());
    for (name, (rv, pv)) in
        harbor_tower::CounterSet::FIELDS.iter().zip(r.values().into_iter().zip(p.values()))
    {
        if *name == "stores_elided" {
            assert!(pv > rv, "elision fired under prove");
        } else {
            assert_eq!(rv, pv, "{name} diverged under prove");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Partition independence as a property: for any seed, loss rate,
    /// worker count and shard count, the rollup bytes equal the serial
    /// single-shard run's. `salt` folds in `HARBOR_SEED` so the campaign
    /// moves with the repo-wide seed while staying reproducible.
    #[test]
    fn rollup_bytes_are_partition_independent(
        salt in 0u64..1_000_000,
        loss_pct in 0u32..40,
        threads in 2usize..6,
        shards in 2u32..9,
    ) {
        let s = seed() ^ salt;
        let loss = f64::from(loss_pct) / 100.0;
        let reference = rollup_json(s, loss, 1, 1);
        prop_assert_eq!(&reference, &rollup_json(s, loss, threads, shards));
    }
}
