//! Fleet-level harbor-tower integration: the telemetry rollup must be
//! byte-identical across serial and parallel stepping — as a property
//! over random seeds, loss rates and worker counts — and every rollup
//! counter must reconcile *exactly* against the nodes' own counter
//! tables, including under the turbo engine and certified store elision.

mod common;

use common::seed;
use harbor::DomainId;
use harbor_fleet::{BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig, TowerConfig};
use harbor_tower::CounterSet;
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, ENGINES};
use proptest::prelude::*;

const NODES: usize = 12;
const ROUNDS: u64 = 24;
const COHORTS: u32 = 4;

/// Default seed; `HARBOR_SEED` overrides it.
const SEED: u64 = 0x70_3e_12;

/// A cohorted fleet with the blackbox and tower attached: Blink ticks
/// everywhere, cohort 2 gets the faulting Surge timer in two rounds, and
/// Tree Routing goes out over the radio mid-run (into an unrelated domain,
/// so Surge keeps faulting) to exercise the install counters.
fn run(seed: u64, loss: f64, threads: usize, turbo: bool, prove: bool) -> Fleet {
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
        tower: Some(TowerConfig::default()),
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

fn rollup_json(seed: u64, loss: f64, threads: usize) -> String {
    run(seed, loss, threads, false, false).tower_rollup().expect("tower attached").to_json()
}

/// The headline invariant: same seed → same rollup bytes, no matter how
/// many worker threads stepped the fleet.
#[test]
fn rollup_is_schedule_independent() {
    let reference = rollup_json(seed(SEED), 0.1, 1);
    assert!(reference.contains("\"schema\":\"harbor-tower-rollup-v1\""));
    assert_eq!(reference, rollup_json(seed(SEED), 0.1, 4), "parallel stepping diverged");
    assert_eq!(reference, rollup_json(seed(SEED), 0.1, 8), "worker count leaked");
}

/// Every rollup counter reconciles exactly against the sum of the nodes'
/// counter tables — no sampling, no loss, one sample per node-round —
/// and the per-cohort fold invariant (`totals == folded + Σ windows`)
/// holds end to end. Every engine must reconcile the same way; the tables
/// must agree with the recorders and watchdogs they count from, and
/// prove's elision count with the machines' own.
#[test]
fn rollup_reconciles_exactly_under_turbo_and_prove() {
    for (turbo, prove) in ENGINES {
        let mut fleet = run(seed(SEED), 0.1, 4, turbo, prove);
        let rollup = fleet.tower_rollup().expect("tower attached");
        let totals = rollup.totals();
        let mut tables = CounterSet { samples: NODES as u64 * ROUNDS, ..CounterSet::default() };
        for i in 0..fleet.len() {
            tables.add(fleet.node(i).counters());
        }
        let tag = format!("turbo={turbo} prove={prove}");
        for (name, (rolled, counted)) in
            CounterSet::FIELDS.iter().zip(totals.values().into_iter().zip(tables.values()))
        {
            assert_eq!(rolled, counted, "{tag}: {name}");
        }
        assert_eq!(rollup.ingested, tables.samples, "{tag}: one sample per node-round");
        assert_eq!(totals.dumps, fleet.dumps().len() as u64, "{tag}: dumps");
        assert_eq!(totals.alerts, fleet.alerts().len() as u64, "{tag}: alerts");
        let env: u64 = (0..fleet.len()).map(|i| fleet.node(i).sys.stores_elided()).sum();
        assert_eq!(totals.stores_elided, env, "{tag}: stores_elided vs the machines");
        assert!(totals.faults > 0, "{tag}: the scenario faults");
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
    let reference = run(seed(SEED), 0.1, 1, false, false).tower_rollup().unwrap();
    let turbo = run(seed(SEED), 0.1, 4, true, false).tower_rollup().unwrap();
    assert_eq!(reference.to_json(), turbo.to_json(), "turbo rollup diverged");
    let prove = run(seed(SEED), 0.1, 4, false, true).tower_rollup().unwrap();
    let (r, p) = (reference.totals(), prove.totals());
    for (name, (rv, pv)) in CounterSet::FIELDS.iter().zip(r.values().into_iter().zip(p.values())) {
        if *name == "stores_elided" {
            assert!(pv > rv, "elision fired under prove");
        } else {
            assert_eq!(rv, pv, "{name} diverged under prove");
        }
    }
}

/// A checkpoint restore rewinds the machine's own counters; the rollup
/// must keep the work and events the restore took back. A crash-looping
/// Surge is granted to cohort 0 and rolled back after 12 rounds, then
/// Blink runs on: the rollup equals the telemetry's current machine
/// counters plus what the restore rewound, and the elision count the
/// node metric reports is the rollup's.
#[test]
fn rollup_keeps_the_work_a_restore_rewinds() {
    for (turbo, prove) in ENGINES {
        let cfg = FleetConfig {
            nodes: 16,
            protection: Protection::Umpu,
            seed: 0x70_3e_12,
            net: NetConfig { loss: 0.0, ..NetConfig::default() },
            threads: 2,
            turbo,
            prove,
            cohorts: COHORTS,
            tower: Some(TowerConfig::default()),
            ..FleetConfig::default()
        };
        let mut fleet =
            Fleet::new(&cfg, &[modules::blink(0), modules::tree_routing(1)]).expect("fleet builds");
        let image = ModuleImage::assemble(&modules::surge(4, 2), &fleet.layout(), cfg.protection)
            .expect("image assembles");
        let id = fleet.begin_rollout(&image, &[0]);
        for _ in 0..12 {
            fleet.post_all(DomainId::num(0), MSG_TIMER);
            for i in 0..fleet.len() {
                if fleet.node(i).has_installed(id) {
                    fleet.post(i, DomainId::num(4), MSG_TIMER);
                }
            }
            fleet.step_round();
        }
        let machine = |fleet: &Fleet| -> Vec<[u64; 3]> {
            (0..fleet.len())
                .map(|i| {
                    let sys = &fleet.node(i).sys;
                    [sys.cycles(), sys.instructions(), sys.stores_elided()]
                })
                .collect()
        };
        let before = machine(&fleet);
        fleet.rollback_rollout(id);
        let mut rewound = [0u64; 3];
        for (b, a) in before.iter().zip(machine(&fleet)) {
            for k in 0..3 {
                rewound[k] += b[k] - a[k];
            }
        }
        for _ in 0..8 {
            fleet.post_all(DomainId::num(0), MSG_TIMER);
            fleet.step_round();
        }
        let totals = fleet.tower_rollup().expect("tower attached").totals();
        let telemetry = fleet.telemetry();
        let now =
            machine(&fleet).iter().fold([0u64; 3], |s, m| [s[0] + m[0], s[1] + m[1], s[2] + m[2]]);
        let tag = format!("turbo={turbo} prove={prove}");
        assert!(rewound[0] > 0 && totals.rollbacks > 0, "{tag}: the restore rewound cycles");
        assert_eq!(now[0], telemetry.total(|n| n.cycles), "{tag}: telemetry shows the machine");
        assert_eq!(totals.cycles, now[0] + rewound[0], "{tag}: cycles");
        assert_eq!(totals.instructions, now[1] + rewound[1], "{tag}: instructions");
        assert_eq!(totals.stores_elided, now[2] + rewound[2], "{tag}: stores_elided");
        assert_eq!(prove, rewound[2] > 0, "{tag}: the restore rewound elisions under prove");
        let metric = telemetry.total(|n| n.metrics.counter("umpu.stores_elided"));
        assert_eq!(metric, totals.stores_elided, "{tag}: the node metric is the rollup's count");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Partition independence as a property: for any seed, loss rate and
    /// partition of the fleet among worker threads, the rollup bytes equal
    /// the serial run's. `salt` folds in `HARBOR_SEED` so the campaign
    /// moves with the repo-wide seed while staying reproducible.
    #[test]
    fn rollup_bytes_are_partition_independent(
        salt in 0u64..1_000_000,
        loss_pct in 0u32..40,
        threads in 2usize..6,
    ) {
        let s = seed(SEED) ^ salt;
        let loss = f64::from(loss_pct) / 100.0;
        let reference = rollup_json(s, loss, 1);
        prop_assert_eq!(&reference, &rollup_json(s, loss, threads));
    }
}
