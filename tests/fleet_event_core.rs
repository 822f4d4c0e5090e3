//! The event-driven fleet core against an all-awake oracle.
//!
//! `Fleet::step_round` steps only the nodes in its wake set. The oracle
//! drives the same scenario but calls `with_node(i, |_| ())` on every node
//! before every round, which wakes them all: that is the visit-every-node
//! schedule, rebuilt from the public API with no second loop kept in the
//! library. Every observable byte must agree between the two, at one and
//! at four threads: telemetry, causal logs, dumps, alerts, the tower
//! rollup, the pulse ledger and timeline, and helm's decision log.
//!
//! The scenarios target the wake rules one by one: a watchdog whose window
//! must drain while its node has nothing else to do, a rollback that
//! restores machines behind sleeping nodes, a recorder that polls on a
//! snapshot schedule, nodes that nothing ever wakes after round 0, and a
//! post made through `with_node` rather than `Fleet::post`. Every scenario
//! runs on each engine of [`ENGINES`].

use harbor::DomainId;
use harbor_blackbox::{Alert, AlertKind, CausalLog, Postmortem, RecorderConfig, WatchdogConfig};
use harbor_fleet::{BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig, TowerConfig};
use harbor_helm::{HelmRun, PlanConfig, RolloutState};
use harbor_pulse::RoundLedger;
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, ENGINES};

const NODES: usize = 16;
const BLINK: u8 = 0;
const SURGE: u8 = 3;

/// The two schedules under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// The fleet as it is: only awake nodes step.
    EventDriven,
    /// Every node woken through `with_node` before every round.
    AllAwake,
}

/// Everything a run exposes that a skipped node-step could have changed.
#[derive(Debug, PartialEq)]
struct Observed {
    telemetry: String,
    causal: Vec<CausalLog>,
    dumps: Vec<Postmortem>,
    alerts: Vec<Alert>,
    rollup: Option<String>,
    ledger: String,
    /// Per round: ledger, guest cycles stepped, frontier interval.
    timeline: Vec<(RoundLedger, u64, u64, u64)>,
    helm_log: Option<String>,
}

fn observe(fleet: &mut Fleet, helm_log: Option<String>) -> Observed {
    let pulse = fleet.pulse_report().expect("every scenario attaches pulse");
    Observed {
        telemetry: fleet.telemetry().comparable_json(),
        causal: fleet.causal_logs(),
        dumps: fleet.dumps(),
        alerts: fleet.alerts(),
        rollup: fleet.tower_rollup().map(|r| r.to_json()),
        ledger: pulse.ledger_json(),
        timeline: pulse
            .timeline
            .iter()
            .map(|r| (r.ledger, r.cycles_delta, r.frontier_start, r.frontier_end))
            .collect(),
        helm_log,
    }
}

/// The fleet every scenario starts from, stepped by `threads` workers on
/// one `(turbo, prove)` engine of [`ENGINES`].
fn config(threads: usize, (turbo, prove): (bool, bool)) -> FleetConfig {
    FleetConfig {
        nodes: NODES,
        protection: Protection::Umpu,
        seed: 0xe7e47,
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads,
        turbo,
        prove,
        pulse: true,
        ..FleetConfig::default()
    }
}

/// Names `cfg`'s engine in assertion messages.
fn engine(cfg: &FleetConfig) -> String {
    format!("turbo={} prove={}", cfg.turbo, cfg.prove)
}

fn step(fleet: &mut Fleet, schedule: Schedule) {
    if schedule == Schedule::AllAwake {
        for i in 0..fleet.len() {
            fleet.with_node(i, |_| ());
        }
    }
    fleet.step_round();
}

/// Runs `scenario` under both schedules at one and four threads on every
/// engine, and requires each engine's four observations to match.
fn assert_oracle_agrees(name: &str, scenario: impl Fn(Schedule, FleetConfig) -> Observed) {
    for e in ENGINES {
        let reference = scenario(Schedule::AllAwake, config(1, e));
        for (schedule, threads) in
            [(Schedule::EventDriven, 1), (Schedule::EventDriven, 4), (Schedule::AllAwake, 4)]
        {
            let cfg = config(threads, e);
            let on = engine(&cfg);
            let seen = scenario(schedule, cfg);
            assert!(seen == reference, "{name} {on}: {schedule:?} at {threads} threads diverged");
        }
    }
}

/// Blackbox and tower attached, a lossy dissemination, and Surge
/// crash-looping on a few nodes for three rounds, idle for longer than
/// the watchdog window, then crash-looping again. Between bursts the
/// victims have nothing to do, so only the watchdog rule keeps them
/// stepping while their fault windows drain; the second burst fires a
/// second alert only if the first one re-armed on time.
fn crash_loop(schedule: Schedule, base: FleetConfig) -> Observed {
    let cfg = FleetConfig {
        blackbox: Some(BlackboxConfig::default()),
        tower: Some(TowerConfig::default()),
        ..base
    };
    let window = WatchdogConfig::default().window as u64;
    let mut fleet =
        Fleet::new(&cfg, &[modules::blink(BLINK), modules::surge(SURGE, 2)]).expect("builds");
    let image = ModuleImage::assemble(&modules::tree_routing(1), &fleet.layout(), cfg.protection)
        .expect("image assembles");
    fleet.disseminate(&image);
    let first = 12..15;
    let second = first.end + window + 3..first.end + window + 6;
    for round in 0..second.end + window + 4 {
        if first.contains(&round) || second.contains(&round) {
            for victim in [1, 6, 11] {
                fleet.post(victim, DomainId::num(SURGE), MSG_TIMER);
            }
        }
        if round % 5 == 0 {
            fleet.post(round as usize % NODES, DomainId::num(BLINK), MSG_TIMER);
        }
        step(&mut fleet, schedule);
    }
    let seen = observe(&mut fleet, None);
    let fault_alerts =
        seen.alerts.iter().filter(|a| a.node == 1 && a.kind == AlertKind::FaultRate).count();
    assert_eq!(fault_alerts, 2, "{schedule:?} {}: one alert per burst on node 1", engine(&cfg));
    // The blackbox keeps a causal log on every node and on the seeder, so
    // the oracle compares real records here.
    assert_eq!(seen.causal.len(), NODES + 1, "{schedule:?} {}: causal logs", engine(&cfg));
    assert!(
        seen.causal.iter().all(|log| !log.records.is_empty()),
        "{schedule:?} {}: an empty causal log",
        engine(&cfg)
    );
    seen
}

#[test]
fn watchdog_windows_drain_on_idle_nodes() {
    assert_oracle_agrees("crash loop", crash_loop);
}

/// A helm canary of a crash-looping image is condemned, and from the
/// moment helm commands the rollback nothing is posted any more. No
/// blackbox is attached, so no watchdog keeps the canaries awake: only the
/// rollback's wake makes the restored machines' counters reach their
/// telemetry. (Nor is a causal log kept, so both schedules observe none.)
fn canary_rollback(schedule: Schedule, base: FleetConfig) -> Observed {
    let cfg = FleetConfig { cohorts: 4, tower: Some(TowerConfig::default()), ..base };
    let fleet =
        Fleet::new(&cfg, &[modules::blink(BLINK), modules::tree_routing(1)]).expect("builds");
    let mut run = HelmRun::new(fleet);
    let step_helm = |run: &mut HelmRun| {
        if schedule == Schedule::AllAwake {
            let fleet = run.fleet_mut();
            for i in 0..fleet.len() {
                fleet.with_node(i, |_| ());
            }
        }
        run.step_round();
    };
    let tick = |run: &mut HelmRun, bad: Option<u16>| {
        let fleet = run.fleet_mut();
        fleet.post_all(DomainId::num(BLINK), MSG_TIMER);
        for i in 0..fleet.len() {
            if bad.is_some_and(|id| fleet.node(i).has_installed(id)) {
                fleet.post(i, DomainId::num(4), MSG_TIMER);
            }
        }
        step_helm(run);
    };
    for _ in 0..4 {
        tick(&mut run, None);
    }
    let layout = run.fleet().layout();
    let bad = ModuleImage::assemble(&modules::surge(4, 2), &layout, cfg.protection)
        .expect("bad image assembles");
    let bad_id = run.admit(&bad, PlanConfig::ladder(4)).expect("bad image admits");
    let condemned = |run: &HelmRun| {
        run.helm().is_some_and(|h| {
            matches!(h.state(), RolloutState::RollingBack | RolloutState::RolledBack)
        })
    };
    while !condemned(&run) && run.fleet().round() < 64 {
        tick(&mut run, Some(bad_id));
    }
    for _ in 0..12 {
        step_helm(&mut run);
    }
    let helm = run.helm().expect("campaign ran");
    assert_eq!(helm.state(), RolloutState::RolledBack, "{schedule:?} {}", engine(&cfg));
    let helm_log = helm.log_json();
    observe(run.fleet_mut(), Some(helm_log))
}

#[test]
fn rollback_wakes_the_restored_nodes() {
    assert_oracle_agrees("canary rollback", canary_rollback);
}

/// Flight recorders snapshotting on a short cycle schedule (and, with
/// interval 0, on every poll that saw new events) over sparse traffic:
/// polls of sleeping nodes must be exactly the polls the oracle makes
/// to no effect. A fault mid-run freezes the snapshots into a dump.
fn snapshots(interval: u64) -> impl Fn(Schedule, FleetConfig) -> Observed {
    move |schedule, base| {
        let recorder = RecorderConfig { snapshot_interval: interval, ..RecorderConfig::default() };
        let cfg = FleetConfig {
            blackbox: Some(BlackboxConfig { recorder, ..BlackboxConfig::default() }),
            ..base
        };
        let mut fleet =
            Fleet::new(&cfg, &[modules::blink(BLINK), modules::surge(SURGE, 2)]).expect("builds");
        for round in 0..30u64 {
            fleet.post((round as usize * 7) % NODES, DomainId::num(BLINK), MSG_TIMER);
            if round == 9 {
                fleet.post(4, DomainId::num(SURGE), MSG_TIMER);
            }
            step(&mut fleet, schedule);
        }
        let seen = observe(&mut fleet, None);
        assert_eq!(seen.dumps.len(), 1, "{}: the surge fault froze one dump", engine(&cfg));
        seen
    }
}

#[test]
fn recorder_polls_are_idempotent_while_asleep() {
    for interval in [256, 0] {
        assert_oracle_agrees(&format!("snapshot interval {interval}"), snapshots(interval));
    }
}

/// Posts to a handful of nodes and nothing else: most nodes step once, at
/// round 0, and never wake again. `via_with_node` queues the messages
/// through `with_node(i, |n| n.post(..))` instead of `Fleet::post`.
fn sparse_posts(via_with_node: bool) -> impl Fn(Schedule, FleetConfig) -> Observed {
    move |schedule, cfg| {
        let mut fleet = Fleet::new(&cfg, &[modules::blink(BLINK)]).expect("builds");
        for round in 0..12u64 {
            if round % 3 == 1 {
                let node = (round as usize * 5) % NODES;
                if via_with_node {
                    fleet.with_node(node, |n| n.post(DomainId::num(BLINK), MSG_TIMER));
                } else {
                    fleet.post(node, DomainId::num(BLINK), MSG_TIMER);
                }
            }
            step(&mut fleet, schedule);
        }
        observe(&mut fleet, None)
    }
}

#[test]
fn a_post_through_with_node_is_a_post() {
    assert_oracle_agrees("Fleet::post", sparse_posts(false));
    assert_oracle_agrees("with_node post", sparse_posts(true));
    for e in ENGINES {
        for threads in [1, 4] {
            let cfg = config(threads, e);
            assert!(
                sparse_posts(true)(Schedule::EventDriven, cfg)
                    == sparse_posts(false)(Schedule::EventDriven, cfg),
                "{}: a with_node post behaved unlike Fleet::post at {threads} threads",
                engine(&cfg)
            );
        }
    }
}
