//! Every fleet observer is observational. Attached to the same active
//! fleet, each one — scope ring and stream sinks, the blackbox, tower on
//! top of it, pulse, an observing helm controller, and the turbo engine —
//! must repeat itself exactly and leave the simulated machines with the
//! bare run's cycle and instruction totals. Each also reports the facts it
//! exists for: events recorded and dropped, samples ingested, decisions
//! logged, timers reconciled.
//!
//! The same file carries the remaining fleet identities: elision under
//! turbo, serial ≡ parallel dissemination telemetry, and the pinned
//! reference cycle total that turbo must match.

use harbor::DomainId;
use harbor_fleet::{
    BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig, PulseReport, TowerConfig,
};
use harbor_helm::{Helm, PlanConfig, RolloutPlan};
use harbor_scope::SinkSpec;
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, ModuleSource, Protection};

const NODES: usize = 64;
const ROUNDS: u64 = 40;
const COHORTS: u32 = 8;
const SEED: u64 = 0x5c09e;

/// One way of watching the active fleet: what it attaches to the fleet
/// config, whether a helm controller pinned in hold also observes the
/// tower rollup every round, and the facts its runs must show.
struct Observer {
    name: &'static str,
    attach: fn(&mut FleetConfig),
    helm: bool,
    facts: fn(&Run),
}

/// The observer set, each checked against the bare fleet.
const OBSERVERS: [Observer; 7] = [
    Observer {
        name: "scope ring",
        attach: |c| c.scope = Some(SinkSpec::Ring(256)),
        helm: false,
        facts: |r| assert!(r.dropped > 0, "256-slot rings overflow on this workload"),
    },
    Observer {
        name: "scope stream",
        attach: |c| c.scope = Some(SinkSpec::Stream),
        helm: false,
        facts: |r| assert_eq!(r.dropped, 0, "stream sinks never drop"),
    },
    Observer {
        name: "blackbox",
        attach: |c| c.blackbox = Some(BlackboxConfig::default()),
        helm: false,
        facts: |r| assert!(r.recorded > 0, "the recorder ring saw events"),
    },
    Observer {
        name: "blackbox + tower",
        attach: attach_tower,
        helm: false,
        facts: |r| assert_eq!(r.ingested, NODES as u64 * ROUNDS, "one sample per node per round"),
    },
    Observer {
        name: "pulse",
        attach: |c| c.pulse = true,
        helm: false,
        facts: |r| {
            let violations = r.pulse.as_ref().expect("profiled run has a report").reconcile();
            assert!(violations.is_empty(), "pulse report reconciles: {violations:?}");
        },
    },
    Observer {
        name: "blackbox + tower + helm",
        attach: attach_tower,
        helm: true,
        // admit + start-stage + one hold per observed round.
        facts: |r| assert_eq!(r.decisions, 2 + ROUNDS as usize, "one decision per round"),
    },
    Observer { name: "turbo", attach: |c| c.turbo = true, helm: false, facts: |_| {} },
];

fn attach_tower(cfg: &mut FleetConfig) {
    cfg.blackbox = Some(BlackboxConfig::default());
    cfg.cohorts = COHORTS;
    cfg.tower = Some(TowerConfig::default());
}

/// What one run of the active fleet left behind.
struct Run {
    /// Cycle and instruction totals over every node: the machine identity.
    machine: (u64, u64),
    /// The comparable telemetry JSON, for exact repeats.
    telemetry: String,
    /// Scope events recorded and dropped (the blackbox recorder counts here).
    recorded: u64,
    dropped: u64,
    /// Tower samples ingested.
    ingested: u64,
    /// Helm decision records.
    decisions: usize,
    pulse: Option<PulseReport>,
}

fn config(nodes: usize, seed: u64) -> FleetConfig {
    FleetConfig {
        nodes,
        protection: Protection::Umpu,
        seed,
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads: 1,
        ..FleetConfig::default()
    }
}

/// The active fleet: every module gets a timer every round.
fn run(cfg: &FleetConfig, mods: &[ModuleSource], helm: bool) -> Run {
    let mut fleet = Fleet::new(cfg, mods).expect("fleet builds");
    let mut controller = helm.then(observer);
    for _ in 0..ROUNDS {
        for m in mods {
            fleet.post_all(m.domain, MSG_TIMER);
        }
        fleet.step_round();
        if let Some(c) = &mut controller {
            let rollup = fleet.tower_rollup().expect("tower attached");
            let commands = c.observe(fleet.round(), &rollup);
            assert!(commands.is_empty(), "the observer must never actuate");
        }
    }
    let ingested = fleet.tower_rollup().map_or(0, |r| r.ingested);
    let t = fleet.telemetry();
    Run {
        machine: (t.total(|n| n.cycles), t.total(|n| n.instructions)),
        telemetry: t.comparable_json(),
        recorded: t.scope.as_ref().map_or(0, |s| s.recorded),
        dropped: t.scope.as_ref().map_or(0, |s| s.dropped),
        ingested,
        decisions: controller.map_or(0, |c| c.log().len()),
        pulse: fleet.pulse_report(),
    }
}

/// Blink, Tree Routing and the patched Surge.
fn run_surge(cfg: &FleetConfig, helm: bool) -> Run {
    run(cfg, &[modules::blink(0), modules::tree_routing(1), modules::surge_fixed(3, 1)], helm)
}

/// A controller that observes forever: flash targets no fleet can reach
/// and a disarmed stall valve pin it in hold, so every round runs the full
/// observe path without ever actuating.
fn observer() -> Helm {
    let mut cfg = PlanConfig::ladder(COHORTS);
    cfg.max_stage_rounds = u64::MAX;
    let plan = RolloutPlan {
        image: u16::MAX,
        name: "observer".to_string(),
        digest: 0,
        certified_stores: 0,
        total_stores: 0,
        cfg,
        admitted_round: 0,
        start_window: u64::MAX,
        baseline: Default::default(),
        cohort_nodes: (0..COHORTS).map(|c| (c, u64::MAX)).collect(),
    };
    let mut helm = Helm::new(plan);
    helm.start(0);
    helm
}

#[test]
fn every_observer_repeats_and_leaves_the_machines_identical() {
    let bare = run_surge(&config(NODES, SEED), false);
    let mut recorded = Vec::new();
    for o in &OBSERVERS {
        let mut cfg = config(NODES, SEED);
        (o.attach)(&mut cfg);
        let first = run_surge(&cfg, o.helm);
        let second = run_surge(&cfg, o.helm);
        assert_eq!(first.telemetry, second.telemetry, "{}: runs must repeat exactly", o.name);
        assert_eq!(first.machine, bare.machine, "{}: must not perturb the machines", o.name);
        (o.facts)(&first);
        recorded.push((o.name, first.recorded));
    }
    let events = |name| recorded.iter().find(|(n, _)| *n == name).expect("observer runs").1;
    assert_eq!(events("scope ring"), events("scope stream"), "both sinks see every event");
}

#[test]
fn elision_under_turbo_leaves_the_machines_identical() {
    let mods = [modules::blink(0), modules::tree_routing(1), modules::stress_store(2)];
    let mut cfg = config(NODES, SEED);
    cfg.turbo = true;
    let turbo = run(&cfg, &mods, false);
    cfg.prove = true;
    let proved = run(&cfg, &mods, false);
    assert_eq!(turbo.machine, proved.machine, "elision must not perturb the machines");
}

#[test]
fn dissemination_converges_and_telemetry_ignores_the_schedule() {
    let run_with = |threads| {
        let cfg = FleetConfig { threads, ..config(NODES, 0xf1ee7) };
        let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("fleet builds");
        let image =
            ModuleImage::assemble(&modules::tree_routing(3), &fleet.layout(), cfg.protection)
                .expect("image assembles");
        fleet.disseminate(&image);
        for _ in 0..ROUNDS {
            fleet.post_all(DomainId::num(0), MSG_TIMER);
            fleet.step_round();
        }
        assert!(fleet.converged(), "threads={threads}: converged within {ROUNDS} rounds");
        fleet.telemetry().comparable_json()
    };
    let serial = run_with(1);
    // Threads 0 takes one worker per core; 4 forces the parallel path even
    // on a single-core host.
    for threads in [0, 4] {
        assert_eq!(
            run_with(threads),
            serial,
            "threads={threads}: telemetry depends on the schedule"
        );
    }
}

/// Reference-engine cycle total of the active fleet at 32 nodes. If this
/// drifts, reference execution itself changed; update it only for an
/// intentional workload or kernel change, never for a turbo-side one.
const REFERENCE_CYCLES_32: u64 = 414_848;

#[test]
fn reference_cycles_are_pinned_and_turbo_matches_them() {
    let mut cfg = config(32, SEED);
    let reference = run_surge(&cfg, false);
    cfg.turbo = true;
    let turbo = run_surge(&cfg, false);
    assert_eq!(turbo.machine, reference.machine, "turbo must not perturb the machines");
    assert_eq!(reference.machine.0, REFERENCE_CYCLES_32, "reference cycle total drifted");
}
