//! Helm overhead bench: host wall-time of a tower-equipped fleet run with
//! versus without the closed-loop rollout controller observing every
//! round, at 64/256/512 nodes. The controller's whole input is the tower
//! rollup — one render + one pure decision pass per round — so keeping
//! the control plane always-on must stay cheap, and it must not perturb
//! the simulated machines at all.
//!
//! Methodology mirrors `tower_overhead`: an active fleet (Blink, Tree
//! Routing and the patched Surge all firing every round), the two modes
//! run *interleaved*, each reporting its minimum over [`ITERS`]
//! alternating pairs so a host load spike penalises both modes equally.
//! The observing controller is pinned in its hold state (unreachable
//! flash targets), so every round pays the full observe path — flash
//! accounting, health scan, regression check — without actuating
//! anything. Machine identity (cycle/instruction totals) is asserted
//! before any wall-clock number is reported.
//!
//! Each node count also runs one real two-campaign scenario (healthy
//! image promotes, crash-looping image rolls back) and reports its
//! closed-loop latencies — rounds to full promotion, rounds from
//! admission to the rollback decision, rounds until every canary was
//! restored — the numbers EXPERIMENTS.md cites. Results land in
//! `BENCH_helm.json`.
//!
//! ```sh
//! cargo run --release -p harbor-bench --bin helm_overhead -- --seed 7
//! ```

use harbor::DomainId;
use harbor_bench::report::{machine_hash_words, seed_from_args, BenchReport, BenchRun};
use harbor_fleet::{BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig, TowerConfig};
use harbor_helm::{Helm, HelmRun, PlanConfig, RolloutPlan, RolloutState};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};
use std::time::Instant;

const ROUNDS: u64 = 40;
const COHORTS: u32 = 8;

/// Alternating tower-only/helm pairs per node count; each mode reports
/// its minimum, which converges on the quiet-host time.
const ITERS: usize = 16;

fn build(nodes: usize, seed: u64) -> Fleet {
    let cfg = FleetConfig {
        nodes,
        protection: Protection::Umpu,
        seed,
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads: 1, // serial: wall-time differences come from the controller only
        blackbox: Some(BlackboxConfig::default()),
        cohorts: COHORTS,
        tower: Some(TowerConfig::default()),
        ..FleetConfig::default()
    };
    Fleet::new(&cfg, &[modules::blink(0), modules::tree_routing(1), modules::surge_fixed(3, 1)])
        .expect("fleet builds")
}

/// A controller that observes forever: flash targets no fleet can reach
/// and a disarmed stall valve pin it in `hold`, so each round runs the
/// full observe path without ever actuating.
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

struct Run {
    wall_ms: f64,
    cycles: u64,
    instructions: u64,
    decisions: u64,
}

/// One timed run: tower always attached; with `helm` the controller pulls
/// and observes the rollup every round.
fn run_once(nodes: usize, helm: bool, seed: u64) -> Run {
    let mut fleet = build(nodes, seed);
    let mut controller = helm.then(observer);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        fleet.post_all(DomainId::num(0), MSG_TIMER);
        fleet.post_all(DomainId::num(1), MSG_TIMER);
        fleet.post_all(DomainId::num(3), MSG_TIMER);
        fleet.step_round();
        if let Some(c) = &mut controller {
            let rollup = fleet.tower_rollup().expect("tower attached");
            let commands = c.observe(fleet.round(), &rollup);
            assert!(commands.is_empty(), "the observer must never actuate");
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let t = fleet.telemetry();
    Run {
        wall_ms,
        cycles: t.total(|n| n.cycles),
        instructions: t.total(|n| n.instructions),
        decisions: controller.map_or(0, |c| c.log().len() as u64),
    }
}

struct CampaignStats {
    rounds_to_done: u64,
    rounds_to_detect: u64,
    rounds_to_rollback: u64,
}

/// One real two-campaign scenario (deterministic for a given seed): the
/// healthy Surge promotes through the full ladder, the crash-looping one
/// is condemned. Returns the closed-loop latencies.
fn campaign(nodes: usize, seed: u64) -> CampaignStats {
    // Boot only Blink and Tree Routing: domains 3/4 stay free for the
    // campaign images, exactly like the `harbor-helm --check` scenario.
    let cfg = FleetConfig {
        nodes,
        protection: Protection::Umpu,
        seed,
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads: 1,
        blackbox: Some(BlackboxConfig::default()),
        cohorts: COHORTS,
        tower: Some(TowerConfig::default()),
        ..FleetConfig::default()
    };
    let fleet =
        Fleet::new(&cfg, &[modules::blink(0), modules::tree_routing(1)]).expect("fleet builds");
    let mut run = HelmRun::new(fleet);
    let tick = |run: &mut HelmRun, good: Option<u16>, bad: Option<u16>| {
        let fleet = run.fleet_mut();
        fleet.post_all(DomainId::num(0), MSG_TIMER);
        for i in 0..fleet.len() {
            let n = fleet.node(i);
            let (g, b) = (
                good.is_some_and(|id| n.has_installed(id)),
                bad.is_some_and(|id| n.has_installed(id)),
            );
            if g {
                fleet.post(i, DomainId::num(3), MSG_TIMER);
            }
            if b {
                fleet.post(i, DomainId::num(4), MSG_TIMER);
            }
        }
    };
    for _ in 0..4 {
        tick(&mut run, None, None);
        run.step_round();
    }
    let layout = run.fleet().layout();
    let good = ModuleImage::assemble(&modules::surge_fixed(3, 1), &layout, Protection::Umpu)
        .expect("image assembles");
    let good_id = run.admit(&good, PlanConfig::ladder(COHORTS)).expect("admits");
    let good_admitted = run.fleet().round();
    let state = loop {
        tick(&mut run, Some(good_id), None);
        run.step_round();
        let s = run.helm().expect("campaign admitted").state();
        if s.terminal() {
            break s;
        }
        assert!(run.fleet().round() < 400, "good campaign did not converge");
    };
    assert_eq!(state, RolloutState::Done, "healthy image promotes");
    let rounds_to_done = run.fleet().round() - good_admitted;

    let bad = ModuleImage::assemble(&modules::surge(4, 2), &layout, Protection::Umpu)
        .expect("image assembles");
    let bad_id = run.admit(&bad, PlanConfig::ladder(COHORTS)).expect("admits");
    let state = loop {
        tick(&mut run, Some(good_id), Some(bad_id));
        run.step_round();
        let s = run.helm().expect("campaign admitted").state();
        if s.terminal() {
            break s;
        }
        assert!(run.fleet().round() < 800, "bad campaign did not converge");
    };
    assert_eq!(state, RolloutState::RolledBack, "broken image is condemned");
    let helm = run.helm().expect("campaign ran");
    let admitted = helm.plan().admitted_round;
    let detect = helm
        .log()
        .iter()
        .find(|r| r.decision == "roll-back")
        .map(|r| r.round - admitted)
        .expect("rollback decided");
    let rolled = helm
        .log()
        .iter()
        .find(|r| r.decision == "rolled-back")
        .map(|r| r.round - admitted)
        .expect("rollback completed");
    CampaignStats { rounds_to_done, rounds_to_detect: detect, rounds_to_rollback: rolled }
}

fn main() {
    let seed = seed_from_args(0x70_3e_12);
    println!(
        "helm_overhead: seed={seed}, {ROUNDS} rounds per run, \
         min over {ITERS} interleaved pairs, serial stepping, tower on\n"
    );
    println!(
        "{:>6}  {:>10}  {:>10}  {:>10}  {:>8}  {:>8}  {:>9}  identical",
        "nodes", "tower ms", "helm ms", "overhead", "to-done", "detect", "rollback"
    );

    // Warm the allocator and caches before anything is timed.
    run_once(64, false, seed);

    let mut report = BenchReport::new("helm_overhead", seed, ITERS);
    for nodes in [64usize, 256, 512] {
        let mut base = run_once(nodes, false, seed);
        let mut helm = run_once(nodes, true, seed);
        for _ in 1..ITERS {
            let b = run_once(nodes, false, seed);
            let h = run_once(nodes, true, seed);
            assert_eq!((b.cycles, b.instructions), (base.cycles, base.instructions));
            assert_eq!((h.cycles, h.instructions), (helm.cycles, helm.instructions));
            base.wall_ms = base.wall_ms.min(b.wall_ms);
            helm.wall_ms = helm.wall_ms.min(h.wall_ms);
        }
        let identical = base.cycles == helm.cycles && base.instructions == helm.instructions;
        assert!(identical, "{nodes}-node run: the controller must not perturb the machines");
        // admit + start-stage + one hold per observed round.
        assert_eq!(helm.decisions, 2 + ROUNDS, "one decision record per round");
        let overhead_pct = (helm.wall_ms / base.wall_ms - 1.0) * 100.0;
        let stats = campaign(nodes, seed);
        println!(
            "{nodes:>6}  {:>10.1}  {:>10.1}  {:>9.1}%  {:>8}  {:>8}  {:>9}  {identical}",
            base.wall_ms,
            helm.wall_ms,
            overhead_pct,
            stats.rounds_to_done,
            stats.rounds_to_detect,
            stats.rounds_to_rollback
        );
        report.run(
            BenchRun::new(nodes, ROUNDS)
                .ms("tower_ms", base.wall_ms)
                .ms("helm_ms", helm.wall_ms)
                .ratio("overhead_pct", overhead_pct)
                .num("rounds_to_done", stats.rounds_to_done)
                .num("rounds_to_detect", stats.rounds_to_detect)
                .num("rounds_to_rollback", stats.rounds_to_rollback)
                .num("machine_identical", identical)
                .machine(machine_hash_words(&[base.cycles, base.instructions])),
        );
    }

    report.write("helm");
}
