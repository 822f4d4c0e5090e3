//! Fleet-level harbor-helm integration: the closed-loop rollout
//! controller's decision log must be byte-identical across serial and
//! parallel stepping — as a property over random seeds, loss rates and
//! worker counts — and a condemned image's
//! rollback must restore every canary node's exact pre-rollout flash
//! (generation and every word) while never touching a non-canary node:
//! nodes share flash pages, and no node may see another node's burn.
//! Turbo and prove engines must drive the controller to the same
//! decisions.

use harbor::DomainId;
use harbor_fleet::{BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig, TowerConfig};
use harbor_helm::{Helm, HelmRun, PlanConfig, RolloutState};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};
use proptest::prelude::*;

const NODES: usize = 16;
const COHORTS: u32 = 4;
const GOOD_DOM: u8 = 3;
const BAD_DOM: u8 = 4;
const WARMUP: u64 = 4;
const MAX_CAMPAIGN_ROUNDS: u64 = 240;

/// Test seed, overridable for reproduction: `HARBOR_SEED=n cargo test`.
fn seed() -> u64 {
    match std::env::var("HARBOR_SEED") {
        Ok(v) => v.parse().expect("HARBOR_SEED must be a u64"),
        Err(_) => 0x70_3e_12,
    }
}

fn build(seed: u64, loss: f64, threads: usize, turbo: bool, prove: bool) -> Fleet {
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
    Fleet::new(&cfg, &[modules::blink(0), modules::tree_routing(1)]).expect("fleet builds")
}

/// One workload round: Blink ticks everywhere; nodes that installed a
/// campaign image tick it too (the bad Surge then faults).
fn tick(run: &mut HelmRun, good: Option<u16>, bad: Option<u16>) {
    let fleet = run.fleet_mut();
    fleet.post_all(DomainId::num(0), MSG_TIMER);
    for i in 0..fleet.len() {
        let n = fleet.node(i);
        let (g, b) =
            (good.is_some_and(|id| n.has_installed(id)), bad.is_some_and(|id| n.has_installed(id)));
        if g {
            fleet.post(i, DomainId::num(GOOD_DOM), MSG_TIMER);
        }
        if b {
            fleet.post(i, DomainId::num(BAD_DOM), MSG_TIMER);
        }
    }
}

/// FNV-1a over node `i`'s whole flash.
fn flash_digest(fleet: &Fleet, i: usize) -> u64 {
    let words = fleet.node(i).sys.flash_words(0, 0x1_0000);
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Steps the campaign to a terminal state, calling `after_round` with the
/// fleet after every round.
fn drive(
    run: &mut HelmRun,
    good: Option<u16>,
    bad: Option<u16>,
    mut after_round: impl FnMut(&Fleet),
) -> RolloutState {
    for _ in 0..MAX_CAMPAIGN_ROUNDS {
        tick(run, good, bad);
        run.step_round();
        after_round(run.fleet());
        if let Some(h) = run.helm() {
            if h.state().terminal() {
                return h.state();
            }
        }
    }
    run.helm().map_or(RolloutState::Admitting, Helm::state)
}

struct Campaigns {
    run: HelmRun,
    good_id: u16,
    good_state: RolloutState,
    good_log: String,
    bad_id: u16,
    bad_state: RolloutState,
    /// Flash generations per node, snapshotted just before the bad
    /// campaign was admitted.
    pre_flash: Vec<u64>,
    /// With `watch_flash`: each node's [`flash_digest`] at the same
    /// instant, and each node's digest and whether it held the bad image
    /// at the end of the round its first canary installed it.
    pre_digest: Vec<u64>,
    first_install: Vec<(u64, bool)>,
}

/// The canonical two-campaign scenario: warm up, promote a healthy Surge
/// through the 1 → 1 → 2 cohort ladder, then let a crash-looping Surge
/// get condemned by the controller. `watch_flash` also digests every
/// node's whole flash around the bad campaign.
fn campaigns(
    seed: u64,
    loss: f64,
    threads: usize,
    turbo: bool,
    prove: bool,
    watch_flash: bool,
) -> Campaigns {
    let mut run = HelmRun::new(build(seed, loss, threads, turbo, prove));
    for _ in 0..WARMUP {
        tick(&mut run, None, None);
        run.step_round();
    }
    let layout = run.fleet().layout();
    let prot = run.fleet().protection();

    let good = ModuleImage::assemble(&modules::surge_fixed(GOOD_DOM, 1), &layout, prot)
        .expect("good image assembles");
    let good_id = run.admit(&good, PlanConfig::ladder(COHORTS)).expect("good image admits");
    let good_state = drive(&mut run, Some(good_id), None, |_| {});
    let good_log = run.helm().expect("campaign ran").log_json();

    let fleet = run.fleet();
    let pre_flash: Vec<u64> =
        (0..fleet.len()).map(|i| fleet.node(i).sys.flash_generation()).collect();
    let pre_digest: Vec<u64> = if watch_flash {
        (0..fleet.len()).map(|i| flash_digest(fleet, i)).collect()
    } else {
        Vec::new()
    };
    let bad = ModuleImage::assemble(&modules::surge(BAD_DOM, 2), &layout, prot)
        .expect("bad image assembles");
    let bad_id = run.admit(&bad, PlanConfig::ladder(COHORTS)).expect("bad image admits");
    let mut first_install = Vec::new();
    let bad_state = drive(&mut run, Some(good_id), Some(bad_id), |fleet| {
        let nodes = 0..fleet.len();
        if watch_flash
            && first_install.is_empty()
            && nodes.clone().any(|i| fleet.node(i).has_installed(bad_id))
        {
            first_install = nodes
                .map(|i| (flash_digest(fleet, i), fleet.node(i).has_installed(bad_id)))
                .collect();
        }
    });

    Campaigns {
        run,
        good_id,
        good_state,
        good_log,
        bad_id,
        bad_state,
        pre_flash,
        pre_digest,
        first_install,
    }
}

fn decision_logs(seed: u64, loss: f64, threads: usize, turbo: bool, prove: bool) -> String {
    let c = campaigns(seed, loss, threads, turbo, prove, false);
    format!("{}\n{}", c.good_log, c.run.helm().expect("bad campaign ran").log_json())
}

/// The headline invariant: the controller's full decision history is
/// byte-identical no matter how many worker threads stepped the fleet.
#[test]
fn decision_logs_are_schedule_independent() {
    let reference = decision_logs(seed(), 0.1, 1, false, false);
    assert!(reference.contains("\"decision\":\"roll-back\""), "bad campaign rolled back");
    for threads in [4, 8] {
        assert_eq!(
            reference,
            decision_logs(seed(), 0.1, threads, false, false),
            "{threads}-worker stepping diverged"
        );
    }
}

/// The turbo fast-path engine and prove-mode store elision change how
/// nodes execute, not what they do: the controller sees the same rollups
/// and writes the same decision log.
#[test]
fn turbo_and_prove_reach_identical_decisions() {
    let reference = decision_logs(seed(), 0.1, 4, false, false);
    assert_eq!(reference, decision_logs(seed(), 0.1, 4, true, false), "turbo diverged");
    assert_eq!(reference, decision_logs(seed(), 0.1, 4, false, true), "prove diverged");
}

/// A condemned image leaves no trace: every canary node is back on its
/// exact pre-rollout flash generation and flash words (checkpoint
/// restore), no node still reports the bad image, and no non-canary node
/// was ever flashed — the rollout gate kept the blast radius to the canary
/// cohort. Nodes and checkpoints share flash pages, so the digests also
/// show that a canary's burn reached no other node and no checkpoint.
#[test]
fn rollback_restores_pre_rollout_flash_state() {
    let mut c = campaigns(seed(), 0.1, 4, false, false, true);
    assert_eq!(c.good_state, RolloutState::Done, "good campaign promoted");
    assert_eq!(c.bad_state, RolloutState::RolledBack, "bad campaign condemned");
    assert_eq!(c.run.fleet().known_good(), Some(c.good_id), "known-good preserved");

    let bad_id = c.bad_id;
    let canary_cohort = 0u32;
    assert_eq!(c.first_install.len(), c.pre_digest.len(), "a canary installed the bad image");
    for (i, &(digest, installed)) in c.first_install.iter().enumerate() {
        if installed {
            assert_eq!(c.run.fleet().node(i).cohort, canary_cohort, "node {i} is a canary");
            assert_ne!(digest, c.pre_digest[i], "canary {i}'s burn shows in its own flash");
        } else {
            assert_eq!(digest, c.pre_digest[i], "node {i} saw a canary's burn");
        }
    }

    let fleet = c.run.fleet_mut();
    let mut restores = 0u64;
    for i in 0..fleet.len() {
        let n = fleet.node(i);
        let (generation, installed, cohort, restored) =
            (n.sys.flash_generation(), n.has_installed(bad_id), n.cohort, n.counters().rollbacks);
        assert_eq!(generation, c.pre_flash[i], "node {i} flash generation restored");
        assert_eq!(flash_digest(fleet, i), c.pre_digest[i], "node {i} flash words restored");
        assert!(!installed, "node {i} still has the bad image");
        if cohort == canary_cohort {
            restores += restored;
        } else {
            assert_eq!(restored, 0, "non-canary node {i} restored a checkpoint");
        }
    }
    assert!(restores > 0, "at least one canary flashed and restored");

    let verdict = c.run.helm().and_then(Helm::verdict).cloned().expect("verdict recorded");
    assert_eq!(verdict.outcome, "rolled-back");
    let evidence = verdict.evidence.as_ref().expect("rollback carries evidence");
    assert_eq!(evidence.cohort, canary_cohort, "the canary cohort regressed");
    let rollup = c.run.fleet_mut().tower_rollup().expect("tower attached");
    for id in &evidence.dumps {
        assert!(rollup.find_dump(id).is_some(), "evidence dump {id} resolves");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Decision determinism as a property: for any seed, loss rate and
    /// partition of the fleet among worker threads, the campaign decision
    /// logs equal the serial run's, byte for byte. `salt` folds in
    /// `HARBOR_SEED` so the campaign moves with the repo-wide seed while
    /// staying reproducible.
    #[test]
    fn decision_logs_are_partition_independent(
        salt in 0u64..1_000_000,
        loss_pct in 0u32..30,
        threads in 2usize..6,
    ) {
        let s = seed() ^ salt;
        let loss = f64::from(loss_pct) / 100.0;
        let reference = decision_logs(s, loss, 1, false, false);
        prop_assert_eq!(&reference, &decision_logs(s, loss, threads, false, false));
    }
}
