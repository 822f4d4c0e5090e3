//! Fleet-level harbor-helm integration over [`two_campaigns`]: the
//! closed-loop rollout controller's decision log must be byte-identical
//! across serial and parallel stepping — as a property over random
//! seeds, loss rates and worker counts — and a condemned image's
//! rollback must restore every canary node's exact pre-rollout flash
//! (generation and every word) while never touching a non-canary node:
//! nodes share flash pages, and no node may see another node's burn.
//! Turbo and prove engines must drive the controller to the same
//! decisions, and a controller with no campaign must change no bytes.

mod common;

use common::seed;
use harbor::DomainId;
use harbor_fleet::{BlackboxConfig, Fleet, FleetConfig, NetConfig, TowerConfig};
use harbor_helm::{two_campaigns, HelmRun, RolloutState, TwoCampaigns};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, ENGINES};
use proptest::prelude::*;
use std::cell::OnceCell;

const NODES: usize = 16;
const COHORTS: u32 = 4;
const SEED: u64 = 0x70_3e_12;

/// A fleet of `nodes` in `cohorts` with the blackbox and tower attached,
/// stepped on `engine`, a `(turbo, prove)` pair of [`ENGINES`].
fn config(
    nodes: usize,
    cohorts: u32,
    seed: u64,
    loss: f64,
    threads: usize,
    (turbo, prove): (bool, bool),
) -> FleetConfig {
    FleetConfig {
        nodes,
        protection: Protection::Umpu,
        seed,
        net: NetConfig { loss, ..NetConfig::default() },
        threads,
        blackbox: Some(BlackboxConfig::default()),
        turbo,
        prove,
        cohorts,
        tower: Some(TowerConfig::default()),
        ..FleetConfig::default()
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

/// Every node's flash generation.
fn generations(fleet: &Fleet) -> Vec<u64> {
    (0..fleet.len()).map(|i| fleet.node(i).sys.flash_generation()).collect()
}

fn decision_logs(seed: u64, loss: f64, threads: usize, engine: (bool, bool)) -> String {
    let c = two_campaigns(&config(NODES, COHORTS, seed, loss, threads, engine), |_| {}, |_| {});
    format!("{}\n{}", c.good.log_json(), c.bad().log_json())
}

/// Both campaigns' promises: the healthy image reached every node and was
/// committed; the crash-looper was condemned with evidence from the
/// canary cohort whose dump ids resolve; every node is back on its
/// pre-campaign flash generation `pre_flash`, no node still has the bad
/// image, only canaries restored a checkpoint, and the rollup counted the
/// installs, grants and restores. Returns the number of restores.
fn assert_promoted_then_restored(c: &mut TwoCampaigns, pre_flash: &[u64], tag: &str) -> u64 {
    let (good_id, bad_id) = (c.good.plan().image, c.bad().plan().image);
    assert_eq!(c.good.state(), RolloutState::Done, "{tag}: good campaign promoted");
    assert!(!c.good.log_json().contains("roll-back"), "{tag}: good campaign never rolled back");
    assert_eq!(c.bad().state(), RolloutState::RolledBack, "{tag}: bad campaign condemned");
    assert_eq!(c.run.fleet().known_good(), Some(good_id), "{tag}: known-good preserved");

    let verdict = c.bad().verdict().cloned().expect("verdict recorded");
    assert_eq!(verdict.outcome, "rolled-back", "{tag}");
    assert_eq!(verdict.known_good, Some(good_id), "{tag}: verdict cites the known-good image");
    let evidence = verdict.evidence.as_ref().expect("rollback carries evidence");
    let canary_cohort = 0u32;
    assert_eq!(evidence.cohort, canary_cohort, "{tag}: the canary cohort regressed");
    assert!(!evidence.dumps.is_empty(), "{tag}: evidence cites dumps");
    let rollup = c.run.fleet_mut().tower_rollup().expect("tower attached");
    for id in &evidence.dumps {
        assert!(rollup.find_dump(id).is_some(), "{tag}: evidence dump {id} resolves");
    }

    let fleet = c.run.fleet();
    let mut restores = 0u64;
    for (i, &generation) in pre_flash.iter().enumerate() {
        let n = fleet.node(i);
        assert!(n.has_installed(good_id), "{tag}: node {i} flashed the good image");
        assert_eq!(n.sys.flash_generation(), generation, "{tag}: node {i} flash restored");
        assert!(!n.has_installed(bad_id), "{tag}: node {i} still has the bad image");
        if n.cohort == canary_cohort {
            restores += n.counters().rollbacks;
        } else {
            assert_eq!(n.counters().rollbacks, 0, "{tag}: non-canary node {i} restored");
        }
    }
    assert!(restores > 0, "{tag}: at least one canary flashed and restored");
    let canaries = fleet.len() as u64 / u64::from(fleet.cohorts());
    assert!(restores <= canaries, "{tag}: {restores} restores exceed {canaries} canaries");

    let totals = rollup.totals();
    let nodes = fleet.len() as u64;
    assert!(totals.images_admitted >= nodes, "{tag}: every node's good install counted");
    assert!(totals.stages_promoted >= nodes, "{tag}: every node's good grant counted");
    assert_eq!(totals.rollbacks, restores, "{tag}: rollup rollbacks");
    restores
}

/// The headline invariant: the controller's full decision history is
/// byte-identical no matter how many worker threads stepped the fleet.
#[test]
fn decision_logs_are_schedule_independent() {
    let reference = decision_logs(seed(SEED), 0.1, 1, ENGINES[0]);
    assert!(reference.contains("\"decision\":\"roll-back\""), "bad campaign rolled back");
    for threads in [4, 8] {
        assert_eq!(
            reference,
            decision_logs(seed(SEED), 0.1, threads, ENGINES[0]),
            "{threads}-worker stepping diverged"
        );
    }
}

/// The turbo fast-path engine and prove-mode store elision change how
/// nodes execute, not what they do: the controller sees the same rollups
/// and writes the same decision log.
#[test]
fn turbo_and_prove_reach_identical_decisions() {
    let reference = decision_logs(seed(SEED), 0.1, 4, ENGINES[0]);
    assert_eq!(reference, decision_logs(seed(SEED), 0.1, 4, (true, false)), "turbo diverged");
    assert_eq!(reference, decision_logs(seed(SEED), 0.1, 4, (false, true)), "prove diverged");
}

/// A condemned image leaves no trace: every canary node is back on its
/// exact pre-rollout flash generation and flash words (checkpoint
/// restore), no node still reports the bad image, and no non-canary node
/// was ever flashed — the rollout gate kept the blast radius to the canary
/// cohort. Nodes and checkpoints share flash pages, so the digests also
/// show that a canary's burn reached no other node and no checkpoint.
#[test]
fn rollback_restores_pre_rollout_flash_state() {
    // Each node's generation and flash digest before the crash-looper is
    // admitted, and each node's digest and whether it held the bad image
    // at the end of the round its first canary installed it.
    let pre = OnceCell::new();
    let mut first_install = Vec::new();
    let mut c = two_campaigns(
        &config(NODES, COHORTS, seed(SEED), 0.1, 4, ENGINES[0]),
        |run| {
            // Only the crash-looper's rounds, up to its first install.
            if pre.get().is_none() || !first_install.is_empty() {
                return;
            }
            let (fleet, bad) = (run.fleet(), run.helm().expect("campaign admitted").plan().image);
            let nodes = 0..fleet.len();
            if nodes.clone().any(|i| fleet.node(i).has_installed(bad)) {
                first_install = nodes
                    .map(|i| (flash_digest(fleet, i), fleet.node(i).has_installed(bad)))
                    .collect();
            }
        },
        |run| {
            let fleet = run.fleet();
            let digests = (0..fleet.len()).map(|i| flash_digest(fleet, i)).collect();
            pre.set((generations(fleet), digests)).expect("one stop");
        },
    );
    let (pre_flash, pre_digest): (Vec<u64>, Vec<u64>) = pre.into_inner().expect("stop ran");
    assert_promoted_then_restored(&mut c, &pre_flash, "16 nodes");

    assert_eq!(first_install.len(), pre_digest.len(), "a canary installed the bad image");
    let fleet = c.run.fleet();
    for (i, &(digest, installed)) in first_install.iter().enumerate() {
        if installed {
            assert_eq!(fleet.node(i).cohort, 0, "node {i} is a canary");
            assert_ne!(digest, pre_digest[i], "canary {i}'s burn shows in its own flash");
        } else {
            assert_eq!(digest, pre_digest[i], "node {i} saw a canary's burn");
        }
    }
    for (i, &digest) in pre_digest.iter().enumerate() {
        assert_eq!(flash_digest(fleet, i), digest, "node {i} flash words restored");
    }
}

/// The campaign at scale: 512 nodes in 8 cohorts, on the reference
/// interpreter and on turbo + prove, at the fixed default seed. Both
/// engines keep every promise of [`assert_promoted_then_restored`] and
/// write the same decision logs. The closed-loop latencies and the
/// verdict's evidence that EXPERIMENTS.md quotes are pinned: the
/// crash-looper is condemned 3 rounds after admission, every canary is
/// restored after 4, and the canary cohort scored 20 at 898‱ faults.
#[test]
fn campaign_at_512_nodes_promotes_condemns_and_restores_on_both_engines() {
    let mut logs = Vec::new();
    for engine @ (turbo, prove) in [ENGINES[0], ENGINES[3]] {
        let tag = format!("512 nodes, turbo={turbo} prove={prove}");
        let pre_flash = OnceCell::new();
        let mut c = two_campaigns(
            &config(512, 8, SEED, 0.1, 4, engine),
            |_| {},
            |run| {
                pre_flash.set(generations(run.fleet())).expect("one stop");
            },
        );
        let pre_flash = pre_flash.into_inner().expect("stop ran");
        assert_promoted_then_restored(&mut c, &pre_flash, &tag);

        let bad = c.bad();
        let admitted = bad.plan().admitted_round;
        let round_of =
            |decision: &str| bad.log().iter().find(|r| r.decision == decision).map(|r| r.round);
        assert_eq!(round_of("roll-back"), Some(admitted + 3), "{tag}: condemned");
        assert_eq!(round_of("rolled-back"), Some(admitted + 4), "{tag}: restored");
        let evidence = bad.verdict().and_then(|v| v.evidence.clone()).expect("evidence");
        assert_eq!((evidence.score, evidence.fault_pm), (20, 898), "{tag}: canary health");
        logs.push(format!("{}\n{}", c.good.log_json(), bad.log_json()));
    }
    assert_eq!(logs[0], logs[1], "turbo+prove decision logs differ from the reference");
}

/// A controller with no campaign is invisible: a fleet wrapped in an idle
/// [`HelmRun`] reports the same telemetry and rollup bytes as a bare one.
#[test]
fn an_idle_controller_changes_no_bytes() {
    let cfg = config(24, 8, seed(SEED), 0.1, 4, ENGINES[0]);
    let build = || Fleet::new(&cfg, &[modules::blink(0), modules::tree_routing(1)]).unwrap();
    let (mut bare, mut wrapped) = (build(), HelmRun::new(build()));
    for _ in 0..16 {
        bare.post_all(DomainId::num(0), MSG_TIMER);
        bare.step_round();
        wrapped.fleet_mut().post_all(DomainId::num(0), MSG_TIMER);
        wrapped.step_round();
    }
    let bytes = |fleet: &mut Fleet| {
        format!("{}{}", fleet.telemetry().to_json(), fleet.tower_rollup().unwrap().to_json())
    };
    assert_eq!(bytes(&mut bare), bytes(wrapped.fleet_mut()), "idle helm changed the bytes");
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
        let s = seed(SEED) ^ salt;
        let loss = f64::from(loss_pct) / 100.0;
        let reference = decision_logs(s, loss, 1, ENGINES[0]);
        prop_assert_eq!(&reference, &decision_logs(s, loss, threads, ENGINES[0]));
    }
}
