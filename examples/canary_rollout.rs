//! The closed OTA loop, end to end: a 64-node cohorted fleet promotes a
//! healthy Surge image through a staged canary ladder (1 cohort → 1 → 2 →
//! 4), then a crash-looping Surge build is rolled out the same way — the
//! canary cohort regresses within a few rounds, harbor-helm condemns the
//! image with typed evidence (cohort, health score, postmortem dump ids),
//! quarantines it fleet-wide, and every canary node restores its
//! pre-rollout checkpoint. Nobody outside the canary cohort ever flashes
//! the bad build.
//!
//! ```sh
//! cargo run --release --example canary_rollout
//! ```
//!
//! Writes Perfetto timelines of both campaigns under `target/helm/`
//! (open in ui.perfetto.dev).

use harbor::DomainId;
use harbor_fleet::{BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig, TowerConfig};
use harbor_helm::{chrome_trace, query, HelmRun, PlanConfig, RolloutState};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};

const NODES: usize = 64;
const COHORTS: u32 = 8;
const GOOD_DOM: u8 = 3;
const BAD_DOM: u8 = 4;

/// One workload round: Blink ticks everywhere, and any node that has
/// installed a rollout image ticks it too — so the healthy build just
/// runs and the broken one crash-loops.
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

fn drive(run: &mut HelmRun, good: Option<u16>, bad: Option<u16>) -> RolloutState {
    loop {
        tick(run, good, bad);
        run.step_round();
        let state = run.helm().expect("campaign admitted").state();
        if state.terminal() {
            return state;
        }
        assert!(run.fleet().round() < 400, "campaign did not converge");
    }
}

fn main() {
    let cfg = FleetConfig {
        nodes: NODES,
        protection: Protection::Umpu,
        seed: 0x70_3e_12,
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads: 4,
        blackbox: Some(BlackboxConfig::default()),
        cohorts: COHORTS,
        tower: Some(TowerConfig::default()),
        ..FleetConfig::default()
    };
    let fleet =
        Fleet::new(&cfg, &[modules::blink(0), modules::tree_routing(1)]).expect("fleet builds");
    let mut run = HelmRun::new(fleet);

    // Warm up so the tower baseline includes the boot installs.
    for _ in 0..4 {
        tick(&mut run, None, None);
        run.step_round();
    }
    let layout = run.fleet().layout();

    // ── Campaign 1: the fixed Surge build climbs the full ladder. ──
    let good_image =
        ModuleImage::assemble(&modules::surge_fixed(GOOD_DOM, 1), &layout, Protection::Umpu)
            .expect("image assembles");
    let good_id = run.admit(&good_image, PlanConfig::ladder(COHORTS)).expect("admits");
    println!("─── campaign 1: surge_fixed (image {good_id}) ───");
    let state = drive(&mut run, Some(good_id), None);
    assert_eq!(state, RolloutState::Done, "healthy image promotes");
    {
        let helm = run.helm().unwrap();
        print!("{}", query::decision_table(helm));
        print!("{}", query::status(helm));
        std::fs::create_dir_all("target/helm").expect("mkdir");
        std::fs::write("target/helm/canary_good.json", chrome_trace(helm)).expect("write");
    }

    // ── Campaign 2: the crash-looping build meets the canary gate. ──
    let pre_flash: Vec<u64> = {
        let fleet = run.fleet_mut();
        (0..fleet.len()).map(|i| fleet.node(i).sys.flash_generation()).collect()
    };
    let bad_image = ModuleImage::assemble(&modules::surge(BAD_DOM, 2), &layout, Protection::Umpu)
        .expect("image assembles");
    let bad_id = run.admit(&bad_image, PlanConfig::ladder(COHORTS)).expect("admits");
    println!("\n─── campaign 2: surge, pointed at an empty domain (image {bad_id}) ───");
    let state = drive(&mut run, Some(good_id), Some(bad_id));
    assert_eq!(state, RolloutState::RolledBack, "broken image is condemned");
    {
        let helm = run.helm().unwrap();
        print!("{}", query::decision_table(helm));
        print!("{}", query::status(helm));
        std::fs::write("target/helm/canary_bad.json", chrome_trace(helm)).expect("write");
    }

    // The rollback left no trace: every node is back on its pre-rollout
    // flash generation and the bad image is quarantined everywhere.
    let fleet = run.fleet_mut();
    let mut flashed_outside_canary = 0usize;
    for (i, &expected) in pre_flash.iter().enumerate() {
        let n = fleet.node(i);
        let (generation, installed) = (n.sys.flash_generation(), n.has_installed(bad_id));
        assert_eq!(generation, expected, "node {i} restored");
        if installed {
            flashed_outside_canary += 1;
        }
    }
    assert_eq!(flashed_outside_canary, 0, "bad image gone everywhere");
    println!(
        "\nall {NODES} nodes back on their pre-rollout flash generation; \
         known-good is image {:?}; Perfetto timelines under target/helm/",
        fleet.known_good().expect("known-good preserved")
    );
}
