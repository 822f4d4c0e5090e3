//! `harbor-helm`: the closed-loop OTA control plane — staged canary
//! rollouts driven by `harbor-tower` health scores, with promotion
//! tables, decision logs, JSON + Perfetto export, and a CI gate.
//!
//! ```sh
//! # Built-in demo: one fleet, two campaigns — a healthy image promotes
//! # through the full canary ladder, a crash-looping image auto-rolls
//! # back. Prints the plan and decision tables and writes campaign JSON
//! # + Perfetto traces under target/helm/.
//! cargo run -p harbor-helm --bin harbor-helm
//!
//! # Machine-readable campaign documents on stdout.
//! cargo run -p harbor-helm --bin harbor-helm -- --json
//!
//! # CI invariants.
//! cargo run -p harbor-helm --bin harbor-helm -- --check
//! ```
//!
//! `--check` validates the control plane end to end on a 512-node
//! 8-cohort fleet: (1) a healthy image reaches `Done` with every cohort
//! flashed and no rollback decision; (2) a crash-looping image
//! auto-rolls-back with every node on its exact pre-rollout flash
//! generation (canaries by checkpoint restore, everyone else by never
//! having flashed), and a verdict citing the regressing cohort and a
//! resolvable dump id; (3) decision logs are byte-identical across
//! serial/parallel stepping, turbo and prove; (4) a fleet
//! with helm attached but no campaign produces byte-identical telemetry
//! to a bare fleet. Gates (1) and (2) run twice in one invocation, on the
//! reference interpreter and on turbo + prove, whose 512-node decision
//! logs must match. Exits non-zero on any violation.

#[path = "../../../fleet/src/bin/cli.rs"]
mod cli;

use harbor::DomainId;
use harbor_fleet::{BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig, TowerConfig};
use harbor_helm::{chrome_trace, query, Helm, HelmRun, PlanConfig, RolloutState};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, ENGINES};
use std::process::ExitCode;

/// Cohorts in every scenario; the canary ladder is 1 → 2 → 4 → 8.
const COHORTS: u32 = 8;

/// The healthy rollout image (Surge with its Tree Routing dependency
/// present) lives here.
const GOOD_DOM: u8 = 3;

/// The regressing rollout image (Surge pointed at an *empty* domain, so
/// every timer tick faults) lives here.
const BAD_DOM: u8 = 4;

/// Rounds stepped before the first admission, so counter baselines
/// capture the boot installs.
const WARMUP: u64 = 4;

/// Stall budget per campaign.
const MAX_CAMPAIGN_ROUNDS: u64 = 240;

fn build_fleet(nodes: usize, threads: usize, turbo: bool, prove: bool) -> Fleet {
    let cfg = FleetConfig {
        nodes,
        protection: Protection::Umpu,
        seed: cli::seed(0x70_3e_12),
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
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

/// One round's workload posts: Blink ticks everywhere; nodes that
/// installed a rollout image tick it too (so a bad image faults and a
/// good one just runs).
fn post_tick(run: &mut HelmRun, good: Option<u16>, bad: Option<u16>) {
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

/// Steps until the active campaign reaches a terminal state.
fn drive_campaign(run: &mut HelmRun, good: Option<u16>, bad: Option<u16>) -> RolloutState {
    for _ in 0..MAX_CAMPAIGN_ROUNDS {
        post_tick(run, good, bad);
        run.step_round();
        if let Some(h) = run.helm() {
            if h.state().terminal() {
                return h.state();
            }
        }
    }
    run.helm().map_or(RolloutState::Admitting, Helm::state)
}

/// The two-campaign scenario every mode runs: warm up, promote a healthy
/// Surge through the full ladder, then roll out a crash-looping Surge
/// and let the controller condemn it. The bad campaign's controller is
/// still live in `run`; the good campaign's renderings are captured
/// before it is replaced.
struct Scenario {
    run: HelmRun,
    good_id: u16,
    good_state: RolloutState,
    good_json: String,
    good_log: String,
    good_trace: String,
    good_tables: String,
    bad_id: u16,
    bad_state: RolloutState,
    /// Per-node flash generations snapshotted right before the bad
    /// campaign was admitted.
    pre_flash: Vec<u64>,
}

fn run_scenario(nodes: usize, threads: usize, turbo: bool, prove: bool) -> Scenario {
    let mut run = HelmRun::new(build_fleet(nodes, threads, turbo, prove));
    for _ in 0..WARMUP {
        post_tick(&mut run, None, None);
        run.step_round();
    }

    let layout = run.fleet().layout();
    let prot = run.fleet().protection();
    let good_image = ModuleImage::assemble(&modules::surge_fixed(GOOD_DOM, 1), &layout, prot)
        .expect("good image assembles");
    let good_id = run.admit(&good_image, PlanConfig::ladder(COHORTS)).expect("good image admits");
    let good_state = drive_campaign(&mut run, Some(good_id), None);
    let good = run.helm().expect("campaign ran");
    let good_json = query::to_json(good);
    let good_log = good.log_json();
    let good_trace = chrome_trace(good);
    let good_tables = format!(
        "{}\n{}\n{}",
        query::plan_table(good),
        query::decision_table(good),
        query::status(good)
    );

    let pre_flash: Vec<u64> = {
        let fleet = run.fleet_mut();
        (0..fleet.len()).map(|i| fleet.node(i).sys.flash_generation()).collect()
    };
    let bad_image = ModuleImage::assemble(&modules::surge(BAD_DOM, 2), &layout, prot)
        .expect("bad image assembles");
    let bad_id = run.admit(&bad_image, PlanConfig::ladder(COHORTS)).expect("bad image admits");
    let bad_state = drive_campaign(&mut run, Some(good_id), Some(bad_id));

    Scenario {
        run,
        good_id,
        good_state,
        good_json,
        good_log,
        good_trace,
        good_tables,
        bad_id,
        bad_state,
        pre_flash,
    }
}

fn main() -> ExitCode {
    let cli = cli::Cli::parse();
    if cli.flag("--check") {
        run_checks()
    } else if cli.flag("--json") {
        let s = run_scenario(64, 0, false, false);
        let bad = s.run.helm().expect("bad campaign ran");
        println!("[{},{}]", s.good_json, query::to_json(bad));
        ExitCode::SUCCESS
    } else {
        run_demo()
    }
}

/// Demo: tables on stdout, campaign JSON + Perfetto timelines on disk.
fn run_demo() -> ExitCode {
    let s = run_scenario(64, 0, false, false);
    let bad = s.run.helm().expect("bad campaign ran");

    println!("── campaign 1: image {} (healthy) ──", s.good_id);
    print!("{}", s.good_tables);
    println!("\n── campaign 2: image {} (crash loop) ──", s.bad_id);
    print!("{}", query::plan_table(bad));
    println!();
    print!("{}", query::decision_table(bad));
    println!();
    print!("{}", query::status(bad));

    let out_dir = std::path::Path::new("target").join("helm");
    std::fs::create_dir_all(&out_dir).expect("create target/helm");
    std::fs::write(out_dir.join("helm_good.json"), &s.good_json).expect("write good json");
    std::fs::write(out_dir.join("helm_bad.json"), query::to_json(bad)).expect("write bad json");
    std::fs::write(out_dir.join("helm_trace_good.json"), &s.good_trace).expect("write good trace");
    std::fs::write(out_dir.join("helm_trace_bad.json"), chrome_trace(bad))
        .expect("write bad trace");
    println!(
        "\ncampaign JSON and Perfetto traces (good: {:?}, bad: {:?}) written under {}",
        s.good_state,
        s.bad_state,
        out_dir.display()
    );
    ExitCode::SUCCESS
}

/// Both campaigns' decision logs, the bytes every identity leg compares.
fn decision_logs(s: &Scenario) -> String {
    format!("{}\n{}", s.good_log, s.run.helm().expect("bad campaign ran").log_json())
}

fn run_checks() -> ExitCode {
    let failures = std::cell::Cell::new(0u32);
    let fail = |msg: String| {
        eprintln!("FAIL: {msg}");
        failures.set(failures.get() + 1);
    };

    // ── the 512-node campaign, on the reference interpreter and on turbo +
    // prove (the first and last of `ENGINES`) ──
    let s = check_campaign(ENGINES[0], &fail);
    let fast = check_campaign(ENGINES[3], &fail);
    if decision_logs(&fast) != decision_logs(&s) {
        fail("512-node turbo+prove decision logs differ from the reference".to_string());
    }

    // ── decision-log identity: serial ≡ parallel ≡ turbo ≡ prove ──
    let ref_logs = decision_logs(&run_scenario(24, 1, false, false));
    for (label, threads, turbo, prove) in
        [("parallel", 4usize, false, false), ("turbo", 4, true, false), ("prove", 4, false, true)]
    {
        if decision_logs(&run_scenario(24, threads, turbo, prove)) != ref_logs {
            fail(format!("{label} decision logs differ from the serial reference"));
        }
    }

    // ── helm attached but idle changes nothing ──
    let mut bare = build_fleet(24, 4, false, false);
    let mut wrapped = HelmRun::new(build_fleet(24, 4, false, false));
    for _ in 0..16 {
        bare.post_all(DomainId::num(0), MSG_TIMER);
        bare.step_round();
        wrapped.fleet_mut().post_all(DomainId::num(0), MSG_TIMER);
        wrapped.step_round();
    }
    let bare_bytes =
        format!("{}{}", bare.telemetry().to_json(), bare.tower_rollup().unwrap().to_json());
    let wrapped_bytes = {
        let fleet = wrapped.fleet_mut();
        format!("{}{}", fleet.telemetry().to_json(), fleet.tower_rollup().unwrap().to_json())
    };
    if bare_bytes != wrapped_bytes {
        fail("idle helm changed fleet telemetry or rollup bytes".to_string());
    }

    // Campaign timing (informational; EXPERIMENTS.md cites these).
    let bad_helm = s.run.helm().expect("bad campaign ran");
    let admitted = bad_helm.plan().admitted_round;
    let detect =
        bad_helm.log().iter().find(|r| r.decision == "roll-back").map(|r| r.round - admitted);
    let rolled =
        bad_helm.log().iter().find(|r| r.decision == "rolled-back").map(|r| r.round - admitted);

    if failures.get() == 0 {
        println!(
            "harbor-helm --check: all invariants hold \
             (512 nodes, {COHORTS} cohorts; good image promoted by round {}; \
             bad image condemned {:?} rounds after admission, fully restored after {:?})",
            s.run.fleet().round(),
            detect,
            rolled,
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("harbor-helm --check: {} failure(s)", failures.get());
        ExitCode::FAILURE
    }
}

/// Runs the 512-node campaign on one `(turbo, prove)` engine and reports
/// every violated campaign gate through `report`, tagged with the engine.
fn check_campaign(engine: (bool, bool), report: &dyn Fn(String)) -> Scenario {
    let (turbo, prove) = engine;
    let fail = |msg: String| report(format!("turbo={turbo} prove={prove}: {msg}"));
    let mut s = run_scenario(512, 4, turbo, prove);
    let nodes = s.run.fleet().len();
    let (good_id, bad_id) = (s.good_id, s.bad_id);

    // (1) The healthy image promotes through every stage.
    if s.good_state != RolloutState::Done {
        fail(format!("good campaign ended {:?}, expected Done", s.good_state));
    }
    if s.run.fleet().known_good() != Some(good_id) {
        fail(format!("known-good is {:?}, expected Some({good_id})", s.run.fleet().known_good()));
    }
    if s.good_log.contains("roll-back") {
        fail("good campaign decision log contains a rollback".to_string());
    }
    {
        let fleet = s.run.fleet_mut();
        let unflashed = (0..fleet.len()).filter(|&i| !fleet.node(i).has_installed(good_id)).count();
        if unflashed != 0 {
            fail(format!("good campaign: {unflashed} nodes never flashed image {good_id}"));
        }
    }

    // (2) The crash-looping image rolled back with typed evidence.
    if s.bad_state != RolloutState::RolledBack {
        fail(format!("bad campaign ended {:?}, expected RolledBack", s.bad_state));
    }
    let verdict = s.run.helm().and_then(Helm::verdict).cloned();
    match verdict {
        None => fail("bad campaign has no verdict".to_string()),
        Some(v) => {
            let cohort = v.evidence.as_ref().map_or(u32::MAX, |e| e.cohort);
            if cohort != 0 {
                fail(format!("verdict blames cohort {cohort}, expected canary cohort 0"));
            }
            if v.known_good != Some(good_id) {
                fail(format!(
                    "verdict cites known-good {:?}, expected Some({good_id})",
                    v.known_good
                ));
            }
            let dumps = v.evidence.as_ref().map_or(Vec::new(), |e| e.dumps.clone());
            if dumps.is_empty() {
                fail("verdict carries no dump ids".to_string());
            }
            let rollup = s.run.fleet_mut().tower_rollup().expect("tower attached");
            for id in &dumps {
                if rollup.find_dump(id).is_none() {
                    fail(format!("verdict dump {id} is not resolvable in the rollup"));
                }
            }
        }
    }

    // (3) Every node sits on its exact pre-rollout flash generation: the
    // canaries restored their checkpoints, nobody else ever flashed.
    let restored: u64 = {
        let fleet = s.run.fleet_mut();
        for i in 0..fleet.len() {
            let n = fleet.node(i);
            let (generation, installed, cohort) =
                (n.sys.flash_generation(), n.has_installed(bad_id), n.cohort);
            if generation != s.pre_flash[i] {
                fail(format!(
                    "node {i} (cohort {cohort}) at flash generation {generation}, \
                     pre-rollout was {}",
                    s.pre_flash[i]
                ));
            }
            if installed {
                fail(format!("node {i} still reports bad image {bad_id} installed"));
            }
        }
        (0..fleet.len()).map(|i| fleet.node(i).counters().rollbacks).sum()
    };
    if restored == 0 {
        fail("no node ever restored a checkpoint; rollback untested".to_string());
    }
    let canary_nodes = nodes as u64 / u64::from(COHORTS);
    if restored > canary_nodes {
        fail(format!("{restored} restores exceed the {canary_nodes} canary nodes"));
    }

    // (4) Lifecycle counters flowed into the fleet rollup.
    let totals = s.run.fleet_mut().tower_rollup().expect("tower attached").totals();
    if totals.images_admitted < nodes as u64 {
        fail(format!(
            "rollup images_admitted {} < {nodes} good-campaign installs",
            totals.images_admitted
        ));
    }
    if totals.rollbacks != restored {
        fail(format!("rollup rollbacks {} != node table total {restored}", totals.rollbacks));
    }
    if totals.stages_promoted < nodes as u64 {
        fail(format!(
            "rollup stages_promoted {} < {nodes} (every node got a good-campaign grant)",
            totals.stages_promoted
        ));
    }

    s
}
