//! `helm_canary`: closed-loop canary rollouts with the observability and
//! control layers on.
//!
//! Each episode is one campaign on a fresh 512-node, 8-cohort UMPU fleet
//! (turbo + prove) with blackbox and tower attached: 4 warm-up rounds,
//! then the healthy fixed Surge is admitted and rolled through the canary
//! ladder, then the crash-looping Surge is admitted and must be rolled
//! back, then 64 soak rounds. Every round posts a Blink timer to every
//! node and each rollout's timer to the nodes that installed it. This is
//! the only workload with recorder freezes, the watchdog, the tower feed
//! and rollup, helm decisions and checkpoint/restore in the loop, so
//! telemetry-spine or incremental-rollup work shows here and nowhere else.
//!
//! Failures are unsafe or undecided campaigns: the crash-looper promoted,
//! a node still running it after the rollback, or a rollout without a
//! verdict within [`MAX_VERDICT_ROUNDS`]. A healthy image rolled back by
//! the controller's stall valve (a stage not fully flashed in time over
//! the lossy radio) is the controller's fail-safe, not a failed op; it is
//! counted in `helm.false_rollback_pct`.

use crate::fleet_layers::{self, FleetLayers};
use crate::run::{percentile_of, ratio, Run, Size};
use harbor::DomainId;
use harbor_bench::report::machine_hash;
use harbor_fleet::{BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig, TowerConfig};
use harbor_helm::{HelmRun, PlanConfig, RolloutState};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};
use std::time::Instant;

/// 512 nodes; 64 soak rounds after the second verdict.
pub const SIZE: Size = Size { nodes: 512, ops: 64 };

const COHORTS: u32 = 8;
const WARMUP_ROUNDS: u64 = 4;
const GOOD_DOMAIN: u8 = 3;
const BAD_DOMAIN: u8 = 4;

/// Rounds a rollout may take to reach a verdict.
const MAX_VERDICT_ROUNDS: u64 = 400;

/// Per-run accumulators beyond the shared fleet ones.
#[derive(Default)]
struct Campaigns {
    fleet: FleetLayers,
    step_round_ns: u64,
    admit_ns: u64,
    to_done: Vec<u64>,
    to_rollback: Vec<u64>,
    false_rollbacks: u64,
}

/// Runs the workload.
pub fn run(run: &mut Run, size: Size) {
    let mut acc = Campaigns::default();
    while let Some(k) = run.next_episode() {
        let traced = run.traced();
        let cfg = FleetConfig {
            nodes: size.nodes,
            protection: Protection::Umpu,
            seed: run.seed.wrapping_add(k),
            net: NetConfig { loss: 0.1, ..NetConfig::default() },
            threads: fleet_layers::THREADS,
            blackbox: Some(BlackboxConfig::default()),
            cohorts: COHORTS,
            tower: Some(TowerConfig::default()),
            turbo: true,
            prove: true,
            pulse: traced,
            ..FleetConfig::default()
        };
        let (mut helm, good, bad) = run.setup(|| {
            let fleet = Fleet::new(&cfg, &[modules::blink(0), modules::tree_routing(1)])
                .expect("helm_canary fleet builds");
            let layout = fleet.layout();
            let assemble = |src| {
                ModuleImage::assemble(&src, &layout, Protection::Umpu).expect("image assembles")
            };
            let good = assemble(modules::surge_fixed(GOOD_DOMAIN, 1));
            let bad = assemble(modules::surge(BAD_DOMAIN, 2));
            (HelmRun::new(fleet), good, bad)
        });
        if k == 0 {
            fleet_layers::note_engine(run, helm.fleet_mut());
        }
        let boot = fleet_layers::boot_instructions(helm.fleet_mut());
        let logs = campaign(run, &mut helm, &good, &bad, size.ops, &mut acc);
        run.end_ops();

        let fleet = helm.fleet_mut();
        let tel = fleet.telemetry();
        acc.fleet.absorb(fleet, &tel, boot);
        if k == 0 {
            fleet_layers::record_counts(run, fleet, &tel);
            match logs {
                Some((good_log, bad_log)) => {
                    run.pin("helm_log_healthy", machine_hash(good_log.as_bytes()));
                    run.pin("helm_log_crashloop", machine_hash(bad_log.as_bytes()));
                }
                None => run.check(false, || "episode 0 reached no verdicts".to_string()),
            }
        }
    }
    acc.fleet.finish(run);
    let loop_ns = acc.step_round_ns.saturating_sub(acc.fleet.wall_ns);
    let values = [
        ("helm.loop_pct", run.traced_share(loop_ns)),
        ("helm.admit_pct", run.traced_share(acc.admit_ns)),
        ("helm.rounds_to_done_p50", percentile_of(&acc.to_done, 0.5) as f64),
        ("helm.rounds_to_rollback_p50", percentile_of(&acc.to_rollback, 0.5) as f64),
        (
            "helm.false_rollback_pct",
            ratio(acc.false_rollbacks as f64 * 100.0, run.attempted as f64),
        ),
    ];
    for (name, v) in values {
        run.layers.set(name, v);
    }
}

/// One campaign. Returns both rollouts' decision logs once both reached a
/// verdict, `None` if the budget cut the campaign short first.
fn campaign(
    run: &mut Run,
    helm: &mut HelmRun,
    good: &ModuleImage,
    bad: &ModuleImage,
    soak_rounds: u64,
    acc: &mut Campaigns,
) -> Option<(String, String)> {
    let mut live = Vec::new();
    for _ in 0..WARMUP_ROUNDS {
        round(run, helm, &live, acc)?;
    }
    let (_, good_state, good_rounds) = rollout(run, helm, good, GOOD_DOMAIN, &mut live, acc)?;
    let good_log = helm.helm().expect("campaign admitted").log_json();
    // An undecided first rollout still holds the controller: the second
    // cannot be admitted, and the campaign has already failed.
    let second = match good_state {
        Some(_) => Some(rollout(run, helm, bad, BAD_DOMAIN, &mut live, acc)?),
        None => None,
    };
    let bad_log = helm.helm().expect("campaign admitted").log_json();

    run.attempted += 1;
    let mut ok = true;
    match good_state {
        Some(RolloutState::Done) => acc.to_done.push(good_rounds),
        Some(_) => acc.false_rollbacks += 1,
        None => ok = false,
    }
    match second {
        Some((bad_id, Some(RolloutState::RolledBack), rounds)) => {
            let fleet = helm.fleet_mut();
            let running = (0..fleet.len()).any(|i| fleet.with_node(i, |n| n.has_installed(bad_id)));
            if running {
                ok = false;
            } else {
                acc.to_rollback.push(rounds);
            }
        }
        _ => ok = false,
    }
    run.failed += u64::from(!ok);

    for _ in 0..soak_rounds {
        if round(run, helm, &live, acc).is_none() {
            break;
        }
    }
    Some((good_log, bad_log))
}

/// Admits `image` and runs closed-loop rounds until its verdict. Returns
/// the image id, the terminal state (`None` past the round cap) and the
/// rounds it took; `None` if the image was refused or the budget ran out.
fn rollout(
    run: &mut Run,
    helm: &mut HelmRun,
    image: &ModuleImage,
    domain: u8,
    live: &mut Vec<(u16, u8)>,
    acc: &mut Campaigns,
) -> Option<(u16, Option<RolloutState>, u64)> {
    let t = Instant::now();
    let admitted = helm.admit(image, PlanConfig::ladder(COHORTS));
    if run.traced() {
        acc.admit_ns += t.elapsed().as_nanos() as u64;
    }
    let id = match admitted {
        Ok(id) => id,
        Err(e) => {
            run.check(false, || format!("{} refused admission: {e}", image.name));
            return None;
        }
    };
    live.push((id, domain));
    for rounds in 1..=MAX_VERDICT_ROUNDS {
        round(run, helm, live, acc)?;
        let state = helm.helm().expect("campaign admitted").state();
        if state.terminal() {
            return Some((id, Some(state), rounds));
        }
    }
    Some((id, None, MAX_VERDICT_ROUNDS))
}

/// One closed-loop round as one timed op: a Blink timer to every node and
/// each live rollout's timer to the nodes that installed it, then the
/// fleet step with the controller's observe-and-actuate pass. `None` when
/// the budget is spent.
fn round(run: &mut Run, helm: &mut HelmRun, live: &[(u16, u8)], acc: &mut Campaigns) -> Option<()> {
    if run.expired() {
        return None;
    }
    let traced = run.traced();
    run.op(|| {
        let t = traced.then(Instant::now);
        let fleet = helm.fleet_mut();
        fleet.post_all(DomainId::num(0), MSG_TIMER);
        for i in 0..fleet.len() {
            for &(id, dom) in live {
                if fleet.with_node(i, |n| n.has_installed(id)) {
                    fleet.post(i, DomainId::num(dom), MSG_TIMER);
                }
            }
        }
        let t = t.map(|t| {
            acc.fleet.inject_ns += t.elapsed().as_nanos() as u64;
            Instant::now()
        });
        helm.step_round();
        if let Some(t) = t {
            acc.step_round_ns += t.elapsed().as_nanos() as u64;
        }
    });
    Some(())
}
