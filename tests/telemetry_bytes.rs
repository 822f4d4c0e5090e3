//! Golden bytes for one fixed small campaign: `harbor_helm::two_campaigns`
//! on 24 nodes in 4 cohorts with the blackbox and tower attached. A
//! healthy Surge is promoted through the canary ladder, then a
//! crash-looping Surge is rolled back.
//! Every observer's rendering is pinned by its FNV-1a digest, once when
//! the healthy campaign is done and once when the crash-looper has been
//! rolled back:
//!
//! - `FleetTelemetry::to_json` and `FleetRollup::to_json`;
//! - the campaign's `Helm::log_json`;
//! - `harbor_tower::chrome_trace`, `harbor_helm::chrome_trace` and
//!   `Fleet::causal_trace`.
//!
//! The other suites compare runs with each other; this one notices when
//! a refactor moves any of these bytes.

use harbor_fleet::{BlackboxConfig, FleetConfig, NetConfig, TowerConfig};
use harbor_helm::{two_campaigns, HelmRun, RolloutState};
use mini_sos::Protection;

/// Digests in render order: telemetry, rollup, helm log, tower trace,
/// helm trace, causal trace.
const NAMES: [&str; 6] =
    ["telemetry", "rollup", "helm_log", "tower_trace", "helm_trace", "causal_trace"];

/// After the healthy image is promoted (`Done`).
const PROMOTED: [u64; 6] = [
    0x6d9e_dc6e_0e30_e548,
    0x9e68_acdb_ab7d_603e,
    0xe4d9_77b4_7273_5c55,
    0xba31_d54e_9be3_d8d1,
    0xac54_4e0b_745d_045f,
    0x5dac_5a84_172f_6347,
];

/// After the crash-looper is rolled back (`RolledBack`). The rollup, and
/// the tower trace that renders it, include the work and ring drops the
/// canaries' checkpoint restores rewound.
const ROLLED_BACK: [u64; 6] = [
    0x6e5a_3c61_9787_ca2a,
    0x9bb0_f0ee_d92a_f956,
    0x9f2b_999a_0de4_3acb,
    0xbcb7_1b09_3b5d_3531,
    0x0588_6f86_9bb0_326e,
    0x0cb2_468a_0980_0740,
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The six digests of the fleet and controller as they stand.
fn digests(run: &mut HelmRun) -> [u64; 6] {
    let helm = run.helm().expect("campaign admitted");
    let (log, helm_trace) = (helm.log_json(), harbor_helm::chrome_trace(helm));
    let fleet = run.fleet_mut();
    let rollup = fleet.tower_rollup().expect("tower attached");
    let renders = [
        fleet.telemetry().to_json(),
        rollup.to_json(),
        log,
        harbor_tower::chrome_trace(&rollup),
        helm_trace,
        fleet.causal_trace(),
    ];
    renders.map(|r| fnv1a(r.as_bytes()))
}

fn check(stage: &str, got: [u64; 6], pinned: [u64; 6]) {
    let mismatches: Vec<String> = NAMES
        .iter()
        .zip(got.iter().zip(pinned))
        .filter(|(_, (g, p))| **g != *p)
        .map(|(name, (g, p))| format!("{name}: got {g:#018x}, pinned {p:#018x}"))
        .collect();
    assert!(mismatches.is_empty(), "{stage} digests moved:\n{}", mismatches.join("\n"));
}

#[test]
fn campaign_renders_are_pinned() {
    let cfg = FleetConfig {
        nodes: 24,
        protection: Protection::Umpu,
        seed: 0x70_3e_12,
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads: 2,
        blackbox: Some(BlackboxConfig::default()),
        cohorts: 4,
        tower: Some(TowerConfig::default()),
        ..FleetConfig::default()
    };
    let mut promoted = None;
    let mut c = two_campaigns(&cfg, |_| {}, |run| promoted = Some(digests(run)));
    assert_eq!(c.good.state(), RolloutState::Done);
    check("promoted", promoted.expect("the healthy campaign ended"), PROMOTED);
    assert_eq!(c.bad().state(), RolloutState::RolledBack);
    check("rolled back", digests(&mut c.run), ROLLED_BACK);
}
