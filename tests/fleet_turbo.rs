//! Fleet-level turbo identity: a fleet stepped through the `harbor-turbo`
//! fast path must produce byte-identical telemetry to the reference
//! interpreter — across serial and parallel schedules, through OTA
//! dissemination, and through a full fault-injection campaign.

mod common;

use common::seed;
use harbor::DomainId;
use harbor_fleet::{run_campaign, CampaignConfig, Fleet, FleetConfig, ModuleImage, NetConfig};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};

const TREE_DOM: u8 = 3;

/// Default seed; `HARBOR_SEED` overrides it.
const SEED: u64 = 0x5eed;

/// Boots a 12-node fleet, disseminates Tree Routing through a lossy radio
/// while Blink ticks, and returns the comparable telemetry JSON.
fn dissemination_run(threads: usize, turbo: bool) -> String {
    let cfg = FleetConfig {
        nodes: 12,
        protection: Protection::Umpu,
        seed: seed(SEED),
        net: NetConfig { loss: 0.3, latency_min: 1, latency_max: 3 },
        threads,
        turbo,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("fleet builds");
    let image =
        ModuleImage::assemble(&modules::tree_routing(TREE_DOM), &fleet.layout(), cfg.protection)
            .expect("image assembles");
    fleet.disseminate(&image);
    for _ in 0..30 {
        fleet.post_all(DomainId::num(0), MSG_TIMER);
        fleet.step_round();
    }
    fleet.telemetry().comparable_json()
}

/// The headline fleet invariant: turbo × {serial, parallel} telemetry is
/// byte-identical to the reference run — same cycles, same radio traffic,
/// same installs, same everything the JSON carries.
#[test]
fn turbo_fleet_telemetry_is_byte_identical_to_reference() {
    let reference = dissemination_run(1, false);
    assert_eq!(reference, dissemination_run(1, true), "turbo serial diverged");
    assert_eq!(reference, dissemination_run(4, true), "turbo parallel diverged");
    assert_eq!(reference, dissemination_run(8, true), "worker count leaked under turbo");
}

/// A full randomized fault campaign (rogue wild-writer injected into
/// victims, watchdogs and flight recorders armed) reports identically under
/// turbo: same faults raised, same containment, same postmortem dumps.
#[test]
fn turbo_fault_campaign_reports_identically() {
    let campaign = |turbo: bool| CampaignConfig {
        fleet: FleetConfig {
            nodes: 10,
            seed: seed(SEED),
            threads: 4,
            turbo,
            ..FleetConfig::default()
        },
        victims: 4,
        warmup_rounds: 6,
        after_rounds: 6,
    };
    for protection in [Protection::Umpu, Protection::Sfi] {
        let reference = run_campaign(protection, &campaign(false));
        let turbo = run_campaign(protection, &campaign(true));
        assert_eq!(
            reference.to_json(),
            turbo.to_json(),
            "{protection:?}: campaign reports diverged under turbo"
        );
        assert!(reference.faults_raised > 0, "{protection:?}: campaign exercised faults");
    }
}
