//! Fleet-level elision identity: a fleet stepped with `harbor-prove`
//! store-check elision must produce byte-identical telemetry to the
//! reference run — across serial and parallel schedules, stacked with the
//! turbo fast path, through OTA dissemination, and through a full
//! fault-injection campaign. The SFI build's *cycle-changing* elision
//! (`LoadPolicy::with_elision`) is checked at the system level in
//! `crates/sos/tests/prove_soundness.rs`; here the `prove` flag must be a
//! strict no-op for the SFI protection build.

mod common;

use common::seed;
use harbor::DomainId;
use harbor_fleet::{run_campaign, CampaignConfig, Fleet, FleetConfig, ModuleImage, NetConfig};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};

const TREE_DOM: u8 = 3;

/// Default seed; `HARBOR_SEED` overrides it.
const SEED: u64 = 0x5eed;

/// Boots a 12-node UMPU fleet, disseminates Tree Routing through a lossy
/// radio while Blink ticks, and returns the comparable telemetry JSON.
fn dissemination_run(threads: usize, prove: bool, turbo: bool) -> String {
    let cfg = FleetConfig {
        nodes: 12,
        protection: Protection::Umpu,
        seed: seed(SEED),
        net: NetConfig { loss: 0.3, latency_min: 1, latency_max: 3 },
        threads,
        prove,
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

/// The headline elision invariant: prove × {serial, parallel, turbo}
/// telemetry is byte-identical to the reference run — same cycles, same
/// radio traffic, same installs, same everything the JSON carries. The
/// dissemination in the middle exercises the invalidation path: every
/// install re-derives the certificates and republishes the elision map.
#[test]
fn prove_fleet_telemetry_is_byte_identical_to_reference() {
    let reference = dissemination_run(1, false, false);
    assert_eq!(reference, dissemination_run(1, true, false), "prove serial diverged");
    assert_eq!(reference, dissemination_run(4, true, false), "prove parallel diverged");
    assert_eq!(reference, dissemination_run(4, true, true), "prove + turbo diverged");
}

/// A full randomized fault campaign (rogue wild-writer injected into
/// victims, watchdogs and flight recorders armed) reports identically with
/// elision on: same faults raised, same containment, same postmortem dumps.
/// The rogue's own store targets *another* domain's state, so it is never
/// certified — elision must not weaken the trap.
#[test]
fn prove_fault_campaign_reports_identically() {
    let campaign = |prove: bool| CampaignConfig {
        fleet: FleetConfig {
            nodes: 10,
            seed: seed(SEED),
            threads: 4,
            prove,
            ..FleetConfig::default()
        },
        victims: 4,
        warmup_rounds: 6,
        after_rounds: 6,
    };
    for protection in [Protection::Umpu, Protection::Sfi] {
        let reference = run_campaign(protection, &campaign(false));
        let prove = run_campaign(protection, &campaign(true));
        assert_eq!(
            reference.to_json(),
            prove.to_json(),
            "{protection:?}: campaign reports diverged under prove"
        );
        assert!(reference.faults_raised > 0, "{protection:?}: campaign exercised faults");
    }
}
