//! The canonical two-campaign scenario: one fleet promotes a healthy
//! image through the canary ladder, then condemns a crash-looping one.
//! The `harbor-helm` viewer renders it, and the fleet suites pin its
//! decision logs, flash state and renderings at their own fleet sizes.

use harbor::DomainId;
use harbor_fleet::{Fleet, FleetConfig, ModuleImage};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::loader::ModuleSource;
use mini_sos::modules;

use crate::controller::Helm;
use crate::drive::HelmRun;
use crate::plan::PlanConfig;

/// Domain of the healthy image: Surge with its Tree Routing dependency
/// present in domain 1.
pub const GOOD_DOM: u8 = 3;

/// Domain of the crash-looping image: Surge pointed at an empty domain,
/// so every timer tick faults.
pub const BAD_DOM: u8 = 4;

/// Rounds stepped before the first admission, so the counter baselines
/// capture the boot installs.
pub const WARMUP: u64 = 4;

/// Round budget of each campaign.
pub const MAX_CAMPAIGN_ROUNDS: u64 = 240;

/// What [`two_campaigns`] leaves behind.
pub struct TwoCampaigns {
    /// The fleet, with the crash-looper's controller attached.
    pub run: HelmRun,
    /// The healthy campaign's controller, as its verdict left it.
    pub good: Helm,
}

impl TwoCampaigns {
    /// The crash-looper's controller.
    pub fn bad(&self) -> &Helm {
        self.run.helm().expect("the crash-looper was admitted")
    }
}

/// Runs the scenario on a fleet built from `cfg`, with Blink in domain 0
/// and Tree Routing in domain 1:
///
/// 1. [`WARMUP`] rounds of Blink ticks;
/// 2. a healthy `surge_fixed` in [`GOOD_DOM`], admitted on the
///    [`PlanConfig::ladder`] of the fleet's cohorts and driven to its
///    verdict (`Done`);
/// 3. `between`, with the run as the healthy campaign left it;
/// 4. a crash-looping `surge` in [`BAD_DOM`], admitted the same way and
///    driven to its verdict (`RolledBack`).
///
/// Every round Blink ticks on every node, and every node that installed a
/// campaign image ticks it too. `after_round` sees the run after every
/// campaign round. A campaign without a verdict stops after
/// [`MAX_CAMPAIGN_ROUNDS`].
///
/// # Panics
///
/// Panics if the fleet does not build or an image does not admit; the
/// crash-looper is refused while the healthy campaign is still live.
pub fn two_campaigns(
    cfg: &FleetConfig,
    mut after_round: impl FnMut(&HelmRun),
    between: impl FnOnce(&mut HelmRun),
) -> TwoCampaigns {
    let fleet =
        Fleet::new(cfg, &[modules::blink(0), modules::tree_routing(1)]).expect("fleet builds");
    let mut run = HelmRun::new(fleet);
    for _ in 0..WARMUP {
        tick(run.fleet_mut(), &[]);
        run.step_round();
    }
    let mut live = vec![(admit(&mut run, &modules::surge_fixed(GOOD_DOM, 1)), GOOD_DOM)];
    run.run_to_verdict(MAX_CAMPAIGN_ROUNDS, |fleet| tick(fleet, &live), &mut after_round);
    let good = run.helm().expect("campaign admitted").clone();
    between(&mut run);
    live.push((admit(&mut run, &modules::surge(BAD_DOM, 2)), BAD_DOM));
    run.run_to_verdict(MAX_CAMPAIGN_ROUNDS, |fleet| tick(fleet, &live), &mut after_round);
    TwoCampaigns { run, good }
}

/// Assembles `src` for the fleet and admits it on the full canary ladder.
fn admit(run: &mut HelmRun, src: &ModuleSource) -> u16 {
    let fleet = run.fleet();
    let image =
        ModuleImage::assemble(src, &fleet.layout(), fleet.protection()).expect("image assembles");
    let ladder = PlanConfig::ladder(fleet.cohorts());
    run.admit(&image, ladder).expect("image admits")
}

/// One round's workload: Blink ticks everywhere, and every node that
/// installed a `live` image `(id, domain)` ticks it too.
fn tick(fleet: &mut Fleet, live: &[(u16, u8)]) {
    fleet.post_all(DomainId::num(0), MSG_TIMER);
    for i in 0..fleet.len() {
        for &(id, dom) in live {
            if fleet.node(i).has_installed(id) {
                fleet.post(i, DomainId::num(dom), MSG_TIMER);
            }
        }
    }
}
