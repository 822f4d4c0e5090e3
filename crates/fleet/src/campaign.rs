//! Fleet-scale fault-injection campaigns.
//!
//! The paper's deployment story is statistical: one buggy module, many
//! nodes, and a network that degrades as corruption spreads. A campaign
//! reproduces that at fleet scale — every node runs a healthy workload
//! (Blink + Tree Routing), a seeded subset of nodes gets a rogue module
//! whose timer handler performs a wild write into Tree Routing's state, and
//! the report counts, per protection build, how many victims were contained
//! (state intact, fault trapped), how many were silently corrupted, and how
//! many kept operating afterwards.

use crate::fleet::{BlackboxConfig, Fleet, FleetConfig};
use crate::telemetry::FleetTelemetry;
use avr_core::isa::Reg;
use harbor::DomainId;
use harbor_blackbox::Alert;
use mini_sos::kernel::MSG_TIMER;
use mini_sos::loader::ModuleSource;
use mini_sos::{modules, Protection};
use rand::{Rng, SeedableRng, StdRng};
use std::collections::BTreeSet;

/// Domain the rogue module is injected into.
const ROGUE_DOM: u8 = 2;

/// Domain running Tree Routing (the victim state the rogue clobbers).
const TREE_DOM: u8 = 3;

/// Domain running Blink (the liveness probe).
const BLINK_DOM: u8 = 0;

/// The byte the rogue writes — recognizably wrong for Tree Routing's
/// parent field.
const POISON: u8 = 0xee;

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Fleet shape (node count, seed, radio, threads). The campaign
    /// overrides the protection per run.
    pub fleet: FleetConfig,
    /// Number of nodes to inject the rogue module into.
    pub victims: usize,
    /// Healthy rounds before injection.
    pub warmup_rounds: u64,
    /// Rounds after injection (the strike lands in the first of these).
    pub after_rounds: u64,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            fleet: FleetConfig::default(),
            victims: 8,
            warmup_rounds: 8,
            after_rounds: 8,
        }
    }
}

/// What one campaign run observed.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Protection build, as a string (`"None"`, `"Umpu"`, `"Sfi"`).
    pub protection: String,
    /// Fleet size.
    pub nodes: usize,
    /// Victims injected.
    pub injected: usize,
    /// Faults raised fleet-wide (protected builds trap the wild write).
    pub faults_raised: u64,
    /// Victims whose Tree Routing state stayed intact.
    pub contained: usize,
    /// Victims whose Tree Routing state was silently clobbered.
    pub corrupted: usize,
    /// Victims whose Blink workload kept advancing after the strike.
    pub recovered: usize,
    /// Non-victim nodes whose Tree Routing state ended up corrupted
    /// (must stay zero: the radio carries messages, not memory).
    pub bystanders_corrupted: usize,
    /// Postmortem dumps the per-node flight recorders froze (campaigns
    /// always run with the blackbox enabled).
    pub dumps_captured: usize,
    /// Watchdog alerts raised during the run, in node-id order.
    pub alerts: Vec<Alert>,
    /// Full fleet counters at the end of the run.
    pub telemetry: FleetTelemetry,
}

impl CampaignReport {
    /// One-word health verdict from the online watchdogs: `"healthy"` when
    /// no detector tripped, `"degraded"` otherwise.
    pub fn health(&self) -> &'static str {
        if self.alerts.is_empty() {
            "healthy"
        } else {
            "degraded"
        }
    }
    /// Fraction of victims contained (1.0 when nothing was injected).
    pub fn containment_rate(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.contained as f64 / self.injected as f64
        }
    }

    /// Deterministic JSON summary (fleet telemetry nested).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"protection\":\"{}\",\"nodes\":{},\"injected\":{},\
             \"faults_raised\":{},\"contained\":{},\"corrupted\":{},\
             \"recovered\":{},\"bystanders_corrupted\":{},\
             \"dumps_captured\":{},\"alerts_raised\":{},\"health\":\"{}\",\
             \"telemetry\":{}}}",
            self.protection,
            self.nodes,
            self.injected,
            self.faults_raised,
            self.contained,
            self.corrupted,
            self.recovered,
            self.bystanders_corrupted,
            self.dumps_captured,
            self.alerts.len(),
            self.health(),
            self.telemetry.to_json(),
        )
    }
}

/// The injected malware: a module whose timer handler stores [`POISON`] at
/// `target` — the same wild-write shape as the repo's fault-injection
/// matrix, here aimed at Tree Routing's live state.
fn rogue(target: u16) -> ModuleSource {
    ModuleSource {
        name: "rogue",
        domain: DomainId::num(ROGUE_DOM),
        entries: vec!["rogue_handler"],
        build: Box::new(move |a, _ctx| {
            let done = a.label("rogue_done");
            a.here("rogue_handler");
            a.cpi(Reg::R24, MSG_TIMER);
            a.brne(done);
            a.ldi(Reg::R16, POISON);
            a.sts(target, Reg::R16);
            a.bind(done);
            a.ret();
        }),
    }
}

/// Runs one campaign under `protection`.
///
/// # Panics
///
/// Panics if the fleet cannot be built (static module set — a programming
/// error, not an input condition).
pub fn run_campaign(protection: Protection, cfg: &CampaignConfig) -> CampaignReport {
    let mut fleet_cfg = cfg.fleet;
    fleet_cfg.protection = protection;
    // Campaigns always fly with the blackbox: every fault a victim raises
    // freezes a postmortem, and the watchdogs feed the health verdict.
    fleet_cfg.blackbox.get_or_insert_with(BlackboxConfig::default);
    let mut fleet =
        Fleet::new(&fleet_cfg, &[modules::blink(BLINK_DOM), modules::tree_routing(TREE_DOM)])
            .expect("campaign fleet builds");

    let blink_state = fleet.layout().state_addr(BLINK_DOM);
    let tree_state = fleet.layout().state_addr(TREE_DOM);

    // Healthy warm-up: every node samples on a timer each round.
    for _ in 0..cfg.warmup_rounds {
        fleet.post_all(DomainId::num(BLINK_DOM), MSG_TIMER);
        fleet.step_round();
    }

    // Seeded victim pick — distinct nodes, order-independent.
    let mut rng = StdRng::seed_from_u64(fleet_cfg.seed ^ 0x6361_6d70_6169_676e); // "campaign"
    let wanted = cfg.victims.min(fleet.len());
    let mut victims = BTreeSet::new();
    while victims.len() < wanted {
        victims.insert(rng.gen_range(0..fleet.len()));
    }

    // Inject: hot-load the rogue and arm its timer. Its wild write fires in
    // the first post-injection round.
    let rogue_src = |_: usize| rogue(tree_state);
    let mut blink_before = Vec::new();
    for &v in &victims {
        fleet.with_node(v, |node| {
            node.sys.load_module(&rogue_src(v)).expect("rogue loads");
            node.post(DomainId::num(ROGUE_DOM), MSG_TIMER);
        });
        blink_before.push(fleet.node(v).sys.sram(blink_state));
    }

    // Aftermath: keep the healthy workload running.
    for _ in 0..cfg.after_rounds {
        fleet.post_all(DomainId::num(BLINK_DOM), MSG_TIMER);
        fleet.step_round();
    }

    // Score.
    let mut contained = 0;
    let mut corrupted = 0;
    let mut recovered = 0;
    for (i, &v) in victims.iter().enumerate() {
        let node = fleet.node(v);
        let (tree, blink) = (node.sys.sram(tree_state), node.sys.sram(blink_state));
        if tree == POISON {
            corrupted += 1;
        } else {
            contained += 1;
        }
        if blink.wrapping_sub(blink_before[i]) > 0 {
            recovered += 1;
        }
    }
    let mut bystanders_corrupted = 0;
    for n in 0..fleet.len() {
        if !victims.contains(&n) && fleet.node(n).sys.sram(tree_state) == POISON {
            bystanders_corrupted += 1;
        }
    }

    let dumps_captured = fleet.dumps().len();
    let alerts = fleet.alerts();
    let telemetry = fleet.telemetry();
    CampaignReport {
        protection: format!("{protection:?}"),
        nodes: fleet.len(),
        injected: victims.len(),
        faults_raised: telemetry.total(crate::NodeTelemetry::faults),
        contained,
        corrupted,
        recovered,
        bystanders_corrupted,
        dumps_captured,
        alerts,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use mini_sos::ENGINES;

    /// A 10-node campaign under `protection` on one `(turbo, prove)`
    /// engine of [`ENGINES`].
    fn small(protection: Protection, (turbo, prove): (bool, bool)) -> CampaignReport {
        let fleet = FleetConfig { nodes: 10, seed: 11, threads: 1, ..FleetConfig::default() };
        let cfg = CampaignConfig {
            fleet: FleetConfig { turbo, prove, ..fleet },
            victims: 4,
            warmup_rounds: 3,
            after_rounds: 4,
        };
        run_campaign(protection, &cfg)
    }

    #[test]
    fn protected_builds_contain_every_victim() {
        for engine @ (turbo, prove) in ENGINES {
            for p in [Protection::Umpu, Protection::Sfi] {
                let on = format!("{p:?} turbo={turbo} prove={prove}");
                let r = small(p, engine);
                assert_eq!(r.injected, 4, "{on}");
                assert_eq!(r.contained, r.injected, "{on}: {r:?}");
                assert_eq!(r.corrupted, 0, "{on}");
                assert_eq!(r.recovered, r.injected, "{on}: nodes keep running");
                assert!(r.faults_raised >= r.injected as u64, "{on}");
                assert_eq!(r.bystanders_corrupted, 0, "{on}");
                assert!((r.containment_rate() - 1.0).abs() < f64::EPSILON, "{on}");
                // Every victim's fault froze a postmortem dump.
                assert!(r.dumps_captured >= r.injected, "{on}: {r:?}");
                assert!(r.to_json().contains("\"dumps_captured\""), "{on}");
            }
        }
    }

    #[test]
    fn unprotected_build_is_silently_corrupted() {
        for engine @ (turbo, prove) in ENGINES {
            let on = format!("turbo={turbo} prove={prove}");
            let r = small(Protection::None, engine);
            assert_eq!(r.corrupted, r.injected, "{on}: {r:?}");
            assert_eq!(r.contained, 0, "{on}");
            assert_eq!(r.faults_raised, 0, "{on}: no trap fires without protection");
            assert_eq!(r.bystanders_corrupted, 0, "{on}");
            // Silent corruption is the whole point: no fault, no dump, and the
            // watchdogs see nothing wrong.
            assert_eq!(r.dumps_captured, 0, "{on}");
            assert_eq!(r.health(), "healthy", "{on}");
        }
    }
}
