//! `ota_soak`: a long dissemination soak on a mostly idle fleet.
//!
//! 512 UMPU nodes on the library-default engine boot Blink; the base
//! station disseminates a Tree Routing image over a 10%-loss radio, and a
//! Blink timer burst hits every node on rounds ≡ 8 (mod 16). After the
//! image lands (within about ten rounds) nearly every node-step is idle,
//! so round time is per-round fleet overhead — deliver, collect and the
//! worker fan-out — plus the burst and re-advert rounds in the tail. An
//! event-driven fleet core shows its gain here; engine changes barely
//! register.
//!
//! Failures: nodes still without the image at round 600. Checks: every
//! node that installed the image holds exactly its words in flash, and
//! the radio accounts for every packet it was offered.

use crate::fleet_layers::{self, FleetLayers};
use crate::run::{Run, Size};
use harbor::DomainId;
use harbor_fleet::{Fleet, FleetConfig, ModuleImage, NetConfig};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};
use std::time::Instant;

/// 512 nodes; 20,000 rounds (~1 s) per episode, which also bounds how far
/// the per-node logs grow.
pub const SIZE: Size = Size { nodes: 512, ops: 20_000 };

/// Timer bursts land on rounds ≡ `BURST_PHASE` (mod `BURST_PERIOD`),
/// between the seeder's re-adverts (every 16 rounds, on phase 0).
const BURST_PERIOD: u64 = 16;
const BURST_PHASE: u64 = 8;

/// Round by which every node must have installed the image.
const CONVERGE_BY: u64 = 600;

/// Runs the workload.
pub fn run(run: &mut Run, size: Size) {
    let mut layers = FleetLayers::default();
    while let Some(k) = run.next_episode() {
        let traced = run.traced();
        let cfg = FleetConfig {
            nodes: size.nodes,
            protection: Protection::Umpu,
            seed: run.seed.wrapping_add(k),
            net: NetConfig { loss: 0.1, ..NetConfig::default() },
            threads: fleet_layers::THREADS,
            pulse: traced,
            ..FleetConfig::default()
        };
        let (mut fleet, image, id) = run.setup(|| {
            let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("ota_soak fleet builds");
            let image =
                ModuleImage::assemble(&modules::tree_routing(3), &fleet.layout(), cfg.protection)
                    .expect("tree routing assembles");
            let id = fleet.disseminate(&image);
            (fleet, image, id)
        });
        if k == 0 {
            fleet_layers::note_engine(run, &mut fleet);
        }
        let boot = fleet_layers::boot_instructions(&mut fleet);
        let mut converged_at = None;
        let mut missing_at_deadline = None;
        for _ in 0..size.ops {
            if run.expired() {
                break;
            }
            run.op(|| {
                if fleet.round() % BURST_PERIOD == BURST_PHASE {
                    let t = traced.then(Instant::now);
                    fleet.post_all(DomainId::num(0), MSG_TIMER);
                    if let Some(t) = t {
                        layers.inject_ns += t.elapsed().as_nanos() as u64;
                    }
                }
                fleet.step_round();
            });
            if converged_at.is_none() {
                if fleet.converged() {
                    converged_at = Some(fleet.round());
                } else if fleet.round() == CONVERGE_BY {
                    missing_at_deadline = Some(missing(&mut fleet, id));
                }
            }
        }
        run.end_ops();

        match (converged_at, missing_at_deadline) {
            (_, Some(missing)) => {
                run.attempted += size.nodes as u64;
                run.failed += missing;
            }
            (Some(_), None) => run.attempted += size.nodes as u64,
            // Cut short by the budget before the deadline: no verdict.
            (None, None) => {}
        }
        let words = image.words.len() as u32;
        let mut corrupt = 0;
        for i in 0..fleet.len() {
            fleet.with_node(i, |n| {
                if n.has_installed(id) && n.sys.flash_words(image.origin, words) != image.words {
                    corrupt += 1;
                }
            });
        }
        run.check(corrupt == 0, || format!("episode {k}: {corrupt} nodes hold a corrupt image"));
        let (sent, delivered, dropped, in_flight) = fleet.radio_stats();
        run.check(sent == delivered + dropped + in_flight as u64, || {
            format!("episode {k}: radio lost track of packets ({sent} sent, {delivered} delivered, {dropped} dropped, {in_flight} in flight)")
        });
        let tel = fleet.telemetry();
        layers.absorb(&fleet, &tel, boot);
        if k == 0 {
            fleet_layers::record_counts(run, &mut fleet, &tel);
        }
    }
    layers.finish(run);
}

/// Nodes that have not installed image `id`.
fn missing(fleet: &mut Fleet, id: u16) -> u64 {
    (0..fleet.len()).filter(|&i| !fleet.with_node(i, |n| n.has_installed(id))).count() as u64
}
