//! Over-the-air dissemination must be indistinguishable from a local load:
//! a module shipped in chunks through a lossy radio and reassembled on N
//! nodes yields bit-identical flash, jump-table and memory-map state to the
//! same module loaded directly via `SosSystem::load_module`. The fleets run
//! every engine of [`ENGINES`]; the directly loaded system runs the
//! reference interpreter.

mod common;

use common::seed;
use harbor::DomainId;
use harbor_fleet::{Fleet, FleetConfig, ModuleImage, NetConfig};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, SosSystem, ENGINES};

const NODES: usize = 5;
const TREE_DOM: u8 = 3;

/// Default seed; `HARBOR_SEED` overrides it.
const SEED: u64 = 0x5eed;

/// A directly-loaded reference system with the same module set and the same
/// amount of scheduling as a converged fleet node.
fn reference(protection: Protection) -> SosSystem {
    let mut sys = SosSystem::build(protection, &[modules::surge(1, TREE_DOM)], |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .expect("reference builds");
    sys.boot().expect("reference boots");
    sys.run_slice(1_000_000).expect("surge init");
    sys.load_module(&modules::tree_routing(TREE_DOM)).expect("direct load");
    sys.run_slice(1_000_000).expect("tree init");
    sys
}

#[test]
fn disseminated_module_is_bit_identical_to_direct_load() {
    for (turbo, prove) in ENGINES {
        for protection in [Protection::None, Protection::Umpu, Protection::Sfi] {
            let on = format!("{protection:?} turbo={turbo} prove={prove}");
            let cfg = FleetConfig {
                nodes: NODES,
                protection,
                seed: seed(SEED),
                net: NetConfig { loss: 0.25, ..NetConfig::default() },
                threads: 4, // exercise the real parallel step path
                turbo,
                prove,
                ..FleetConfig::default()
            };
            let mut fleet = Fleet::new(&cfg, &[modules::surge(1, TREE_DOM)]).expect("fleet builds");
            let layout = fleet.layout();
            let image =
                ModuleImage::assemble(&modules::tree_routing(TREE_DOM), &layout, protection)
                    .expect("image assembles");
            fleet.disseminate(&image);
            fleet.run_until_converged(400).expect("converges under 25% loss");
            // Two more rounds so every node processes the post-install init
            // message (the reference ran its scheduler after loading too).
            fleet.run_rounds(2);

            let slot = layout.slot_for(TREE_DOM);
            let words = image.words.len() as u32;
            let reference = reference(protection);
            let ref_flash = reference.flash_words(slot, words);
            let ref_jt = reference.jt_page_words(TREE_DOM);
            let ref_map = reference.memory_map_bytes();
            let tree_state = layout.state_addr(TREE_DOM);

            for v in 0..NODES {
                let node = fleet.node(v);
                assert!(node.has_installed(1), "{on}: node {v} installed");
                assert_eq!(
                    node.sys.flash_words(slot, words),
                    ref_flash,
                    "{on}: node {v} flash slot"
                );
                assert_eq!(node.sys.jt_page_words(TREE_DOM), ref_jt, "{on}: node {v} jump table");
                assert_eq!(node.sys.memory_map_bytes(), ref_map, "{on}: node {v} memory map");
                // And the module actually ran: init marked the state.
                let state = reference.sram(tree_state);
                assert_eq!(node.sys.sram(tree_state), state, "{on}: node {v} tree state");
                assert_eq!(node.sys.sram(tree_state + 1), 1, "{on}: node {v} init ran");
            }
        }
    }
}

#[test]
fn load_policy_quarantines_over_budget_module_on_every_node() {
    // A 6-byte allotment admits nothing (the inbound cross-domain frame
    // alone is 5 bytes and every entry adds a 2-byte save-ret frame): the
    // disseminated image must complete reassembly on every node and then
    // be quarantined by the admission gate — never burned into flash.
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let cfg = FleetConfig {
            nodes: NODES,
            protection: Protection::Sfi,
            seed: seed(SEED),
            threads: 4,
            load_policy: Some(mini_sos::LoadPolicy::with_allotment(6)),
            turbo,
            prove,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(&cfg, &[modules::surge(1, TREE_DOM)]).expect("fleet builds");
        let layout = fleet.layout();
        let image =
            ModuleImage::assemble(&modules::tree_routing(TREE_DOM), &layout, Protection::Sfi)
                .expect("image assembles");
        let id = fleet.disseminate(&image);
        fleet.run_rounds(200);

        assert!(!fleet.converged(), "{engine}: a quarantined image never converges");
        let slot = layout.slot_for(TREE_DOM);
        for v in 0..NODES {
            let node = fleet.node(v);
            assert!(node.has_quarantined(id), "{engine}: node {v} quarantined the image");
            assert!(!node.has_installed(id), "{engine}: node {v} must not install it");
            assert_eq!(
                node.telemetry().quarantined(),
                1,
                "{engine}: node {v} counted one quarantine"
            );
            assert!(
                node.sys.modules.iter().all(|m| m.domain != DomainId::num(TREE_DOM)),
                "{engine}: node {v}: nothing occupies the target domain"
            );
            // The flash slot was never written (still erased).
            assert!(
                node.sys.flash_words(slot, image.words.len() as u32).iter().all(|&w| w == 0xffff),
                "{engine}: node {v}: flash slot untouched"
            );
        }

        // The same image under a generous policy converges normally — the
        // gate itself does not disturb dissemination.
        let cfg =
            FleetConfig { load_policy: Some(mini_sos::LoadPolicy::with_allotment(128)), ..cfg };
        let mut fleet = Fleet::new(&cfg, &[modules::surge(1, TREE_DOM)]).expect("fleet builds");
        let id = fleet.disseminate(&image);
        fleet.run_until_converged(400).expect("gated fleet still converges");
        for v in 0..NODES {
            let node = fleet.node(v);
            assert!(node.has_installed(id), "{engine}: node {v} installed under the roomy policy");
            assert_eq!(node.telemetry().quarantined(), 0, "{engine}: node {v}: no quarantines");
        }
    }
}

#[test]
fn fleet_runs_are_reproducible_from_the_seed_across_schedules() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let run = |threads: usize| {
            let cfg = FleetConfig {
                nodes: 12,
                protection: Protection::Umpu,
                seed: seed(SEED),
                net: NetConfig { loss: 0.3, latency_min: 1, latency_max: 3 },
                threads,
                turbo,
                prove,
                ..FleetConfig::default()
            };
            let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("fleet builds");
            let image = ModuleImage::assemble(
                &modules::tree_routing(TREE_DOM),
                &fleet.layout(),
                cfg.protection,
            )
            .expect("image assembles");
            fleet.disseminate(&image);
            for _ in 0..30 {
                fleet.post_all(DomainId::num(0), MSG_TIMER);
                fleet.step_round();
            }
            fleet.telemetry().comparable_json()
        };
        let serial = run(1);
        assert_eq!(serial, run(1), "{engine}: same seed, same schedule");
        assert_eq!(serial, run(4), "{engine}: serial and parallel runs must be byte-identical");
        assert_eq!(serial, run(8), "{engine}: worker count must not leak into results");
    }
}
