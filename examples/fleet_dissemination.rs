//! The paper's war story at fleet scale: Tree Routing is disseminated over
//! a 20 % lossy radio to a 64-node fleet that already runs the buggy Surge
//! module, and 8 unlucky nodes take a sampling tick *before* Tree Routing
//! arrives — the rare load order that corrupted the real deployment.
//!
//! Under `Protection::None` those 8 nodes silently write 255 bytes past
//! their sample buffer and keep going; under UMPU and SFI the wild store is
//! trapped, the kernel restores a clean trusted context, and once the
//! module arrives the same nodes sample correctly.
//!
//! ```sh
//! cargo run --release --example fleet_dissemination [-- --seed N]
//! ```

use harbor::DomainId;
use harbor_fleet::{Fleet, FleetConfig, ModuleImage, NetConfig};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};

const NODES: usize = 64;
const VICTIMS: usize = 8;
const SURGE_DOM: u8 = 1;
const TREE_DOM: u8 = 3;

fn run_one(protection: Protection, seed: u64) {
    println!("\n─── {protection:?} ───");
    let cfg = FleetConfig {
        nodes: NODES,
        protection,
        seed,
        net: NetConfig { loss: 0.2, ..NetConfig::default() },
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(&cfg, &[modules::surge(SURGE_DOM, TREE_DOM)]).expect("fleet builds");
    let layout = fleet.layout();
    let image = ModuleImage::assemble(&modules::tree_routing(TREE_DOM), &layout, protection)
        .expect("image assembles");
    fleet.disseminate(&image);

    // One round so every Surge instance runs its init (mallocs the sample
    // buffer) — the image is still chunks in the air at this point.
    fleet.step_round();

    // The unlucky ticks: 8 nodes sample before Tree Routing has arrived,
    // so the cross-domain call yields the 0xff error stub return and Surge
    // uses it as a buffer offset.
    for v in 0..VICTIMS {
        fleet.post(v, DomainId::num(SURGE_DOM), MSG_TIMER);
    }
    fleet.step_round();

    let round = fleet.run_until_converged(400).expect("dissemination converges under 20% loss");
    println!("  dissemination converged on all {NODES} nodes by round {round}");

    // After convergence every node can sample correctly.
    fleet.post_all(DomainId::num(SURGE_DOM), MSG_TIMER);
    fleet.step_round();

    let surge_state = layout.state_addr(SURGE_DOM);
    let mut corrupted = 0;
    let mut clean_samples = 0;
    for v in 0..NODES {
        let sys = &fleet.node(v).sys;
        let buf = sys.sram16(surge_state);
        let (wild, counter) = (sys.sram(buf.wrapping_add(0xff)), sys.sram(surge_state + 2));
        if wild != 0 {
            corrupted += 1;
        }
        if counter > 0 {
            clean_samples += 1;
        }
    }
    let t = fleet.telemetry();
    let faults = t.total(harbor_fleet::NodeTelemetry::faults);
    let contained = t.total(harbor_fleet::NodeTelemetry::contained);
    let recoveries = t.total(harbor_fleet::NodeTelemetry::recoveries);
    println!("  faults raised: {faults}  contained: {contained}  recoveries: {recoveries}");
    println!("  nodes with a wild byte 255 past the buffer: {corrupted}/{NODES}");
    println!("  nodes sampling correctly after convergence: {clean_samples}/{NODES}");
    match protection {
        Protection::None => {
            assert_eq!(corrupted, VICTIMS, "every early tick corrupts silently");
            println!("  → {VICTIMS} nodes SILENTLY corrupted; nothing was reported.");
        }
        _ => {
            assert_eq!(corrupted, 0, "protection contains every early tick");
            assert!(contained >= VICTIMS as u64);
            println!("  → every early tick trapped and recovered; fleet state intact.");
        }
    }
}

fn seed_from_args() -> u64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--seed" {
            let v = args.next().expect("--seed needs a value");
            return v.parse().expect("--seed must be a u64");
        }
    }
    42
}

fn main() {
    let seed = seed_from_args();
    println!("Disseminating Tree Routing to {NODES} nodes through 20% packet loss");
    println!("while {VICTIMS} of them hit the Surge bug mid-dissemination (seed {seed}).");
    for p in [Protection::None, Protection::Umpu, Protection::Sfi] {
        run_one(p, seed);
    }
}
