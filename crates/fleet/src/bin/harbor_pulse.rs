//! `harbor-pulse`: host-side pipeline profiling for the fleet simulator —
//! per-phase wall-clock breakdown, idle-work accounting, worker
//! load-imbalance stats, and Perfetto host-track export on the shared
//! guest-cycle clock.
//!
//! ```sh
//! # Built-in demo: disseminate an image to 512 nodes, quiesce, and print
//! # the per-phase table + idle-fraction timeline (pulse.json and a
//! # merged host+guest Perfetto trace land in target/pulse/).
//! cargo run -p harbor-fleet --bin harbor-pulse
//!
//! # Machine-readable report on stdout; --nodes resizes the fleet (the
//! # idle-work scaling curve in EXPERIMENTS.md is four of these).
//! cargo run -p harbor-fleet --bin harbor-pulse -- --json --nodes 128
//! ```
//!
//! `tests/fleet_pulse.rs` holds the profiler's identities, its timer
//! reconciliation and the ledger's census; this binary's tests observe
//! the quiesced 512-node fleet.

mod cli;

use harbor::DomainId;
use harbor_fleet::{Fleet, FleetConfig, ModuleImage, NetConfig};
use harbor_pulse::PulseReport;
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, ENGINES};
use std::process::ExitCode;

/// Post-quiescence observation window (rounds). Two advert periods, so
/// the window always contains re-advert deliveries — the idle fraction is
/// measured against real (sparse) traffic, not dead air.
const WINDOW: u64 = 32;

/// Convergence deadline for the dissemination scenario.
const MAX_ROUNDS: u64 = 600;

/// Default fleet size.
const NODES: usize = 512;

/// The scenarios' default seed; `HARBOR_SEED` overrides it.
const SEED: u64 = 0x9a15e;

/// The pulse-profiled fleet every scenario runs, on `engine`, a
/// `(turbo, prove)` pair of [`ENGINES`].
fn config(seed: u64, nodes: usize, threads: usize, (turbo, prove): (bool, bool)) -> FleetConfig {
    FleetConfig {
        nodes,
        protection: Protection::Umpu,
        seed,
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads,
        turbo,
        prove,
        pulse: true,
        ..FleetConfig::default()
    }
}

/// The headline scenario: disseminate Tree Routing over a 10%-lossy radio,
/// run to convergence, drain the channel, then observe [`WINDOW`] rounds
/// of steady state (only the seeder's periodic re-adverts arrive).
/// Returns the fleet, its convergence round, the window's first round and
/// the packets the radio delivered during the window.
fn quiesce_scenario(
    seed: u64,
    nodes: usize,
    threads: usize,
    engine: (bool, bool),
) -> (Fleet, u64, u64, u64) {
    let cfg = config(seed, nodes, threads, engine);
    let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("fleet builds");
    let image = ModuleImage::assemble(&modules::tree_routing(3), &fleet.layout(), cfg.protection)
        .expect("image assembles");
    fleet.disseminate(&image);
    let converged_at = fleet.run_until_converged(MAX_ROUNDS).expect("fleet converges");
    // Drain stragglers so the window starts with an empty channel (the
    // seeder's next advert is the only future traffic).
    for _ in 0..64 {
        if fleet.radio_stats().3 == 0 {
            break;
        }
        fleet.step_round();
    }
    assert_eq!(fleet.radio_stats().3, 0, "channel did not drain");
    let (window_start, delivered) = (fleet.round(), fleet.radio_stats().1);
    fleet.run_rounds(WINDOW);
    let delivered = fleet.radio_stats().1 - delivered;
    (fleet, converged_at, window_start, delivered)
}

/// The command line this viewer takes.
const SPEC: cli::Spec = cli::Spec {
    usage: "usage: harbor-pulse [--json] [--nodes N]",
    flags: &["--json"],
    valued: &["--nodes"],
};

fn main() -> ExitCode {
    let cli = SPEC.parse();
    let nodes = match cli.value("--nodes").map(str::parse) {
        None => NODES,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("harbor-pulse: --nodes must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    if cli.flag("--json") {
        let (fleet, ..) = quiesce_scenario(cli::seed(SEED), nodes, 0, ENGINES[0]);
        println!("{}", fleet.pulse_report().expect("pulse attached").to_json());
        ExitCode::SUCCESS
    } else {
        run_demo(cli::seed(SEED), nodes)
    }
}

/// Demo: tables on stdout; report JSON and a merged host+guest Perfetto
/// document on disk.
fn run_demo(seed: u64, nodes: usize) -> ExitCode {
    let cfg = FleetConfig {
        scope: Some(harbor_scope::SinkSpec::Ring(512)),
        ..config(seed, nodes, 0, ENGINES[0])
    };
    let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("fleet builds");
    let image = ModuleImage::assemble(&modules::tree_routing(3), &fleet.layout(), cfg.protection)
        .expect("image assembles");
    fleet.disseminate(&image);
    let converged = fleet.run_until_converged(MAX_ROUNDS).expect("fleet converges");
    // Steady state after convergence, with a burst of host-side timer load
    // every 8th round — the timeline below shows both faces: fully-busy
    // rounds (every node has queued work) and the quiescent rounds between
    // them where only the periodic re-advert interrupts the idling.
    for i in 0..WINDOW {
        if i % 8 == 0 {
            fleet.post_all(DomainId::num(0), MSG_TIMER);
        }
        fleet.step_round();
    }
    let report = fleet.pulse_report().expect("pulse attached");

    println!(
        "── pipeline ({} nodes, {} threads, converged at round {converged}) ──",
        fleet.len(),
        fleet.threads()
    );
    print!("{}", report.render_table());
    println!("\n── idle-work timeline (last 24 rounds) ──");
    let tail = PulseReport {
        timeline: report.timeline[report.timeline.len().saturating_sub(24)..].to_vec(),
        ..report.clone()
    };
    print!("{}", tail.render_timeline());

    let out_dir = std::path::Path::new("target").join("pulse");
    std::fs::create_dir_all(&out_dir).expect("create target/pulse");
    std::fs::write(out_dir.join("pulse.json"), report.to_json()).expect("write report");
    // Interleave the host phase spans with node 0's guest trace: both
    // documents are stamped on the guest-cycle clock (host spans are
    // projected onto the cycle frontier), and host pids start at
    // 1,000,000 so the tracks never collide.
    let host_doc = harbor_pulse::chrome_trace(&report);
    let guest_events = fleet.node(0).sys.scope().map(|s| s.events()).unwrap_or_default();
    let guest_doc = harbor_scope::export::chrome_trace(&guest_events);
    let merged = harbor_scope::export::merge_chrome_traces(&[&host_doc, &guest_doc]);
    std::fs::write(out_dir.join("pulse_trace.json"), merged).expect("write trace");
    println!(
        "\npulse.json and pulse_trace.json (Perfetto, host + node 0 guest tracks) \
         written under {}",
        out_dir.display()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_pulse::LedgerTotals;

    #[test]
    fn takes_its_documented_flags_only() {
        cli::assert_takes_only(&SPEC, &[&[], &["--json", "--nodes", "128"]]);
    }

    /// The quiesced fleet at 512 nodes, at the default seed, on the
    /// reference interpreter and on turbo + prove. Both engines converge
    /// at round 9 and then see 925 re-advert deliveries in a 32-round
    /// window that is 9,435‱ idle, as EXPERIMENTS.md quotes. The ledger
    /// is exact: the only busy node-steps are the nodes with an inbox,
    /// one per delivered packet, with no OTA or queue work; and in every
    /// window round the workers stepped exactly the busy nodes, so no
    /// idle node was stepped.
    #[test]
    fn quiesced_fleet_is_idle_but_for_its_re_advert_deliveries() {
        for engine @ (turbo, prove) in [ENGINES[0], ENGINES[3]] {
            let tag = format!("turbo={turbo} prove={prove}");
            let (fleet, converged_at, window_start, delivered) =
                quiesce_scenario(SEED, NODES, 4, engine);
            let report = fleet.pulse_report().expect("pulse attached");
            let window: Vec<_> =
                report.timeline.iter().filter(|r| r.round >= window_start).collect();
            assert_eq!(window.len(), WINDOW as usize, "{tag}: every window round retained");
            let mut ledger = LedgerTotals::default();
            for r in &window {
                ledger.merge(&r.ledger);
                let stepped: u64 = r.workers.iter().map(|w| w.nodes).sum();
                assert_eq!(stepped, r.ledger.busy, "{tag}: round {} stepped idle nodes", r.round);
            }
            assert_eq!(ledger.inbox, delivered, "{tag}: one busy inbox per delivery");
            assert_eq!((ledger.busy, ledger.ota, ledger.queue), (delivered, 0, 0), "{tag}");
            let pinned = (converged_at, delivered, ledger.idle_per_myriad());
            assert_eq!(pinned, (9, 925, 9_435), "{tag}: convergence, deliveries, idle ‱");
        }
    }
}
