//! `harbor-pulse`: host-side pipeline profiling for the fleet simulator —
//! per-phase wall-clock breakdown, idle-work accounting, worker
//! load-imbalance stats, Perfetto host-track export on the shared
//! guest-cycle clock, and a CI gate.
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
//!
//! # CI invariants.
//! cargo run -p harbor-fleet --bin harbor-pulse -- --check
//! ```
//!
//! `--check` validates the profiler end to end: (1) timer reconciliation —
//! per-phase laps sum to at most the round wall and the unattributed gap
//! stays within tolerance, on every recorded round of every scenario; (2)
//! idle-ledger exactness — on a radio-silent fleet the ledger equals a
//! host-side census of pending work, round by round; (3) the scripted
//! quiescing dissemination at 512 nodes reports ≥ 90% idle over the
//! post-quiescence window, with the ledger's inbox count reconciling
//! exactly against radio deliveries; (2) and (3) also gate the
//! event-driven core — in every census and window round the workers
//! stepped exactly the nodes that had work, so no idle node-step ran at
//! any thread count; (4) pulse is free when disabled and
//! invisible when enabled — serial, parallel, pulse-on and pulse-off runs
//! of one seed produce byte-identical fleet telemetry, and serial and
//! parallel ledgers match byte for byte. Every gate runs twice in one
//! invocation, on the reference interpreter and on turbo + prove, and the
//! two engines must agree on the headline scenario. Exits non-zero on any
//! violation.

mod cli;

use harbor::DomainId;
use harbor_fleet::{Fleet, FleetConfig, ModuleImage, NetConfig};
use harbor_pulse::{LedgerTotals, PulseReport, RoundRecord};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, ENGINES};
use std::process::ExitCode;

/// Post-quiescence observation window (rounds). Two advert periods, so
/// the window always contains re-advert deliveries — the idle fraction is
/// measured against real (sparse) traffic, not dead air.
const WINDOW: u64 = 32;

/// Convergence deadline for the dissemination scenario.
const MAX_ROUNDS: u64 = 600;

/// Node count of the headline scenario (matches the acceptance gate).
const NODES: usize = 512;

/// The fleet every scenario runs, on `engine`, a `(turbo, prove)` pair
/// of [`ENGINES`].
fn config(nodes: usize, threads: usize, pulse: bool, engine: (bool, bool)) -> FleetConfig {
    let (turbo, prove) = engine;
    FleetConfig {
        nodes,
        protection: Protection::Umpu,
        seed: cli::seed(0x9a15e),
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads,
        turbo,
        prove,
        pulse,
        ..FleetConfig::default()
    }
}

/// Facts about one quiescing-dissemination run the checks assert on.
struct Quiesced {
    fleet: Fleet,
    /// Round the fleet converged.
    converged_at: u64,
    /// First round of the post-quiescence window.
    window_start: u64,
    /// `radio delivered` totals at the window's start and end.
    delivered: (u64, u64),
}

/// The headline scenario: disseminate Tree Routing over a 10%-lossy radio,
/// run to convergence, drain the channel, then observe [`WINDOW`] rounds
/// of steady state (only the seeder's periodic re-adverts arrive).
fn quiesce_scenario(nodes: usize, threads: usize, pulse: bool, engine: (bool, bool)) -> Quiesced {
    let cfg = config(nodes, threads, pulse, engine);
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
    let delivered_start = fleet.radio_stats().1;
    let window_start = fleet.round();
    fleet.run_rounds(WINDOW);
    let delivered_end = fleet.radio_stats().1;
    Quiesced { fleet, converged_at, window_start, delivered: (delivered_start, delivered_end) }
}

/// The retained records of the post-quiescence window.
fn window_records(report: &PulseReport, window_start: u64) -> Vec<&RoundRecord> {
    report.timeline.iter().filter(|r| r.round >= window_start).collect()
}

/// Ledger summed over the window records.
fn window_ledger(records: &[&RoundRecord]) -> LedgerTotals {
    let mut total = LedgerTotals::default();
    for r in records {
        total.merge(&r.ledger);
    }
    total
}

fn main() -> ExitCode {
    let cli = cli::Cli::parse();
    let nodes = match cli.value("--nodes") {
        Some(v) => match v.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("harbor-pulse: --nodes must be a positive integer");
                return ExitCode::FAILURE;
            }
        },
        None => {
            if cli.value_missing("--nodes") {
                eprintln!("harbor-pulse: --nodes needs a fleet size");
                return ExitCode::FAILURE;
            }
            NODES
        }
    };
    if cli.flag("--check") {
        run_checks()
    } else if cli.flag("--json") {
        let q = quiesce_scenario(nodes, 0, true, ENGINES[0]);
        println!("{}", q.fleet.pulse_report().expect("pulse attached").to_json());
        ExitCode::SUCCESS
    } else {
        run_demo(nodes)
    }
}

/// Demo: tables on stdout; report JSON and a merged host+guest Perfetto
/// document on disk.
fn run_demo(nodes: usize) -> ExitCode {
    let cfg = FleetConfig {
        scope: Some(harbor_scope::SinkSpec::Ring(512)),
        ..config(nodes, 0, true, ENGINES[0])
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

fn run_checks() -> ExitCode {
    let failures = std::cell::Cell::new(0u32);
    // The reference interpreter and turbo + prove, the first and last of
    // `ENGINES`: profiling must stay observational, and the scenario must
    // play out identically, whichever engine steps the nodes.
    let reference = check_engine(ENGINES[0], &failures);
    let fast = check_engine(ENGINES[3], &failures);
    if fast != reference {
        eprintln!(
            "FAIL: turbo+prove dissemination (converged, idle, deliveries) {fast:?} \
             differs from the reference engine's {reference:?}"
        );
        failures.set(failures.get() + 1);
    }

    if failures.get() == 0 {
        let (converged_at, idle, delivered) = reference;
        println!(
            "harbor-pulse --check: all invariants hold \
             ({NODES} nodes converged at round {converged_at}, window {idle}\u{2031} idle, \
             {delivered} re-advert deliveries reconciled)",
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("harbor-pulse --check: {} failure(s)", failures.get());
        ExitCode::FAILURE
    }
}

/// Every gate on one `(turbo, prove)` engine, counting violations into
/// `failures`. Returns the headline scenario's convergence round, window
/// idle fraction (‱) and re-advert deliveries.
fn check_engine(engine: (bool, bool), failures: &std::cell::Cell<u32>) -> (u64, u64, u64) {
    let tag = format!("turbo={} prove={}", engine.0, engine.1);
    let fail = |msg: String| {
        eprintln!("FAIL: {tag}: {msg}");
        failures.set(failures.get() + 1);
    };

    // ── (2) idle-ledger exactness on a radio-silent fleet ──
    // No seeder, no traffic: a node's pending work before `step_round` is
    // exactly what the ledger must classify (the deliver phase has nothing
    // to add), so a host-side census must match round by round.
    for threads in [1usize, 4] {
        let cfg = config(64, threads, true, engine);
        let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("fleet builds");
        let mut census = Vec::new();
        for round in 0..8u64 {
            if round == 0 || round == 3 {
                fleet.post_all(DomainId::num(0), MSG_TIMER);
            }
            let busy =
                (0..fleet.len()).filter(|&i| fleet.node(i).pending_work().any()).count() as u64;
            census.push(busy);
            fleet.step_round();
        }
        let report = fleet.pulse_report().expect("pulse attached");
        for (r, &expect) in report.timeline.iter().zip(&census) {
            let l = &r.ledger;
            if l.busy != expect || l.queue != expect || l.inbox != 0 || l.ota != 0 {
                fail(format!(
                    "census ({threads} threads) round {}: ledger {} but census counted {expect}",
                    r.round,
                    l.to_json()
                ));
            }
            if let Some(msg) = idle_steps(r) {
                fail(format!("census ({threads} threads) {msg}"));
            }
        }
        if report.ledger.stepped != 8 * 64 {
            fail(format!(
                "census ({threads} threads): {} node-steps recorded, expected {}",
                report.ledger.stepped,
                8 * 64
            ));
        }
        failures.set(failures.get() + reconcile(&format!("{tag}: census"), &report));
    }

    // ── (3) the quiescing dissemination at 512 nodes ──
    let q = quiesce_scenario(NODES, 4, true, engine);
    let report = q.fleet.pulse_report().expect("pulse attached");
    failures.set(failures.get() + reconcile(&format!("{tag}: dissemination"), &report));
    let records = window_records(&report, q.window_start);
    if records.len() != WINDOW as usize {
        fail(format!(
            "window: {} retained records, expected {WINDOW} (timeline ring too small?)",
            records.len()
        ));
    }
    let win = window_ledger(&records);
    if win.idle_per_myriad() < 9_000 {
        fail(format!(
            "post-quiescence window is only {}‱ idle ({}), expected >= 9000‱",
            win.idle_per_myriad(),
            win.to_json()
        ));
    }
    // Exactness of the window's busy accounting: post-quiescence the only
    // traffic is the seeder's broadcast re-advert — at most one packet
    // per node per round — so nodes-with-inbox must equal packets
    // delivered, and nothing else may be pending.
    let delivered = q.delivered.1 - q.delivered.0;
    if win.inbox != delivered {
        fail(format!(
            "window inbox count {} != radio deliveries {delivered} over the window",
            win.inbox
        ));
    }
    if win.ota != 0 || win.queue != 0 || win.busy != win.inbox {
        fail(format!("window has phantom pending work: {}", win.to_json()));
    }
    for msg in records.iter().filter_map(|r| idle_steps(r)) {
        fail(format!("window {msg}"));
    }
    if delivered == 0 {
        fail("window saw no re-advert deliveries; the idle gate proved nothing".to_string());
    }

    // ── (4) identity: pulse is invisible on and free off ──
    let mut on_serial = quiesce_scenario(64, 1, true, engine);
    let mut on_parallel = quiesce_scenario(64, 4, true, engine);
    let mut off_serial = quiesce_scenario(64, 1, false, engine);
    let mut off_parallel = quiesce_scenario(64, 4, false, engine);
    let reference = on_serial.fleet.telemetry().comparable_json();
    for (name, fleet) in [
        ("pulse-on parallel", &mut on_parallel.fleet),
        ("pulse-off serial", &mut off_serial.fleet),
        ("pulse-off parallel", &mut off_parallel.fleet),
    ] {
        if fleet.telemetry().comparable_json() != reference {
            fail(format!("{name} telemetry differs from the pulse-on serial reference"));
        }
    }
    if off_serial.fleet.pulse_report().is_some() {
        fail("pulse-off fleet served a pulse report".to_string());
    }
    if on_serial.converged_at != off_serial.converged_at {
        fail("pulse changed the convergence round".to_string());
    }
    let serial_report = on_serial.fleet.pulse_report().expect("pulse attached");
    let parallel_report = on_parallel.fleet.pulse_report().expect("pulse attached");
    if serial_report.ledger_json() != parallel_report.ledger_json() {
        fail(format!(
            "serial and parallel ledgers differ: {} vs {}",
            serial_report.ledger_json(),
            parallel_report.ledger_json()
        ));
    }
    // The per-round ledgers must agree too, not just the totals.
    for (s, p) in serial_report.timeline.iter().zip(&parallel_report.timeline) {
        if s.ledger != p.ledger {
            fail(format!(
                "round {}: serial ledger {} != parallel ledger {}",
                s.round,
                s.ledger.to_json(),
                p.ledger.to_json()
            ));
        }
    }
    failures.set(failures.get() + reconcile(&format!("{tag}: identity serial"), &serial_report));
    failures
        .set(failures.get() + reconcile(&format!("{tag}: identity parallel"), &parallel_report));
    (q.converged_at, win.idle_per_myriad(), delivered)
}

/// The event-driven core's promise for one round: its workers stepped
/// exactly the nodes that had pending work. `None` when it holds.
fn idle_steps(r: &RoundRecord) -> Option<String> {
    let stepped: u64 = r.workers.iter().map(|w| w.nodes).sum();
    (stepped != r.ledger.busy).then(|| {
        format!("round {}: {stepped} nodes stepped but {} had work", r.round, r.ledger.busy)
    })
}

/// (1) Timer reconciliation on one report; returns the violation count.
fn reconcile(name: &str, report: &PulseReport) -> u32 {
    let bad = report.reconcile();
    for msg in &bad {
        eprintln!("FAIL: {name}: {msg}");
    }
    bad.len() as u32
}
