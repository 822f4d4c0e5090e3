//! `harbor-tower`: the fleet-telemetry query surface — per-cohort
//! fault-rate tables, health scores, top-K unhealthy nodes, dump lookup
//! with causal-trace retrieval, JSON + Perfetto export, and a CI gate.
//!
//! ```sh
//! # Built-in demo: a cohorted fleet with one crash-looping cohort;
//! # prints the tables and writes rollup.json + tower_trace.json under
//! # target/tower/.
//! cargo run -p harbor-fleet --bin harbor-tower
//!
//! # Machine-readable rollup on stdout.
//! cargo run -p harbor-fleet --bin harbor-tower -- --json
//!
//! # Postmortem + causal context for one dump id from the demo fleet.
//! cargo run -p harbor-fleet --bin harbor-tower -- --trace n2-r9-c257121
//!
//! # CI invariants.
//! cargo run -p harbor-fleet --bin harbor-tower -- --check
//! ```
//!
//! `--check` validates the pipeline end to end: (1) serial and parallel
//! stepping produce byte-identical rollups; (2) every rollup counter
//! reconciles *exactly* against the sum of the nodes' counter tables (no
//! sampling, no loss); (3) turbo execution changes nothing and prove
//! changes exactly the `stores_elided` counter; (4) a seeded 512-node
//! crash-loop campaign flags the faulted cohort — and only that cohort —
//! as unhealthy, with the offender list, dump index and causal retrieval
//! all agreeing. Exits non-zero on any violation.

mod cli;

use harbor::DomainId;
use harbor_blackbox::reconstruct;
use harbor_fleet::{
    BlackboxConfig, Fleet, FleetConfig, FleetRollup, ModuleImage, NetConfig, TowerConfig,
};
use harbor_tower::{chrome_trace, query, CounterSet};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};
use std::process::ExitCode;

/// Cohorts in both scenarios; the crash loop lands on [`BAD_COHORT`].
const COHORTS: u32 = 8;

/// The cohort whose members get the faulting workload.
const BAD_COHORT: u32 = 2;

/// Round the crash loop starts.
const LOOP_START: u64 = 8;

/// Rounds of the identity scenario (small) and the campaign (512 nodes).
const ROUNDS: u64 = 28;

/// Surge (without Tree Routing, so its timer handler faults) lives here.
const SURGE_DOM: u8 = 3;

/// A cohorted fleet with the blackbox and tower attached: Blink ticks on
/// every node, the bad cohort's Surge timer crash-loops from
/// [`LOOP_START`], and (when `disseminate` is set) Tree Routing is pushed
/// over the radio mid-run to exercise the install/lifecycle counters.
fn run_scenario(
    nodes: usize,
    threads: usize,
    turbo: bool,
    prove: bool,
    disseminate: bool,
) -> Fleet {
    let cfg = FleetConfig {
        nodes,
        protection: Protection::Umpu,
        seed: cli::seed(0x70_3e_12),
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads,
        blackbox: Some(BlackboxConfig::default()),
        turbo,
        prove,
        cohorts: COHORTS,
        tower: Some(TowerConfig::default()),
        ..FleetConfig::default()
    };
    let mut fleet =
        Fleet::new(&cfg, &[modules::blink(0), modules::surge(SURGE_DOM, 2)]).expect("fleet builds");
    let image = disseminate.then(|| {
        ModuleImage::assemble(&modules::tree_routing(5), &fleet.layout(), cfg.protection)
            .expect("image assembles")
    });
    for round in 0..ROUNDS {
        fleet.post_all(DomainId::num(0), MSG_TIMER);
        if round >= LOOP_START {
            for victim in (BAD_COHORT as usize..nodes).step_by(COHORTS as usize) {
                fleet.post(victim, DomainId::num(SURGE_DOM), MSG_TIMER);
            }
        }
        if round == 4 {
            if let Some(image) = &image {
                fleet.disseminate(image);
            }
        }
        fleet.step_round();
    }
    fleet
}

fn main() -> ExitCode {
    let cli = cli::Cli::parse();
    if cli.flag("--check") {
        run_checks()
    } else if cli.flag("--json") {
        let mut fleet = run_scenario(64, 0, false, false, true);
        println!("{}", fleet.tower_rollup().expect("tower attached").to_json());
        ExitCode::SUCCESS
    } else if cli.flag("--trace") {
        let Some(id) = cli.value("--trace") else {
            eprintln!("harbor-tower: --trace needs a dump id (n<node>-r<round>-c<cycles>)");
            return ExitCode::FAILURE;
        };
        run_trace(id)
    } else {
        run_demo()
    }
}

/// Demo: tables on stdout, rollup JSON + Perfetto timeline on disk.
fn run_demo() -> ExitCode {
    let mut fleet = run_scenario(64, 0, false, false, true);
    let rollup = fleet.tower_rollup().expect("tower attached");
    println!("── cohorts ──");
    print!("{}", query::cohort_table(&rollup));
    println!("\n── top offenders ──");
    print!("{}", query::top_nodes_table(&rollup));
    println!("\n── dumps (query any id with --trace) ──");
    print!("{}", query::dump_table(&rollup));
    let out_dir = std::path::Path::new("target").join("tower");
    std::fs::create_dir_all(&out_dir).expect("create target/tower");
    std::fs::write(out_dir.join("rollup.json"), rollup.to_json()).expect("write rollup");
    std::fs::write(out_dir.join("tower_trace.json"), chrome_trace(&rollup)).expect("write trace");
    println!("\nrollup.json and tower_trace.json (Perfetto) written under {}", out_dir.display());
    ExitCode::SUCCESS
}

/// Dump-id query: the indexed reference, the reconstructed postmortem
/// timeline, and the node's causal-log context around the fault.
fn run_trace(id: &str) -> ExitCode {
    let mut fleet = run_scenario(64, 0, false, false, true);
    let rollup = fleet.tower_rollup().expect("tower attached");
    let Some(dump_ref) = rollup.find_dump(id) else {
        eprintln!("harbor-tower: no dump {id}; known ids:");
        for d in &rollup.dumps {
            eprintln!("  {}", d.id);
        }
        return ExitCode::FAILURE;
    };
    println!("{}", dump_ref.to_json());
    let dumps = fleet.dumps();
    let dump = dumps
        .iter()
        .find(|d| d.node == dump_ref.node && d.fault.cycles == dump_ref.cycles)
        .expect("indexed dump exists");
    println!("timeline:");
    print!("{}", reconstruct(dump).render());
    println!(
        "causal context (node {}, rounds {}..={}):",
        dump.node,
        dump.round.saturating_sub(2),
        dump.round
    );
    for log in fleet.causal_logs() {
        if log.node != dump.node {
            continue;
        }
        for rec in &log.records {
            if rec.round + 2 >= dump.round && rec.round <= dump.round {
                println!(
                    "  lamport {:>4} round {:>3} {:?} peer {} [{}]",
                    rec.lamport, rec.round, rec.kind, rec.peer, rec.label
                );
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_checks() -> ExitCode {
    let failures = std::cell::Cell::new(0u32);
    let fail = |msg: String| {
        eprintln!("FAIL: {msg}");
        failures.set(failures.get() + 1);
    };

    // ── identity legs (small fleet, dissemination included) ──
    let mut serial = run_scenario(24, 1, false, false, true);
    let reference = serial.tower_rollup().expect("tower attached").to_json();

    let parallel = run_scenario(24, 4, false, false, true).tower_rollup().unwrap().to_json();
    if parallel != reference {
        fail("serial and parallel rollups differ".to_string());
    }
    let turbo = run_scenario(24, 4, true, false, true).tower_rollup().unwrap().to_json();
    if turbo != reference {
        fail("turbo rollup differs from the reference".to_string());
    }

    // Prove changes exactly one counter: stores_elided. Everything else —
    // cycles, faults, radio traffic, dump ids — must match the reference
    // field for field.
    let mut prove_fleet = run_scenario(24, 4, false, true, true);
    let prove_rollup = prove_fleet.tower_rollup().unwrap();
    let ref_rollup = serial.tower_rollup().unwrap();
    let (ref_totals, prove_totals) = (ref_rollup.totals(), prove_rollup.totals());
    for (name, (r, p)) in
        CounterSet::FIELDS.iter().zip(ref_totals.values().into_iter().zip(prove_totals.values()))
    {
        let agree = if *name == "stores_elided" { p > r } else { p == r };
        if !agree {
            fail(format!("prove leg: {name} diverged (reference {r}, prove {p})"));
        }
    }
    let elided_metric = prove_fleet.telemetry().total(|n| n.metrics.counter("umpu.stores_elided"));
    let elided_sys: u64 =
        (0..prove_fleet.len()).map(|i| prove_fleet.node(i).sys.stores_elided()).sum();
    if prove_totals.stores_elided != elided_metric || elided_metric != elided_sys {
        fail(format!(
            "stores_elided disagrees: rollup {} metric {elided_metric} env {elided_sys}",
            prove_totals.stores_elided
        ));
    }

    // ── exact reconciliation against the nodes' counter tables ──
    failures.set(failures.get() + reconcile(&mut serial, &ref_rollup));

    // ── the 512-node crash-loop campaign ──
    let mut campaign = run_scenario(512, 4, false, false, false);
    let rollup = campaign.tower_rollup().expect("tower attached");
    let campaign_serial =
        run_scenario(512, 1, false, false, false).tower_rollup().unwrap().to_json();
    if rollup.to_json() != campaign_serial {
        fail("512-node campaign: serial and parallel rollups differ".to_string());
    }
    if rollup.unhealthy() != vec![BAD_COHORT] {
        fail(format!(
            "campaign flagged cohorts {:?}, expected exactly [{BAD_COHORT}]",
            rollup.unhealthy()
        ));
    }
    let bad_health = rollup.health.iter().find(|h| h.cohort == BAD_COHORT).expect("cohort scored");
    if bad_health.regressed_at.is_none_or(|w| w < LOOP_START) {
        fail(format!(
            "regression edge at {:?}, expected at or after round {LOOP_START}",
            bad_health.regressed_at
        ));
    }
    if rollup.top_nodes.is_empty() {
        fail("campaign produced no top offenders".to_string());
    }
    for n in &rollup.top_nodes {
        if n.cohort != BAD_COHORT {
            fail(format!("offender node {} is in cohort {}, not {BAD_COHORT}", n.node, n.cohort));
        }
    }
    if rollup.dumps.is_empty() {
        fail("campaign indexed no dumps".to_string());
    }
    let frozen = campaign.dumps();
    for d in &rollup.dumps {
        if rollup.find_dump(&d.id).is_none() {
            fail(format!("dump {} not findable by its own id", d.id));
        }
        // Causal retrieval: every indexed dump resolves back to a frozen
        // postmortem whose reconstructed timeline ends at the fault.
        match frozen.iter().find(|f| f.node == d.node && f.fault.cycles == d.cycles) {
            None => fail(format!("dump {} has no frozen postmortem", d.id)),
            Some(f) => {
                if !reconstruct(f).ends_at_fault(f) {
                    fail(format!("dump {}: timeline does not end at the fault", d.id));
                }
            }
        }
    }
    failures.set(failures.get() + reconcile(&mut campaign, &rollup));

    if failures.get() == 0 {
        println!(
            "harbor-tower --check: all invariants hold \
             ({} cohorts, {} dumps indexed, cohort {BAD_COHORT} unhealthy at score {})",
            rollup.cohorts.len(),
            rollup.dumps.len(),
            bad_health.score,
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("harbor-tower --check: {} failure(s)", failures.get());
        ExitCode::FAILURE
    }
}

/// Exact reconciliation: every rollup counter equals the sum of the
/// nodes' counter tables (these scenarios restore no checkpoint), every
/// sample is one node-round, the tables agree with the recorders and
/// watchdogs they count from, and every cohort's fold invariant holds.
/// Returns the number of mismatches.
fn reconcile(fleet: &mut Fleet, rollup: &FleetRollup) -> u32 {
    let mut failures = 0u32;
    let mut check = |name: &str, rolled: u64, raw: u64| {
        if rolled != raw {
            eprintln!("FAIL: reconciliation: {name} rolled up {rolled}, counted {raw}");
            failures += 1;
        }
    };
    let mut tables = CounterSet::default();
    for i in 0..fleet.len() {
        tables.add(fleet.node(i).counters());
    }
    tables.samples = fleet.len() as u64 * fleet.round();
    let totals = rollup.totals();
    for (name, (rolled, counted)) in
        CounterSet::FIELDS.iter().zip(totals.values().into_iter().zip(tables.values()))
    {
        check(name, rolled, counted);
    }
    check("ingested", rollup.ingested, tables.samples);
    check("recorder dumps", totals.dumps, fleet.dumps().len() as u64);
    check("watchdog alerts", totals.alerts, fleet.alerts().len() as u64);
    // The per-cohort fold invariant, end to end.
    for c in &rollup.cohorts {
        let mut sum = c.folded;
        for w in &c.windows {
            sum.add(&w.counters);
        }
        if sum != c.totals {
            eprintln!("FAIL: reconciliation: cohort {} fold invariant broke", c.cohort);
            failures += 1;
        }
    }
    failures
}
