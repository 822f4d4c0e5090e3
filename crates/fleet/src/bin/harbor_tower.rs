//! `harbor-tower`: the fleet-telemetry query surface — per-cohort
//! fault-rate tables, health scores, top-K unhealthy nodes, dump lookup
//! with causal-trace retrieval, and JSON + Perfetto export.
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
//! cargo run -p harbor-fleet --bin harbor-tower -- --trace n2-r9-c5098
//! ```
//!
//! `tests/fleet_tower.rs` holds the rollup's identities and its exact
//! reconciliation; this binary's tests run the crash loop at 512 nodes.

mod cli;

use harbor::DomainId;
use harbor_blackbox::reconstruct;
use harbor_fleet::{BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig, TowerConfig};
use harbor_tower::{chrome_trace, query};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};
use std::process::ExitCode;

/// Cohorts in both scenarios; the crash loop lands on [`BAD_COHORT`].
const COHORTS: u32 = 8;

/// The cohort whose members get the faulting workload.
const BAD_COHORT: u32 = 2;

/// Round the crash loop starts.
const LOOP_START: u64 = 8;

/// Rounds of the scenario.
const ROUNDS: u64 = 28;

/// Surge (without Tree Routing, so its timer handler faults) lives here.
const SURGE_DOM: u8 = 3;

/// The scenario's default seed; `HARBOR_SEED` overrides it.
const SEED: u64 = 0x70_3e_12;

/// A cohorted fleet with the blackbox and tower attached: Blink ticks on
/// every node, the bad cohort's Surge timer crash-loops from
/// [`LOOP_START`], and (when `disseminate` is set) Tree Routing is pushed
/// over the radio mid-run to exercise the install/lifecycle counters.
fn run_scenario(seed: u64, nodes: usize, threads: usize, disseminate: bool) -> Fleet {
    let cfg = FleetConfig {
        nodes,
        protection: Protection::Umpu,
        seed,
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads,
        blackbox: Some(BlackboxConfig::default()),
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
    let demo = || run_scenario(cli::seed(SEED), 64, 0, true);
    if cli.flag("--json") {
        println!("{}", demo().tower_rollup().expect("tower attached").to_json());
        ExitCode::SUCCESS
    } else if cli.flag("--trace") {
        let Some(id) = cli.value("--trace") else {
            eprintln!("harbor-tower: --trace needs a dump id (n<node>-r<round>-c<cycles>)");
            return ExitCode::FAILURE;
        };
        run_trace(demo(), id)
    } else {
        run_demo(demo())
    }
}

/// Demo: tables on stdout, rollup JSON + Perfetto timeline on disk.
fn run_demo(mut fleet: Fleet) -> ExitCode {
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
fn run_trace(mut fleet: Fleet, id: &str) -> ExitCode {
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

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_tower::CounterSet;

    /// The crash loop at scale: 512 nodes in 8 cohorts at the default
    /// seed, with cohort [`BAD_COHORT`]'s Surge faulting every round from
    /// [`LOOP_START`]. One and four workers roll up the same bytes; the
    /// tower flags that cohort and no other, with a regression edge no
    /// earlier than the loop and every top offender inside it; every
    /// indexed dump resolves to a frozen postmortem whose timeline ends at
    /// the fault; and every rollup entry reconciles exactly against the
    /// nodes' counter tables, one sample per node-round.
    #[test]
    fn crash_loop_at_512_nodes_flags_only_the_faulted_cohort() {
        let mut fleet = run_scenario(SEED, 512, 4, false);
        let rollup = fleet.tower_rollup().expect("tower attached");
        let serial = run_scenario(SEED, 512, 1, false).tower_rollup().expect("tower attached");
        assert_eq!(rollup.to_json(), serial.to_json(), "serial and parallel rollups differ");

        assert_eq!(rollup.unhealthy(), [BAD_COHORT], "only the faulted cohort is unhealthy");
        let health = rollup.health.iter().find(|h| h.cohort == BAD_COHORT).expect("scored");
        let edge = health.regressed_at;
        assert!(edge.is_some_and(|w| w >= LOOP_START), "regression edge at {edge:?}");
        assert!(!rollup.top_nodes.is_empty(), "the loop produced offenders");
        for n in &rollup.top_nodes {
            assert_eq!(n.cohort, BAD_COHORT, "offender node {} is outside the cohort", n.node);
        }

        let frozen = fleet.dumps();
        assert!(!rollup.dumps.is_empty(), "the loop indexed dumps");
        for d in &rollup.dumps {
            assert!(rollup.find_dump(&d.id).is_some(), "dump {} found by its own id", d.id);
            let dump = frozen.iter().find(|f| f.node == d.node && f.fault.cycles == d.cycles);
            let dump = dump.unwrap_or_else(|| panic!("dump {} has no frozen postmortem", d.id));
            assert!(reconstruct(dump).ends_at_fault(dump), "dump {}: timeline ends early", d.id);
        }

        let mut tables = CounterSet { samples: 512 * ROUNDS, ..CounterSet::default() };
        for i in 0..fleet.len() {
            tables.add(fleet.node(i).counters());
        }
        let totals = rollup.totals();
        for (name, (rolled, counted)) in
            CounterSet::FIELDS.iter().zip(totals.values().into_iter().zip(tables.values()))
        {
            assert_eq!(rolled, counted, "{name} rolled up {rolled}, counted {counted}");
        }
        assert_eq!(rollup.ingested, tables.samples, "one sample per node-round");
        assert_eq!(totals.dumps, frozen.len() as u64, "recorder dumps");
        assert_eq!(totals.alerts, fleet.alerts().len() as u64, "watchdog alerts");
        for c in &rollup.cohorts {
            let mut sum = c.folded;
            for w in &c.windows {
                sum.add(&w.counters);
            }
            assert_eq!(sum, c.totals, "cohort {} fold invariant", c.cohort);
        }
    }
}
