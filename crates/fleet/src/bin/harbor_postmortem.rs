//! `harbor-postmortem`: load flight-recorder crash dumps, reconstruct the
//! cross-domain call timeline that led to each fault, and render a
//! human-readable report — the field-debugging story the paper's protection
//! model enables.
//!
//! ```sh
//! # Built-in demo: fault Surge on a fleet, freeze dumps, print reports
//! # (dump JSONs and the fleet causal trace land in target/blackbox/).
//! cargo run -p harbor-fleet --bin harbor-postmortem
//!
//! # Report previously written dumps (--json for machine-readable output).
//! cargo run -p harbor-fleet --bin harbor-postmortem -- target/blackbox/*.json
//! ```
//!
//! `tests/fleet_blackbox.rs` holds the dumps' invariants: one dump per
//! fault, timelines that end at the fault, lossless JSON, serial ≡
//! parallel bytes and Lamport order along every causal edge.

mod cli;

use harbor::DomainId;
use harbor_blackbox::{reconstruct, Postmortem};
use harbor_fleet::{BlackboxConfig, Fleet, FleetConfig, NetConfig};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection};
use std::process::ExitCode;

/// Fleet size of the built-in scenario.
const NODES: usize = 16;

/// Every 4th node gets the faulting Surge workload.
const VICTIM_STRIDE: usize = 4;

/// Rounds in which the victims' Surge timer fires (each firing faults, so
/// this must stay within the recorder's `max_dumps`).
const FAULT_ROUNDS: [u64; 2] = [8, 16];

/// Total rounds of the scenario.
const ROUNDS: u64 = 24;

/// The built-in crash scenario: every node runs Blink plus Surge-without-
/// Tree-Routing (whose timer handler dereferences the 0xff error return);
/// victims get their Surge timer posted in [`FAULT_ROUNDS`], fault, and
/// freeze a postmortem each time.
fn run_scenario(threads: usize) -> Fleet {
    let cfg = FleetConfig {
        nodes: NODES,
        protection: Protection::Umpu,
        seed: cli::seed(0x5c09e),
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads,
        blackbox: Some(BlackboxConfig::default()),
        ..FleetConfig::default()
    };
    let mut fleet =
        Fleet::new(&cfg, &[modules::blink(0), modules::surge(3, 2)]).expect("fleet builds");
    for round in 0..ROUNDS {
        fleet.post_all(DomainId::num(0), MSG_TIMER);
        if FAULT_ROUNDS.contains(&round) {
            for victim in (0..NODES).step_by(VICTIM_STRIDE) {
                fleet.post(victim, DomainId::num(3), MSG_TIMER);
            }
        }
        fleet.step_round();
    }
    fleet
}

/// Renders one dump the way the report prints it.
fn report(dump: &Postmortem) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "═══ node {} · round {} · lamport {} · {} build ═══\n",
        dump.node, dump.round, dump.lamport, dump.protection
    ));
    out.push_str(&format!(
        "fault: code {} at {:#06x} (info {}) on cycle {}\n",
        dump.fault.code, dump.fault.addr, dump.fault.info, dump.fault.cycles
    ));
    out.push_str(&format!(
        "at fault: pc={:#x} sp={:#x} domain={} stack_bound={:#x} safe_stack={:#x}..{:#x} (ptr {:#x})\n",
        dump.at_fault.pc,
        dump.at_fault.sp,
        dump.at_fault.domain,
        dump.at_fault.stack_bound,
        dump.at_fault.safe_stack_base,
        dump.at_fault.safe_stack_limit,
        dump.at_fault.safe_stack_ptr,
    ));
    let owned: Vec<String> = dump
        .ownership
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(d, &n)| format!("dom{d}:{n}"))
        .collect();
    out.push_str(&format!(
        "memory map: {} blocks owned [{}] · {} snapshots · {} safe-stack bytes\n",
        dump.ownership.iter().map(|&n| u64::from(n)).sum::<u64>(),
        owned.join(" "),
        dump.snapshots.len(),
        dump.safe_stack.len(),
    ));
    out.push_str("timeline:\n");
    out.push_str(&reconstruct(dump).render());
    out
}

fn load_dump(path: &str) -> Result<Postmortem, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Postmortem::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// The command line this viewer takes.
const SPEC: cli::Spec = cli::Spec {
    usage: "usage: harbor-postmortem [--json] [DUMP.json ...]",
    flags: &["--json"],
    valued: &[],
};

fn main() -> ExitCode {
    let cli = SPEC.parse();
    let files = cli.free();
    if files.is_empty() {
        run_demo()
    } else {
        let mut dumps = Vec::with_capacity(files.len());
        for path in &files {
            match load_dump(path) {
                Ok(dump) => dumps.push(dump),
                Err(e) => {
                    eprintln!("harbor-postmortem: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        // Report in (node, fault cycle) order, not argv/discovery order:
        // the rendering is diffable no matter how the shell globbed the
        // dump files.
        dumps.sort_by_key(|d| (d.node, d.fault.cycles));
        if cli.flag("--json") {
            let body: Vec<String> = dumps.iter().map(Postmortem::to_json).collect();
            println!("[{}]", body.join(","));
        } else {
            for dump in &dumps {
                println!("{}", report(dump));
            }
        }
        ExitCode::SUCCESS
    }
}

fn run_demo() -> ExitCode {
    let out_dir = std::path::Path::new("target").join("blackbox");
    std::fs::create_dir_all(&out_dir).expect("create target/blackbox");
    let mut fleet = run_scenario(1);
    let dumps = fleet.dumps();
    for (i, dump) in dumps.iter().enumerate() {
        let path = out_dir.join(format!("dump_node{}_{i}.json", dump.node));
        std::fs::write(&path, dump.to_json()).expect("write dump");
        println!("{}", report(dump));
    }
    let trace_path = out_dir.join("causal_trace.json");
    std::fs::write(&trace_path, fleet.causal_trace()).expect("write causal trace");
    println!(
        "{} dumps and the fleet causal trace written under {}",
        dumps.len(),
        out_dir.display()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn takes_its_documented_flags_only() {
        let dumps = ["target/blackbox/dump_node0_0.json", "target/blackbox/dump_node4_1.json"];
        cli::assert_takes_only(&SPEC, &[&[], &dumps, &["--json", dumps[0]]]);
        let cli = SPEC.check(vec!["--json".into(), dumps[0].into()]).expect("takes a dump");
        assert_eq!(cli.free(), [dumps[0]]);
    }
}
