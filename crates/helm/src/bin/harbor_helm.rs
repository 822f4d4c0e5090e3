//! `harbor-helm`: the closed-loop OTA control plane — staged canary
//! rollouts driven by `harbor-tower` health scores, with promotion
//! tables, decision logs, and JSON + Perfetto export.
//!
//! ```sh
//! # Built-in demo: one fleet, two campaigns — a healthy image promotes
//! # through the full canary ladder, a crash-looping image auto-rolls
//! # back. Prints the plan and decision tables and writes campaign JSON
//! # + Perfetto traces under target/helm/.
//! cargo run -p harbor-helm --bin harbor-helm
//!
//! # Machine-readable campaign documents on stdout.
//! cargo run -p harbor-helm --bin harbor-helm -- --json
//! ```
//!
//! The scenario is [`harbor_helm::two_campaigns`] on a 64-node, 8-cohort
//! fleet; `tests/fleet_helm.rs` runs it at 16 and 512 nodes and holds its
//! invariants.

#[path = "../../../fleet/src/bin/cli.rs"]
mod cli;

use harbor_fleet::{BlackboxConfig, FleetConfig, NetConfig, TowerConfig};
use harbor_helm::{chrome_trace, query, two_campaigns};
use mini_sos::Protection;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = cli::Cli::parse();
    let cfg = FleetConfig {
        nodes: 64,
        protection: Protection::Umpu,
        seed: cli::seed(0x70_3e_12),
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        blackbox: Some(BlackboxConfig::default()),
        // The canary ladder is 1 → 1 → 2 → 4 cohorts.
        cohorts: 8,
        tower: Some(TowerConfig::default()),
        ..FleetConfig::default()
    };
    let c = two_campaigns(&cfg, |_| {}, |_| {});
    let (good, bad) = (&c.good, c.bad());
    if cli.flag("--json") {
        println!("[{},{}]", query::to_json(good), query::to_json(bad));
        return ExitCode::SUCCESS;
    }

    // Demo: tables on stdout, campaign JSON + Perfetto timelines on disk.
    println!("── campaign 1: image {} (healthy) ──", good.plan().image);
    print!("{}\n{}\n{}", query::plan_table(good), query::decision_table(good), query::status(good));
    println!("\n── campaign 2: image {} (crash loop) ──", bad.plan().image);
    print!("{}", query::plan_table(bad));
    println!();
    print!("{}", query::decision_table(bad));
    println!();
    print!("{}", query::status(bad));

    let out_dir = std::path::Path::new("target").join("helm");
    std::fs::create_dir_all(&out_dir).expect("create target/helm");
    std::fs::write(out_dir.join("helm_good.json"), query::to_json(good)).expect("write good json");
    std::fs::write(out_dir.join("helm_bad.json"), query::to_json(bad)).expect("write bad json");
    std::fs::write(out_dir.join("helm_trace_good.json"), chrome_trace(good))
        .expect("write good trace");
    std::fs::write(out_dir.join("helm_trace_bad.json"), chrome_trace(bad))
        .expect("write bad trace");
    println!(
        "\ncampaign JSON and Perfetto traces (good: {:?}, bad: {:?}) written under {}",
        good.state(),
        bad.state(),
        out_dir.display()
    );
    ExitCode::SUCCESS
}
