//! Regenerates every table and figure in one run (the source of
//! `EXPERIMENTS.md`'s measured numbers). The output is deterministic:
//! diff two runs.
//!
//! ```sh
//! cargo run -p harbor-bench --bin all
//! ```

use harbor_bench::report::{render_table, vs_paper, Row};
use std::fmt::Write;

fn table3_section() -> String {
    let rows: Vec<Row> = harbor_bench::table3::measure()
        .into_iter()
        .map(|r| Row::new(r.name, &[&vs_paper(r.hw, r.paper_hw), &vs_paper(r.sw, r.paper_sw)]))
        .collect();
    render_table(
        "Table 3: Overhead (CPU cycles) of Memory Protection Routines",
        &["Function Name", "AVR Extension", "AVR Binary Rewrite"],
        &rows,
    )
}

fn table4_section() -> String {
    let rows: Vec<Row> = harbor_bench::table4::measure()
        .into_iter()
        .map(|r| {
            Row::new(
                r.name,
                &[
                    &vs_paper(r.normal, r.paper_normal),
                    &vs_paper(r.protected, r.paper_protected),
                    &r.sfi,
                ],
            )
        })
        .collect();
    render_table(
        "Table 4: Overhead (CPU cycles) of memory allocation routines",
        &["Function Name", "Normal", "Protected (UMPU)", "SFI (extension)"],
        &rows,
    )
}

fn table5_section() -> String {
    let rows: Vec<Row> = harbor_bench::table5::measure()
        .into_iter()
        .map(|r| {
            Row::new(r.name, &[&vs_paper(r.flash, r.paper_flash), &vs_paper(r.ram, r.paper_ram)])
        })
        .collect();
    render_table(
        "Table 5: FLASH and RAM overhead of software library (bytes)",
        &["SW Component", "FLASH (B)", "RAM (B)"],
        &rows,
    )
}

fn table6_section() -> String {
    let rows: Vec<Row> = harbor_bench::table6::measure()
        .into_iter()
        .map(|r| {
            let orig = r.original.map(|o| o.to_string()).unwrap_or_else(|| "N/A".into());
            Row::new(r.component, &[&r.extended, &orig, &r.paper_extended])
        })
        .collect();
    let mut out = render_table(
        "Table 6: Gate count overhead of hardware extensions",
        &["HW Component", "Model Ext.", "Orig.", "Paper Ext."],
        &rows,
    );
    let m = umpu::area::AreaModel::default();
    writeln!(out, "Core area increase: {:.1} %", m.core_increase() * 100.0).unwrap();
    let (flexible, fixed) = harbor_bench::table6::fixed_block_ablation();
    writeln!(out, "Fixed-block-size ablation: {flexible} → {fixed} extension gates").unwrap();
    out
}

fn fig_a_section() -> String {
    let rows: Vec<Row> = harbor_bench::figures::memmap_sweep()
        .into_iter()
        .map(|p| {
            let mode = match p.mode {
                harbor::DomainMode::Multi => "multi",
                harbor::DomainMode::Two => "two",
            };
            let paper = p.paper.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
            Row::new(p.scenario, &[&mode, &p.block, &p.span, &p.bytes, &paper])
        })
        .collect();
    render_table(
        "Fig A: memory-map size vs configuration (Section 6.2 prose)",
        &["Scenario", "Mode", "Block", "Span", "Map (B)", "Paper"],
        &rows,
    )
}

fn macro_section() -> String {
    use harbor_bench::figures::{self, SurgeOutcome};
    let rows: Vec<Row> = figures::macro_overhead(64)
        .into_iter()
        .map(|p| {
            Row::new(format!("{:?}", p.protection), &[&p.cycles, &format!("{:.3}x", p.overhead)])
        })
        .collect();
    let mut out = render_table(
        "Macro: Surge workload (64 samples), end-to-end overhead",
        &["Build", "Cycles", "Overhead"],
        &rows,
    );
    writeln!(out, "\nFig B — war story (Surge without Tree Routing):").unwrap();
    for p in [mini_sos::Protection::None, mini_sos::Protection::Umpu, mini_sos::Protection::Sfi] {
        match figures::surge_war_story(p) {
            SurgeOutcome::SilentCorruption { addr } => {
                writeln!(out, "  {p:?}: silent corruption at {addr:#06x}").unwrap()
            }
            SurgeOutcome::Caught { fault: Some(f), .. } => {
                writeln!(out, "  {p:?}: caught — {f}").unwrap()
            }
            SurgeOutcome::Caught { code, .. } => {
                writeln!(out, "  {p:?}: caught — fault code {code}").unwrap()
            }
        }
    }
    out
}

fn pipeline_section() -> String {
    let rows: Vec<Row> = harbor_bench::figures::pipeline_overhead(32)
        .into_iter()
        .map(|p| {
            Row::new(format!("{:?}", p.protection), &[&p.cycles, &format!("{:.3}x", p.overhead)])
        })
        .collect();
    render_table(
        "Macro: buffer-handoff pipeline (32 rounds)",
        &["Build", "Cycles", "Overhead"],
        &rows,
    )
}

fn main() {
    let sections: [fn() -> String; 7] = [
        table3_section,
        table4_section,
        table5_section,
        table6_section,
        fig_a_section,
        macro_section,
        pipeline_section,
    ];
    for section in sections {
        print!("{}", section());
    }
    println!(
        "
Further extension harnesses (non-deterministic timing or RNG):
         fig_mpu_compare, fig_verifier_space, fig_alloc_blocksweep."
    );
}
