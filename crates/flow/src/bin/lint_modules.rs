//! Lints a corpus of realistically shaped sandboxed modules and prints
//! every finding; the deep in-tree modules (Blink, Tree Routing, Surge, …)
//! are linted by `crates/sos`'s tests, which can reach the loader this
//! binary cannot depend on (the loader depends on this crate).
//!
//! ```text
//! lint-modules [--dot DIR]
//!   --dot DIR   export each module's CFG and the cross-domain call graph
//!               as Graphviz dot files into DIR
//! ```
//!
//! This binary's tests hold the corpus to zero findings.

use avr_asm::Asm;
use avr_core::isa::{Ptr, PtrMode, Reg};
use harbor_flow::{CfgVerifier, ModuleAnalysis};
use harbor_sfi::{rewrite, SfiLayout, SfiRuntime, VerifyError};
use std::fmt::Write as _;

const ORIGIN: u32 = 0x1000;

/// The corpus: one assembler per shape the rewriter glue can take.
fn corpus() -> Vec<(&'static str, Asm)> {
    let layout = SfiLayout::default_layout();
    let mut out = Vec::new();

    let mut a = Asm::new();
    a.ldi(Reg::R16, 1);
    a.sts(0x0300, Reg::R16);
    a.ret();
    out.push(("direct_store", a));

    // The loop head must not be the entry itself: a branch back into the
    // save-ret prologue has no finite safe-stack bound (the analysis
    // saturates on that shape, by design).
    let mut a = Asm::new();
    let l = a.label("l");
    a.ldi(Reg::R16, 8);
    a.bind(l);
    a.st(Ptr::X, PtrMode::PostInc, Reg::R0);
    a.dec(Reg::R16);
    a.brne(l);
    a.ret();
    out.push(("store_loop", a));

    let mut a = Asm::new();
    a.sbrc(Reg::R16, 3);
    a.std(Ptr::Z, 9, Reg::R17);
    a.ret();
    out.push(("skip_displaced_store", a));

    let mut a = Asm::new();
    let f = a.label("f");
    let g = a.label("g");
    a.rcall(f);
    a.ret();
    a.bind(f);
    a.push(Reg::R16);
    a.rcall(g);
    a.pop(Reg::R16);
    a.ret();
    a.bind(g);
    a.st(Ptr::Y, PtrMode::Plain, Reg::R17);
    a.ret();
    out.push(("nested_calls", a));

    let mut a = Asm::new();
    a.call_abs(layout.jt_base as u32 + 3 * 128);
    a.ret();
    out.push(("xdom_call", a));

    let mut a = Asm::new();
    let done = a.label("done");
    a.cpi(Reg::R24, 1);
    a.brne(done);
    a.ldi(Reg::R16, 0xaa);
    a.sts(0x0300, Reg::R16);
    a.bind(done);
    a.ret();
    out.push(("branchy_handler", a));

    out
}

/// Rewrites one corpus shape for `rt` and runs the deep verifier on it:
/// the rewritten words and the analysis.
fn analyze(
    asm: &Asm,
    rt: &SfiRuntime,
    verifier: &CfgVerifier,
) -> (Vec<u16>, Result<ModuleAnalysis, VerifyError>) {
    let original = asm.assemble(ORIGIN).expect("corpus assembles");
    let rewritten =
        rewrite(original.words(), ORIGIN, &[ORIGIN], ORIGIN, rt).expect("corpus rewrites");
    let words = rewritten.object.words().to_vec();
    let analysis = verifier.analyze(&words, ORIGIN, &[rewritten.translated(ORIGIN)]);
    (words, analysis)
}

fn main() {
    let mut dot_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dot" => dot_dir = Some(args.next().expect("--dot needs a directory")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let layout = SfiLayout::default_layout();
    let rt = SfiRuntime::build(layout, 0x0040);
    let verifier = CfgVerifier::for_runtime(&rt);
    let jt_page = (layout.jt_end() - layout.jt_base) as u32 / layout.jt_domains as u32;

    let mut findings = 0usize;
    let mut xdom_dot = String::from("digraph xdom_calls {\n  rankdir=LR;\n");
    for (name, asm) in corpus() {
        let (words, analysis) = analyze(&asm, &rt, &verifier);
        match analysis {
            Ok(analysis) => {
                let c = analysis.certificate;
                println!(
                    "{name}: {} words, {} blocks, run≤{}B safe≤{}B depth {} — {} lint(s)",
                    words.len(),
                    analysis.cfg.blocks.len(),
                    c.run_stack_bytes,
                    c.safe_stack_bytes,
                    c.call_depth,
                    analysis.lints.len(),
                );
                for l in &analysis.lints {
                    println!("  lint: {l}");
                    findings += 1;
                }
                for site in &analysis.cfg.xdom_sites {
                    let dom = (site.jt_target as u32 - layout.jt_base as u32) / jt_page;
                    let _ = writeln!(xdom_dot, "  {name} -> domain_{dom};");
                }
                if let Some(dir) = &dot_dir {
                    let path = format!("{dir}/{name}.dot");
                    std::fs::write(&path, analysis.cfg.dot(name)).expect("write dot file");
                    println!("  wrote {path}");
                }
            }
            Err(e) => {
                println!("{name}: VERIFY FAILED: {e}");
                findings += 1;
            }
        }
    }
    xdom_dot.push_str("}\n");
    if let Some(dir) = &dot_dir {
        let path = format!("{dir}/xdom-calls.dot");
        std::fs::write(&path, &xdom_dot).expect("write dot file");
        println!("wrote {path}");
    }
    println!("lint-modules: {findings} finding(s)");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every corpus shape verifies with no lint finding: the rewriter's
    /// glue is clean in each shape it takes. `direct_store` is also
    /// `tests/lint_snapshot.rs`'s clean handler, which holds it there.
    #[test]
    fn corpus_verifies_without_findings() {
        let rt = SfiRuntime::build(SfiLayout::default_layout(), 0x0040);
        let verifier = CfgVerifier::for_runtime(&rt);
        for (name, asm) in corpus().into_iter().filter(|(name, _)| *name != "direct_store") {
            let (_, analysis) = analyze(&asm, &rt, &verifier);
            let analysis = analysis.unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(analysis.lints.is_empty(), "{name}: {:?}", analysis.lints);
        }
    }
}
