//! `harbor-trace`: run a mini-SOS workload under each protection build with
//! a trace sink attached, and dump the protection-event trace (Perfetto
//! JSON), the per-domain cycle profile (the paper's Table-5-style
//! breakdown) and the metrics snapshot.
//!
//! ```sh
//! cargo run -p mini-sos --bin harbor-trace          # report + trace files
//! cargo run -p mini-sos --bin harbor-trace -- --json    # machine-readable
//! ```
//!
//! `tests/scope_integration.rs` holds the invariants of the same
//! workload: a sink never perturbs the machine, the profile reconciles
//! with the cycle counter, and the trace keeps call/return discipline
//! through faults and recoveries.

// The shared CLI helper lives with the other harbor-* binaries in the
// fleet crate; mini-sos sits below harbor-fleet in the dependency graph,
// so it includes the module by path instead of through a crate edge.
#[path = "../../../fleet/src/bin/cli.rs"]
mod cli;

use harbor::DomainId;
use harbor_scope::{export, DomainProfiler, Event, MetricsRegistry, ScopeSink};
use mini_sos::modules::{blink, consumer, producer};
use mini_sos::{Protection, SosSystem, MSG_TIMER};
use std::process::ExitCode;

const ROUNDS: usize = 8;
const SLICE_BUDGET: u64 = 1_000_000;

const BUILDS: [Protection; 3] = [Protection::None, Protection::Sfi, Protection::Umpu];

fn prot_name(p: Protection) -> &'static str {
    match p {
        Protection::None => "none",
        Protection::Sfi => "sfi",
        Protection::Umpu => "umpu",
    }
}

/// The steady-state workload: a blinker plus a producer→consumer pipeline
/// that mallocs, hands buffers across domains and frees them — every
/// protection mechanism gets exercised each round.
fn build_workload(p: Protection) -> SosSystem {
    let mods = [blink(0), producer(1, 2), consumer(2, 1)];
    let mut sys = SosSystem::build(p, &mods, |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .expect("workload builds");
    sys.boot().expect("workload boots");
    sys
}

/// One scheduling round: timer messages to the blinker and the producer
/// (who posts onward to the consumer), then a profiled scheduler slice.
fn drive_round(sys: &mut SosSystem, profiler: &mut DomainProfiler) {
    sys.post(DomainId::num(0), MSG_TIMER);
    sys.post(DomainId::num(1), MSG_TIMER);
    sys.run_slice_profiled(profiler, SLICE_BUDGET).expect("steady-state round faults");
}

fn main() -> ExitCode {
    run_report(cli::Cli::parse().flag("--json"))
}

/// One traced steady-state run per build: the profiled system, its event
/// stream and the metrics folded from it.
fn trace_build(p: Protection) -> (DomainProfiler, Vec<Event>, MetricsRegistry) {
    let mut sys = build_workload(p);
    sys.attach_scope(ScopeSink::stream());
    let mut profiler = DomainProfiler::new(sys.scope_region_map(), sys.cycles());
    for _ in 0..ROUNDS {
        drive_round(&mut sys, &mut profiler);
    }
    let events = sys.take_scope().expect("sink attached").events();
    let mut metrics = MetricsRegistry::new();
    for ev in &events {
        metrics.record_event(ev);
    }
    (profiler, events, metrics)
}

fn run_report(json: bool) -> ExitCode {
    if json {
        // Machine-readable form (like `harbor-tower --json`): one object
        // per build with the profile and metrics, no files written.
        let mut out = String::from("{");
        for (i, p) in BUILDS.iter().enumerate() {
            let (profiler, events, metrics) = trace_build(*p);
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"events\":{},\"profile\":{},\"metrics\":{}}}",
                prot_name(*p),
                events.len(),
                profiler.report().to_json(),
                metrics.to_json()
            ));
        }
        out.push('}');
        println!("{out}");
        return ExitCode::SUCCESS;
    }
    let out_dir = std::path::Path::new("target").join("scope");
    std::fs::create_dir_all(&out_dir).expect("create target/scope");
    for p in BUILDS {
        let (profiler, events, metrics) = trace_build(p);
        let trace_path = out_dir.join(format!("trace_{}.json", prot_name(p)));
        std::fs::write(&trace_path, export::chrome_trace(&events)).expect("write trace");
        println!("═══ {} ═══", prot_name(p));
        println!("trace: {} ({} events)", trace_path.display(), events.len());
        println!("{}", profiler.report().render_table());
        println!("metrics: {}\n", metrics.to_json());
    }
    ExitCode::SUCCESS
}
