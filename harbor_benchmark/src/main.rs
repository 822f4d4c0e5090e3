//! `harbor_benchmark`: the host-time benchmark of the Harbor/UMPU stack.
//!
//! ```sh
//! cargo run --release --manifest-path harbor_benchmark/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs each selected workload (all four when `--workload` is omitted) in
//! a fresh child process, one after another, with the engine-selecting
//! environment variables removed so every system starts exactly as the
//! workload configures it. Each child measures for `--seconds` of op time,
//! checks its outputs, prints every metric as `workload metric value unit`
//! and ends with one JSON result line; the exit status is non-zero if any
//! check failed. `--trace 1` reports the per-layer metrics instead of the
//! end-to-end ones. See `README.md` for the workloads and metrics.

mod admit_verify;
mod busy_fleet;
mod fleet_layers;
mod helm_canary;
mod host;
mod metrics;
mod ota_soak;
mod pins;
mod run;

use run::{Run, Size, DEFAULT_SEED};
use std::process::{Command, ExitCode};

/// One workload: its name, full size and driver.
struct Workload {
    name: &'static str,
    size: Size,
    run: fn(&mut Run, Size),
}

const WORKLOADS: [Workload; 4] = [
    Workload { name: "busy_fleet", size: busy_fleet::SIZE, run: busy_fleet::run },
    Workload { name: "ota_soak", size: ota_soak::SIZE, run: ota_soak::run },
    Workload { name: "helm_canary", size: helm_canary::SIZE, run: helm_canary::run },
    Workload { name: "admit_verify", size: admit_verify::SIZE, run: admit_verify::run },
];

/// Read by `SosSystem` at construction; a child must never inherit them.
const ENGINE_ENV: [&str; 3] = ["HARBOR_TURBO", "HARBOR_PROVE", "HARBOR_SEED"];

const USAGE: &str = "usage: harbor_benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed =
            Args { workload: None, seed: DEFAULT_SEED, seconds: 10.0, trace: false, child: false };
        while let Some(flag) = args.next() {
            if flag == "--child" {
                parsed.child = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    let w = WORKLOADS.iter().find(|w| w.name == value);
                    parsed.workload =
                        Some(w.ok_or_else(|| format!("unknown workload {value}"))?.name);
                }
                "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
                "--seconds" => {
                    parsed.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?;
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    };
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if parsed.child && parsed.workload.is_none() {
            return Err("--child needs --workload".to_string());
        }
        Ok(parsed)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("harbor_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args)
    } else {
        parent(&args)
    }
}

/// Runs each selected workload in its own child process.
fn parent(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("harbor_benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS.iter().filter(|w| args.workload.is_none_or(|n| n == w.name)) {
        let mut cmd = Command::new(&exe);
        cmd.arg("--child")
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        for var in ENGINE_ENV {
            cmd.env_remove(var);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("harbor_benchmark: {} failed ({status})", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("harbor_benchmark: cannot start {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its report.
fn child(args: &Args) -> ExitCode {
    let w = WORKLOADS.iter().find(|w| Some(w.name) == args.workload).expect("parsed workload");
    let pins = args.seed == DEFAULT_SEED;
    let mut run = Run::new(w.name, args.seed, args.seconds, args.trace, pins);
    for var in ENGINE_ENV {
        run.check(std::env::var_os(var).is_none(), || format!("{var} leaked into the child"));
    }
    run.note(format!("seed {} seconds {} trace {}", args.seed, args.seconds, u8::from(args.trace)));
    (w.run)(&mut run, w.size);
    let outcome = run.finish();
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.json);
    for v in &outcome.violations {
        eprintln!("harbor_benchmark: check failed: {v}");
    }
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_blackbox::Json;
    use metrics::{Metric, END_TO_END, PER_LAYER};
    use std::collections::BTreeSet;

    /// Sizes small enough for a debug build: every workload's paths run.
    fn tiny(name: &str) -> Size {
        match name {
            "busy_fleet" => Size { nodes: 8, ops: 12 },
            "ota_soak" => Size { nodes: 16, ops: 120 },
            "helm_canary" => Size { nodes: 16, ops: 4 },
            _ => Size { nodes: 0, ops: 200 },
        }
    }

    /// Runs `w` for its first episode only and returns the printed
    /// `workload metric value unit` lines' metric names.
    fn smoke(w: &Workload, trace: bool) -> Vec<String> {
        let mut run = Run::new(w.name, 7, 0.0, trace, false);
        (w.run)(&mut run, tiny(w.name));
        let outcome = run.finish();
        assert!(outcome.violations.is_empty(), "{}: {:?}", w.name, outcome.violations);
        let json = Json::parse(&outcome.json).expect("result line is JSON");
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        assert!(json.need_u64("attempted").expect("attempted") >= 1, "{}", w.name);
        assert_eq!(json.need_u64("failed"), Ok(0), "{}", w.name);
        outcome
            .lines
            .iter()
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                let cols: Vec<&str> = l.split(' ').collect();
                assert_eq!(cols.len(), 4, "{l}");
                assert_eq!(cols[0], w.name);
                let v: f64 = cols[2].parse().expect("numeric value");
                assert!(v.is_finite(), "{l}");
                cols[1].to_string()
            })
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn every_workload_runs_at_tiny_size() {
        for w in &WORKLOADS {
            assert_eq!(smoke(w, false), names(END_TO_END), "{}", w.name);
            assert_eq!(smoke(w, true), names(PER_LAYER), "{}", w.name);
        }
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let ok = m.name.len() <= 64
                && m.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(ok, "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        }
    }

    /// `BENCHMARK.json` declares exactly the metrics and workloads this
    /// binary reports, in both directions.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> BTreeSet<(String, String, String)> {
            let list = doc.get(key).and_then(Json::as_arr).expect("metric list");
            list.iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let ours = |metrics: &[Metric]| -> BTreeSet<(String, String, String)> {
            metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
        let workloads: BTreeSet<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.name).collect());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(run::percentile(&[], 0.5), 0);
        assert_eq!(run::percentile(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(run::percentile(&v, 0.5), 50);
        assert_eq!(run::percentile(&v, 0.99), 99);
        assert_eq!(run::percentile(&v, 1.0), 100);
        assert_eq!(run::percentile(&v, 0.0), 1);
        assert_eq!(run::percentile_of(&[5, 1, 3], 0.5), 3);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_string));
        let a = parse("--workload ota_soak --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args { workload: Some("ota_soak"), seed: 3, seconds: 10.0, trace: true, child: false }
        );
        assert_eq!(parse("").expect("defaults").seed, DEFAULT_SEED);
        for bad in ["--workload nope", "--trace 2", "--seed x", "--seconds -1", "--child", "--x 1"]
        {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
