//! The benchmark's metric vocabulary: every end-to-end and per-layer
//! metric with its unit and direction, the per-layer value store, and the
//! result line the run ends with.
//!
//! `BENCHMARK.json` at the repository root declares the same names, units
//! and directions (a unit test holds the two in step) and adds each
//! end-to-end metric's regression bound.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Stable name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: "higher" }
}

/// What a user of the stack waits for or pays, measured with tracing off.
/// Every value is nonzero on every workload.
pub const END_TO_END: &[Metric] = &[
    higher("ops_per_s", "1/s"),
    lower("op_p50_us", "us"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// Single-layer metrics, reported by `--trace 1` runs. Host-time splits
/// are percentages of the traced episodes' measured op time; counts come
/// from the first episode, whose work is fixed by the seed, so they repeat
/// exactly. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    // the op tail: on a shared host it mostly measures the host
    lower("op_p99_us", "us"),
    // fleet pipeline phases (pulse)
    lower("fleet.deliver_pct", "%"),
    lower("fleet.step_pct", "%"),
    lower("fleet.collect_pct", "%"),
    lower("fleet.feed_pct", "%"),
    lower("fleet.gap_pct", "%"),
    lower("host.inject_pct", "%"),
    // idle work
    lower("fleet.node_steps", "count"),
    lower("fleet.idle_node_steps", "count"),
    lower("fleet.idle_pct", "%"),
    // radio and OTA dissemination
    lower("radio.sent", "count"),
    higher("radio.delivered", "count"),
    lower("radio.dropped", "count"),
    lower("ota.converge_round", "round"),
    lower("ota.requests", "count"),
    lower("ota.chunks", "count"),
    // execution engine
    lower("engine.instructions", "count"),
    lower("engine.cycles", "count"),
    higher("engine.guest_mips", "Minstr/s"),
    higher("turbo.cached", "count"),
    lower("turbo.fallback", "count"),
    lower("turbo.blocks_built", "count"),
    lower("turbo.invalidations", "count"),
    // protection
    higher("umpu.stores_elided", "count"),
    // simulated cycles, split by mechanism (pinned by the model)
    lower("sim.app_cycles", "cycles"),
    lower("sim.check_cycles", "cycles"),
    lower("sim.crossing_cycles", "cycles"),
    lower("sim.kernel_cycles", "cycles"),
    // kernel
    higher("sos.messages", "count"),
    lower("sos.queue_drops", "count"),
    lower("sos.faults", "count"),
    lower("sos.recoveries", "count"),
    higher("sos.installs", "count"),
    // observability and control
    lower("blackbox.dumps", "count"),
    lower("blackbox.alerts", "count"),
    lower("helm.loop_pct", "%"),
    lower("helm.admit_pct", "%"),
    lower("helm.rounds_to_done_p50", "round"),
    lower("helm.rounds_to_rollback_p50", "round"),
    lower("helm.false_rollback_pct", "%"),
    // admission
    lower("image.decode_pct", "%"),
    lower("admit.verify_umpu_pct", "%"),
    lower("admit.verify_sfi_pct", "%"),
    higher("admit.accepted", "count"),
    lower("admit.rejected_decode", "count"),
    lower("admit.rejected_verify", "count"),
    // memory, tracing and host context
    lower("mem.rss_growth_kb_per_kop", "KB/kop"),
    lower("trace.overhead_pct", "%"),
    higher("host.cpu_util_pct", "%"),
    lower("host.nproc", "count"),
    lower("host.loadavg_start", "load"),
    lower("host.loadavg_end", "load"),
];

/// Per-layer values one run measured.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `name`.
    ///
    /// # Panics
    ///
    /// If `name` is not declared in [`PER_LAYER`] — an undeclared metric
    /// would be silently missing from every report.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "undeclared per-layer metric {name}");
        self.0.insert(name, value);
    }

    /// The recorded value, 0 for a layer the run did not exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The run's last stdout line: one JSON object with the correctness
/// verdict, the attempted/failed counts and every reported metric.
pub fn result_json(correct: bool, attempted: u64, failed: u64, values: &[(Metric, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(m, v)| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, v, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
