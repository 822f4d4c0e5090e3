//! Measurement shared by the three fleet workloads: the engine note, the
//! per-layer fold of each episode (guest work, and the pulse report when
//! the episode was traced), episode 0's deterministic counts, and the
//! telemetry pins.

use crate::run::Run;
use harbor_bench::report::machine_hash;
use harbor_fleet::{Fleet, FleetTelemetry};
use harbor_pulse::Phase;

/// Step-phase worker threads of every fleet. On the 2-vCPU reference host
/// a 2-worker fleet's round time swung 10–20% from run to run even after
/// calibration, because any burst on either vCPU stalls the round barrier;
/// serial fleets held within about 5%. So the fleets step serially, and
/// the per-round worker fan-out is not measured.
pub const THREADS: usize = 1;

const PHASE_METRICS: [&str; Phase::COUNT] =
    ["fleet.deliver_pct", "fleet.step_pct", "fleet.collect_pct", "fleet.feed_pct"];

/// Per-layer accumulators over a run's episodes.
#[derive(Debug, Default)]
pub struct FleetLayers {
    phase_ns: [u64; Phase::COUNT],
    gap_ns: u64,
    /// Σ pulse round wall time: the fleet's own share of a round.
    pub wall_ns: u64,
    /// Bench-side message injection inside traced ops.
    pub inject_ns: u64,
    instructions: u64,
}

impl FleetLayers {
    /// Folds one finished episode in. `boot_instructions` is a node's
    /// instruction counter at set-up, so only work done by ops counts.
    pub fn absorb(&mut self, fleet: &Fleet, tel: &FleetTelemetry, boot_instructions: u64) {
        let boot = boot_instructions * tel.nodes as u64;
        self.instructions += tel.total(|n| n.instructions).saturating_sub(boot);
        let Some(report) = fleet.pulse_report() else { return };
        for (total, sketch) in self.phase_ns.iter_mut().zip(&report.phase) {
            *total += sketch.sum();
        }
        self.gap_ns += report.gap.sum();
        self.wall_ns += report.wall.sum();
    }

    /// Sets the run-wide per-layer metrics.
    pub fn finish(&self, run: &mut Run) {
        for (name, ns) in PHASE_METRICS.iter().zip(self.phase_ns) {
            let share = run.traced_share(ns);
            run.layers.set(name, share);
        }
        let shares = [("fleet.gap_pct", self.gap_ns), ("host.inject_pct", self.inject_ns)];
        for (name, ns) in shares {
            let share = run.traced_share(ns);
            run.layers.set(name, share);
        }
        let secs = run.scaled_secs();
        if secs > 0.0 {
            run.layers.set("engine.guest_mips", self.instructions as f64 / secs / 1e6);
        }
    }
}

/// Notes the engine node 0 actually runs, with the thread count.
pub fn note_engine(run: &mut Run, fleet: &mut Fleet) {
    let (turbo, prove) = fleet.with_node(0, |n| (n.sys.turbo_enabled(), n.sys.prove_enabled()));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engine = if turbo { "turbo" } else { "reference" };
    run.note(format!(
        "engine {engine} prove={prove} threads={} nproc={nproc} nodes={}",
        fleet.threads(),
        fleet.len()
    ));
}

/// A node's instruction counter right after set-up (every node is a clone
/// of one booted prototype).
pub fn boot_instructions(fleet: &mut Fleet) -> u64 {
    fleet.with_node(0, |n| n.sys.instructions())
}

/// Episode 0's deterministic counts and telemetry pins.
pub fn record_counts(run: &mut Run, fleet: &mut Fleet, tel: &FleetTelemetry) {
    let counts = [
        ("engine.instructions", tel.total(|n| n.instructions)),
        ("engine.cycles", tel.total(|n| n.cycles)),
        ("radio.sent", tel.packets_sent),
        ("radio.delivered", tel.packets_delivered),
        ("radio.dropped", tel.packets_dropped),
        ("ota.converge_round", tel.convergence_round.unwrap_or(0)),
        ("ota.requests", tel.total(|n| n.requests)),
        ("ota.chunks", tel.total(|n| n.chunks)),
        ("umpu.stores_elided", tel.total(|n| n.metrics.counter("umpu.stores_elided"))),
        ("sos.messages", tel.total(|n| n.messages)),
        ("sos.queue_drops", tel.total(|n| n.queue_drops)),
        ("sos.faults", tel.total(|n| n.faults())),
        ("sos.recoveries", tel.total(|n| n.recoveries())),
        ("blackbox.dumps", fleet.dumps().len() as u64),
        ("blackbox.alerts", fleet.alerts().len() as u64),
    ];
    for (name, v) in counts {
        run.layers.set(name, v as f64);
    }
    let mut installs = 0;
    let mut turbo = [0u64; 4];
    for i in 0..fleet.len() {
        fleet.with_node(i, |n| {
            installs += n.sys.modules_installed();
            if let Some(s) = n.sys.turbo_stats() {
                for (t, v) in
                    turbo.iter_mut().zip([s.cached, s.fallback, s.blocks_built, s.invalidations])
                {
                    *t += v;
                }
            }
        });
    }
    run.layers.set("sos.installs", installs as f64);
    let turbo_names =
        ["turbo.cached", "turbo.fallback", "turbo.blocks_built", "turbo.invalidations"];
    for (name, v) in turbo_names.iter().zip(turbo) {
        run.layers.set(name, v as f64);
    }
    if let Some(report) = fleet.pulse_report() {
        let ledger = report.ledger;
        run.layers.set("fleet.node_steps", ledger.stepped as f64);
        run.layers.set("fleet.idle_node_steps", ledger.idle() as f64);
        run.layers.set("fleet.idle_pct", ledger.idle_per_myriad() as f64 / 100.0);
    }
    run.pin("telemetry", machine_hash(tel.comparable_json().as_bytes()));
    run.pin("instructions", tel.total(|n| n.instructions));
    run.pin("cycles", tel.total(|n| n.cycles));
}
