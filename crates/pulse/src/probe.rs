//! The [`Pulse`] recorder: per-round, per-phase host timers folded into
//! bounded-memory sketches.
//!
//! The fleet's `step_round` is a fixed pipeline — deliver (serial radio
//! exchange), step (the awake nodes, on workers), collect (serial outbox
//! drain), feed (serial tower ingestion) — and when pulse is attached the
//! fleet stamps the phase boundaries with one monotonic clock chain plus
//! an independent whole-round stopwatch. Because the chain's laps are
//! sub-intervals of the stopwatch's interval, `Σ phases <= wall` holds by
//! clock monotonicity, and the difference (the *unattributed gap*:
//! instrumentation overhead plus any preemption between stamps) is itself
//! recorded and gated by [`crate::PulseReport::reconcile`].
//!
//! Every per-round observation folds into a
//! [`QuantileSketch`] — the same
//! bounded-memory, merge-exact sketch `harbor-tower` aggregates fleet
//! telemetry with — so a week-long soak campaign costs the same memory as
//! a 40-round bench. A small ring of recent rounds is kept verbatim for
//! the timeline table and the Perfetto export.

use crate::ledger::{LedgerTotals, RoundLedger};
use crate::report::{PulseReport, RoundRecord};
use harbor_tower::QuantileSketch;

/// One pipeline phase of `Fleet::step_round`, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Serial radio exchange: due packets move to inboxes, the seeder
    /// answers NACKs and re-advertises.
    Deliver = 0,
    /// Stepping the awake nodes (the phase worker threads fan out over).
    Step = 1,
    /// Serial outbox drain onto the radio, in node-id order.
    Collect = 2,
    /// Serial tower feed: per-node counter deltas, dumps and alerts.
    Feed = 3,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 4;

    /// Every phase, in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] =
        [Phase::Deliver, Phase::Step, Phase::Collect, Phase::Feed];

    /// Stable snake_case name (JSON key vocabulary).
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Deliver => "deliver",
            Phase::Step => "step",
            Phase::Collect => "collect",
            Phase::Feed => "feed",
        }
    }
}

/// One worker thread's account of one step phase. All times are
/// nanoseconds measured from the *phase anchor* (the instant the step
/// phase began), on the host's monotonic clock, so
/// `busy <= span <= finish <= phase wall` holds by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Nodes this worker actually stepped (the fleet's wake set skips
    /// the rest, so across a round's workers this can be below
    /// `RoundLedger::stepped`).
    pub nodes: u64,
    /// Nanoseconds spent inside node batches (work attribution).
    pub busy_ns: u64,
    /// Nanoseconds from the worker's first grab to its last completed
    /// batch (includes cursor contention between batches).
    pub span_ns: u64,
    /// Nanoseconds from the phase anchor to the worker's exit — the
    /// phase wall minus this is the worker's barrier wait.
    pub finish_ns: u64,
}

/// Everything the step phase hands the recorder: per-worker stats, the
/// idle-work ledger, and the guest cycle counters read after stepping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepStats {
    /// One entry per worker the round started, in start order: a worker
    /// that found every batch taken reports no nodes and no busy time, so
    /// the count depends on the awake nodes and the thread cap only, not
    /// on how the workers raced for batches.
    pub workers: Vec<WorkerStat>,
    /// This round's idle-work classification.
    pub ledger: RoundLedger,
    /// Sum over nodes of `sys.cycles()` after the step (the recorder
    /// differences consecutive rounds to get guest cycles per round).
    pub cycles_total: u64,
    /// Max over nodes of `sys.cycles()` after the step — the fleet-wide
    /// guest-cycle frontier, the shared clock the Perfetto export lays
    /// host spans on.
    pub cycles_frontier: u64,
}

/// The phase-boundary timings of one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTiming {
    /// Whole-round wall time from the independent stopwatch.
    pub wall_ns: u64,
    /// Per-phase lap times from the chained clock, indexed by
    /// [`Phase`] discriminant.
    pub phase_ns: [u64; Phase::COUNT],
}

impl RoundTiming {
    /// Sum of the phase laps. `<= wall_ns` by clock monotonicity when the
    /// fleet recorded the timing (the laps are sub-intervals of the
    /// stopwatch interval).
    pub fn phase_sum(&self) -> u64 {
        self.phase_ns.iter().sum()
    }
}

/// Rounds retained verbatim for the timeline and the Perfetto export;
/// everything older survives only inside the sketches.
pub const RING_ROUNDS: usize = 256;

/// The per-fleet recorder. Owned by the fleet when `FleetConfig::pulse`
/// is set; fed once per round; snapshot with [`Pulse::report`].
#[derive(Debug, Clone)]
pub struct Pulse {
    rounds: u64,
    phase: [QuantileSketch; Phase::COUNT],
    wall: QuantileSketch,
    gap: QuantileSketch,
    busy: QuantileSketch,
    barrier: QuantileSketch,
    imbalance_pm: QuantileSketch,
    idle_pm: QuantileSketch,
    throughput: QuantileSketch,
    ledger: LedgerTotals,
    cycles_prev: u64,
    frontier: u64,
    ring: std::collections::VecDeque<RoundRecord>,
}

impl Default for Pulse {
    fn default() -> Pulse {
        Pulse::new()
    }
}

impl Pulse {
    /// An empty recorder.
    pub fn new() -> Pulse {
        Pulse {
            rounds: 0,
            phase: std::array::from_fn(|_| QuantileSketch::new()),
            wall: QuantileSketch::new(),
            gap: QuantileSketch::new(),
            busy: QuantileSketch::new(),
            barrier: QuantileSketch::new(),
            imbalance_pm: QuantileSketch::new(),
            idle_pm: QuantileSketch::new(),
            throughput: QuantileSketch::new(),
            ledger: LedgerTotals::default(),
            cycles_prev: 0,
            frontier: 0,
            ring: std::collections::VecDeque::with_capacity(RING_ROUNDS),
        }
    }

    /// Folds one round's measurements into the sketches and the ring.
    pub fn record_round(&mut self, round: u64, timing: RoundTiming, stats: StepStats) {
        self.rounds += 1;
        for p in Phase::ALL {
            self.phase[p as usize].observe(timing.phase_ns[p as usize]);
        }
        self.wall.observe(timing.wall_ns);
        self.gap.observe(timing.wall_ns.saturating_sub(timing.phase_sum()));

        let step_ns = timing.phase_ns[Phase::Step as usize];
        let workers = stats.workers.len() as u64;
        let mut busy_sum = 0u64;
        let mut busy_max = 0u64;
        for w in &stats.workers {
            self.busy.observe(w.busy_ns);
            self.barrier.observe(step_ns.saturating_sub(w.finish_ns));
            busy_sum += w.busy_ns;
            busy_max = busy_max.max(w.busy_ns);
        }
        if workers > 1 && busy_sum > 0 {
            // Load imbalance: the busiest worker relative to the mean, in
            // per-myriad (10000 = perfectly balanced).
            self.imbalance_pm.observe(busy_max * 10_000 * workers / busy_sum);
        }

        self.idle_pm.observe(stats.ledger.idle_per_myriad());
        self.ledger.merge(&stats.ledger);

        // Guest cycles this round: the recorder differences the running
        // fleet-wide total (clones of a warm prototype start non-zero, so
        // the first round's delta is measured from attach, not from 0).
        let cycles_delta = stats.cycles_total.saturating_sub(self.cycles_prev);
        self.cycles_prev = stats.cycles_total;
        // Throughput in guest cycles per host microsecond.
        self.throughput.observe(cycles_delta.saturating_mul(1_000) / timing.wall_ns.max(1));

        let frontier_start = self.frontier;
        // A round where no node ran still gets a 1-cycle-wide interval so
        // the export has geometry to draw.
        self.frontier = stats.cycles_frontier.max(frontier_start + 1);
        if self.ring.len() == RING_ROUNDS {
            self.ring.pop_front();
        }
        self.ring.push_back(RoundRecord {
            round,
            timing,
            ledger: stats.ledger,
            workers: stats.workers,
            cycles_delta,
            frontier_start,
            frontier_end: self.frontier,
        });
    }

    /// Rounds recorded.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Whole-run ledger totals.
    pub fn ledger(&self) -> &LedgerTotals {
        &self.ledger
    }

    /// The retained recent rounds, oldest first.
    pub fn ring(&self) -> impl Iterator<Item = &RoundRecord> {
        self.ring.iter()
    }

    /// Snapshot everything into a [`PulseReport`].
    pub fn report(&self) -> PulseReport {
        PulseReport {
            rounds: self.rounds,
            phase: self.phase.clone(),
            wall: self.wall.clone(),
            gap: self.gap.clone(),
            busy: self.busy.clone(),
            barrier: self.barrier.clone(),
            imbalance_pm: self.imbalance_pm.clone(),
            idle_pm: self.idle_pm.clone(),
            throughput: self.throughput.clone(),
            ledger: self.ledger,
            timeline: self.ring.iter().cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::PendingWork;

    fn stats(busy: &[u64], step_ns: u64, idle_of: (u64, u64)) -> StepStats {
        let (idle, total) = idle_of;
        let mut ledger = RoundLedger::default();
        for i in 0..total {
            let w = if i < idle {
                PendingWork::default()
            } else {
                PendingWork { queue: true, ..PendingWork::default() }
            };
            ledger.observe(w);
        }
        StepStats {
            workers: busy
                .iter()
                .map(|&b| WorkerStat {
                    nodes: total / busy.len() as u64,
                    busy_ns: b,
                    span_ns: b,
                    finish_ns: b.min(step_ns),
                })
                .collect(),
            ledger,
            cycles_total: 1000,
            cycles_frontier: 500,
        }
    }

    fn timing(phases: [u64; 4], slack: u64) -> RoundTiming {
        RoundTiming { wall_ns: phases.iter().sum::<u64>() + slack, phase_ns: phases }
    }

    #[test]
    fn record_folds_phases_and_ledger() {
        let mut p = Pulse::new();
        p.record_round(0, timing([10, 100, 20, 5], 3), stats(&[60, 40], 100, (3, 4)));
        p.record_round(1, timing([12, 90, 18, 6], 2), stats(&[50, 40], 90, (4, 4)));
        assert_eq!(p.rounds(), 2);
        assert_eq!(p.ledger().stepped, 8);
        assert_eq!(p.ledger().idle(), 7);
        let r = p.report();
        assert_eq!(r.phase[Phase::Deliver as usize].count(), 2);
        assert_eq!(r.phase[Phase::Step as usize].sum(), 190);
        assert_eq!(r.gap.sum(), 5);
        assert_eq!(r.busy.count(), 4);
        // Imbalance recorded for both rounds (2 workers each).
        assert_eq!(r.imbalance_pm.count(), 2);
        assert_eq!(r.timeline.len(), 2);
    }

    #[test]
    fn ring_is_bounded_and_frontier_monotone() {
        let mut p = Pulse::new();
        for round in 0..(RING_ROUNDS as u64 + 10) {
            let mut s = stats(&[10], 10, (1, 1));
            s.cycles_total = round * 100;
            s.cycles_frontier = round * 100;
            p.record_round(round, timing([1, 10, 1, 1], 0), s);
        }
        assert_eq!(p.rounds(), RING_ROUNDS as u64 + 10);
        let records: Vec<_> = p.ring().collect();
        assert_eq!(records.len(), RING_ROUNDS);
        assert_eq!(records[0].round, 10);
        for pair in records.windows(2) {
            assert_eq!(pair[0].frontier_end, pair[1].frontier_start);
            assert!(pair[0].frontier_start < pair[0].frontier_end);
        }
        // Round 0 executed no new cycles (frontier 0) yet still got a
        // non-empty interval.
        assert!(p.report().throughput.count() > 0);
    }

    #[test]
    fn throughput_differences_consecutive_totals() {
        let mut p = Pulse::new();
        let mut s = stats(&[10], 10, (0, 1));
        s.cycles_total = 5_000;
        p.record_round(0, RoundTiming { wall_ns: 1_000, phase_ns: [0, 1_000, 0, 0] }, s.clone());
        s.cycles_total = 9_000;
        p.record_round(1, RoundTiming { wall_ns: 2_000, phase_ns: [0, 2_000, 0, 0] }, s);
        // Round 0: 5000 cycles / 1 µs; round 1: 4000 cycles / 2 µs.
        assert_eq!(p.report().throughput.max(), 5_000);
        assert_eq!(p.report().throughput.min(), 2_000);
    }
}
