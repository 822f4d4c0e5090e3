//! The flight recorder: always-on, bounded-cost observability a deployed
//! node can afford, frozen into a [`Postmortem`] when a fault fires.
//!
//! The recorder rides the existing [`ScopeSink`](harbor_scope::ScopeSink)
//! plumbing: it wants a *masked* ring attached to the system
//! ([`RECORDER_MASK`]) so the per-store check events — tens of thousands
//! per slice, filtered out by one bit test *before* the event is even
//! constructed — never reach it, while the rare, diagnostic events (faults,
//! crossings, kernel lifecycle) all land in the ring. That
//! pre-construction filter is what keeps the recorder cheap enough to
//! leave on; `harbor_benchmark`'s `helm_canary` workload runs it in the
//! loop.
//!
//! Between events, the recorder samples [`ArchSnapshot`]s at its
//! observation points (each [`FlightRecorder::poll`], normally once per
//! fleet round): one whenever new events appeared in the ring since the
//! last poll, and one per configured cycle interval. On a fault the caller
//! freezes the recorder *before* recovering the machine, so the dump
//! captures the fault-state registers, not the post-recovery ones.

use crate::dump::Postmortem;
use harbor_scope::{ArchSnapshot, EventKind, KindMask, ScopeSink};
use mini_sos::{Protection, SosSystem};
use std::collections::VecDeque;

/// The recorder's event filter: everything *except* the per-store /
/// per-call hot-path check events, and except jump-table dispatches — a
/// dispatch is immediately followed by the [`EventKind::CrossDomainCall`]
/// it resolved to, which carries the same domain and target, so recording
/// both would spend a quarter of the ring (and of the overhead budget) on
/// duplicates. What remains is exactly what a postmortem wants — faults,
/// overflows, crossings, interrupt entries, recovery, kernel lifecycle —
/// and it is rare enough to record always-on.
pub const RECORDER_MASK: KindMask = KindMask::ALL
    .without(EventKind::MemMapCheck)
    .without(EventKind::StackCheck)
    .without(EventKind::MpuCheck)
    .without(EventKind::SafeStackPush)
    .without(EventKind::SafeStackPop)
    .without(EventKind::JumpTableDispatch);

/// Flight-recorder sizing. `Copy`, so fleet configuration structs can
/// carry one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Ring capacity: how many of the most recent events a dump preserves.
    pub last_events: usize,
    /// Cycles between periodic snapshots. `0` switches the recorder to
    /// event-driven sampling: a snapshot at every observation point that
    /// saw new events land in the sink (denser, but costs a capture on
    /// every active poll).
    pub snapshot_interval: u64,
    /// How many snapshots the recorder retains (oldest shed first).
    pub max_snapshots: usize,
    /// Dumps kept per node (a crash-looping node must not eat the host's
    /// memory; later faults only count).
    pub max_dumps: usize,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig { last_events: 32, snapshot_interval: 4096, max_snapshots: 8, max_dumps: 4 }
    }
}

/// The per-node flight recorder. Owns its snapshot ring and frozen dumps;
/// the event ring lives in the system's attached sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    cfg: RecorderConfig,
    snapshots: VecDeque<ArchSnapshot>,
    next_snapshot_at: u64,
    seen_events: u64,
    frozen: u64,
    dumps: Vec<Postmortem>,
}

/// The stable name of a protection build (dump vocabulary).
pub fn protection_name(p: Protection) -> &'static str {
    match p {
        Protection::None => "none",
        Protection::Umpu => "umpu",
        Protection::Sfi => "sfi",
    }
}

impl FlightRecorder {
    /// A recorder with the given sizing.
    pub fn new(cfg: RecorderConfig) -> FlightRecorder {
        FlightRecorder {
            cfg,
            snapshots: VecDeque::with_capacity(cfg.max_snapshots),
            next_snapshot_at: cfg.snapshot_interval,
            seen_events: 0,
            frozen: 0,
            dumps: Vec::new(),
        }
    }

    /// The sink a system should run under for this recorder: a masked ring
    /// sized to the configured dump depth.
    pub fn sink(&self) -> ScopeSink {
        ScopeSink::masked_ring(self.cfg.last_events, RECORDER_MASK)
    }

    /// The configuration.
    pub const fn config(&self) -> &RecorderConfig {
        &self.cfg
    }

    /// Faults frozen so far (counts past `max_dumps` too).
    pub const fn frozen(&self) -> u64 {
        self.frozen
    }

    /// The frozen dumps, oldest first.
    pub fn dumps(&self) -> &[Postmortem] {
        &self.dumps
    }

    /// Takes ownership of the frozen dumps, leaving the recorder empty.
    pub fn take_dumps(&mut self) -> Vec<Postmortem> {
        std::mem::take(&mut self.dumps)
    }

    fn push_snapshot(&mut self, s: ArchSnapshot) {
        if self.cfg.max_snapshots == 0 {
            return;
        }
        if self.snapshots.len() == self.cfg.max_snapshots {
            self.snapshots.pop_front();
        }
        self.snapshots.push_back(s);
    }

    /// Observation point: samples an [`ArchSnapshot`] at most once per
    /// configured `snapshot_interval` (or, with the interval at 0, whenever
    /// new events landed in the attached sink since the last poll). Call
    /// once per slice/round — the recorder is a passenger, never a driver,
    /// so polling does not touch the simulated machine, and the off-interval
    /// fast path is a couple of integer compares.
    #[inline]
    pub fn poll(&mut self, sys: &SosSystem) {
        if self.cfg.snapshot_interval == 0 {
            let events_now = sys.scope().map_or(0, ScopeSink::recorded);
            if events_now != self.seen_events {
                self.seen_events = events_now;
                self.push_snapshot(sys.arch_snapshot());
            }
            return;
        }
        let cycles = sys.cycles();
        if cycles < self.next_snapshot_at {
            return;
        }
        // Re-arm relative to now: a long slice may have crossed several
        // intervals, which still yields one snapshot (the recorder only
        // sees the machine at observation points).
        let i = self.cfg.snapshot_interval;
        self.next_snapshot_at = (cycles / i + 1) * i;
        self.push_snapshot(sys.arch_snapshot());
    }

    /// Freezes a [`Postmortem`] for the fault the system just caught.
    /// Call *before* `recover_from_fault`, while the architectural state
    /// still shows the fault. Returns whether a dump was captured (`false`
    /// once `max_dumps` is reached or if the system has no fault on
    /// record — the freeze count still advances on capacity drops).
    pub fn freeze(&mut self, sys: &SosSystem, node: u32, round: u64, lamport: u64) -> bool {
        let Some(&fault) = sys.fault_history().last() else {
            return false;
        };
        self.frozen += 1;
        if self.dumps.len() >= self.cfg.max_dumps {
            return false;
        }
        let events = sys.scope().map_or_else(Vec::new, |s| s.tail(self.cfg.last_events));
        self.dumps.push(Postmortem {
            node,
            round,
            lamport,
            protection: protection_name(sys.protection).to_string(),
            fault,
            at_fault: sys.arch_snapshot(),
            snapshots: self.snapshots.iter().copied().collect(),
            events,
            safe_stack: sys.safe_stack_bytes(),
            ownership: sys.ownership_summary(),
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_filters_hot_kinds_and_keeps_diagnostics() {
        for hot in [
            EventKind::MemMapCheck,
            EventKind::StackCheck,
            EventKind::MpuCheck,
            EventKind::SafeStackPush,
            EventKind::SafeStackPop,
            // Not a check event, but a duplicate of the CrossDomainCall
            // that always follows it.
            EventKind::JumpTableDispatch,
        ] {
            assert!(!RECORDER_MASK.contains(hot), "{hot:?} should be masked");
        }
        for kept in [
            EventKind::Fault,
            EventKind::Recovery,
            EventKind::SafeStackOverflow,
            EventKind::CrossDomainCall,
            EventKind::CrossDomainRet,
            EventKind::InterruptEntry,
            EventKind::MessagePost,
            EventKind::SchedulerSlice,
            EventKind::ModuleInstall,
            EventKind::ModuleUnload,
        ] {
            assert!(RECORDER_MASK.contains(kept), "{kept:?} should be recorded");
        }
    }

    #[test]
    fn recorder_sink_accepts_only_masked_kinds() {
        let r = FlightRecorder::new(RecorderConfig::default());
        let sink = r.sink();
        assert!(sink.accepts(EventKind::Fault));
        assert!(!sink.accepts(EventKind::MemMapCheck));
    }

    #[test]
    fn snapshot_ring_is_bounded() {
        let mut r =
            FlightRecorder::new(RecorderConfig { max_snapshots: 2, ..RecorderConfig::default() });
        for c in 0..5 {
            r.push_snapshot(ArchSnapshot { cycles: c, ..Default::default() });
        }
        assert_eq!(r.snapshots.len(), 2);
        assert_eq!(r.snapshots[0].cycles, 3);
    }
}
