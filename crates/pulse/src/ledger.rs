//! The idle-work ledger: which node-steps had pending work.
//!
//! Dissemination quiesces, so in steady state most nodes have nothing to
//! do — no packets in the inbox, no OTA reassembly in flight, no kernel
//! messages queued. The ledger counts that idle work exactly: each round,
//! every node the fleet schedules (all of them) is classified *before*
//! its step, and the per-flag counts are summed. The fleet's event-driven
//! core skips nodes it knows to be idle and counts them here as idle, so
//! the ledger reads the same as when every node was stepped; the workers'
//! `WorkerStat::nodes` count what was actually stepped. Classification is
//! a pure function of node state (never of the thread schedule or the
//! host clock), so serial and parallel runs of one seed produce identical
//! ledgers — regression-tested in `tests/fleet_pulse.rs`.

/// Why a node counts as busy this round. A node may have several reasons
/// at once; it is *idle* only when all three are false.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PendingWork {
    /// Packets were delivered to the node's inbox this round.
    pub inbox: bool,
    /// An OTA dissemination is mid-reassembly (chunks outstanding): the
    /// node may NACK this round and must watch for chunks.
    pub ota: bool,
    /// The kernel message queue is non-empty: the CPU has handler work.
    pub queue: bool,
}

impl PendingWork {
    /// Whether any work is pending.
    #[inline]
    pub fn any(self) -> bool {
        self.inbox || self.ota || self.queue
    }
}

/// One round's ledger counts. Nodes are counted once in `busy`/`stepped`
/// and once per raised flag, so `inbox + ota + queue >= busy` and
/// `busy <= stepped` always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundLedger {
    /// Nodes scheduled this round: every node in the fleet, whether the
    /// event-driven core stepped it or skipped it as idle.
    pub stepped: u64,
    /// Nodes with at least one pending-work flag.
    pub busy: u64,
    /// Nodes whose inbox was non-empty.
    pub inbox: u64,
    /// Nodes with an OTA reassembly outstanding.
    pub ota: u64,
    /// Nodes with a non-empty kernel queue.
    pub queue: u64,
}

impl RoundLedger {
    /// Classifies one node into the counts.
    #[inline]
    pub fn observe(&mut self, w: PendingWork) {
        self.stepped += 1;
        self.busy += u64::from(w.any());
        self.inbox += u64::from(w.inbox);
        self.ota += u64::from(w.ota);
        self.queue += u64::from(w.queue);
    }

    /// Element-wise merge (parallel workers each keep a partial ledger;
    /// the sum is schedule-independent because every node is counted by
    /// exactly one worker).
    pub fn merge(&mut self, other: &RoundLedger) {
        self.stepped += other.stepped;
        self.busy += other.busy;
        self.inbox += other.inbox;
        self.ota += other.ota;
        self.queue += other.queue;
    }

    /// Node-steps with no pending work: skipped by the fleet's wake set,
    /// or stepped with nothing to do.
    pub fn idle(&self) -> u64 {
        self.stepped - self.busy
    }

    /// Idle fraction in per-myriad (10000 = every stepped node was idle).
    pub fn idle_per_myriad(&self) -> u64 {
        (self.idle() * 10_000).checked_div(self.stepped).unwrap_or(0)
    }

    /// Deterministic JSON object (fixed key order, integers only).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"stepped\":{},\"busy\":{},\"idle\":{},\"inbox\":{},\"ota\":{},\"queue\":{}}}",
            self.stepped,
            self.busy,
            self.idle(),
            self.inbox,
            self.ota,
            self.queue
        )
    }
}

/// Whole-run ledger totals: the per-round counts summed over every round.
pub type LedgerTotals = RoundLedger;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_counts_every_flag() {
        let mut l = RoundLedger::default();
        l.observe(PendingWork::default());
        l.observe(PendingWork { inbox: true, ..PendingWork::default() });
        l.observe(PendingWork { inbox: true, queue: true, ..PendingWork::default() });
        l.observe(PendingWork { ota: true, ..PendingWork::default() });
        assert_eq!(l.stepped, 4);
        assert_eq!(l.busy, 3);
        assert_eq!(l.idle(), 1);
        assert_eq!((l.inbox, l.ota, l.queue), (2, 1, 1));
        assert_eq!(l.idle_per_myriad(), 2_500);
        assert!(l.inbox + l.ota + l.queue >= l.busy);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = RoundLedger { stepped: 2, busy: 1, inbox: 1, ota: 0, queue: 0 };
        let b = RoundLedger { stepped: 3, busy: 2, inbox: 0, ota: 1, queue: 2 };
        a.merge(&b);
        assert_eq!(a, RoundLedger { stepped: 5, busy: 3, inbox: 1, ota: 1, queue: 2 });
    }

    #[test]
    fn json_is_stable() {
        let l = RoundLedger { stepped: 8, busy: 3, inbox: 2, ota: 1, queue: 1 };
        assert_eq!(
            l.to_json(),
            "{\"stepped\":8,\"busy\":3,\"idle\":5,\"inbox\":2,\"ota\":1,\"queue\":1}"
        );
        assert_eq!(RoundLedger::default().idle_per_myriad(), 0);
    }
}
