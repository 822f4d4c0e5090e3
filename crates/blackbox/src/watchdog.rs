//! Online anomaly detection over per-node telemetry: rolling-window rate
//! detectors that raise typed [`Alert`]s when a node's fault, retransmit
//! or ring-drop rate exceeds its budget.
//!
//! The watchdog consumes monotonically non-decreasing *totals* (what the
//! fleet's telemetry already exposes) and differentiates them itself, so
//! callers never have to track deltas. Alerts fire on the rising edge —
//! the round a window first exceeds its limit — and re-arm once the
//! window falls back under, so a sustained storm yields one alert, not
//! one per round.

/// What tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Protection faults per window exceeded the budget.
    FaultRate,
    /// Radio retransmissions (NACK-driven re-sends) per window exceeded
    /// the budget.
    RetransmitRate,
    /// Trace-ring drops per window exceeded the budget (the node is
    /// shedding observability — postmortems will be blind).
    RingDropRate,
}

impl AlertKind {
    /// Stable snake_case name (JSON key vocabulary).
    pub const fn name(self) -> &'static str {
        match self {
            AlertKind::FaultRate => "fault_rate",
            AlertKind::RetransmitRate => "retransmit_rate",
            AlertKind::RingDropRate => "ring_drop_rate",
        }
    }

    /// Dense index (0..[`AlertKind::COUNT`]) for per-kind accumulation.
    pub const fn index(self) -> usize {
        match self {
            AlertKind::FaultRate => 0,
            AlertKind::RetransmitRate => 1,
            AlertKind::RingDropRate => 2,
        }
    }

    /// Number of alert kinds.
    pub const COUNT: usize = 3;
}

/// One raised alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alert {
    /// Round the window first exceeded its limit.
    pub round: u64,
    /// The node being watched.
    pub node: u32,
    /// Which detector tripped.
    pub kind: AlertKind,
    /// The windowed value that tripped it.
    pub value: u64,
    /// The configured limit it exceeded.
    pub limit: u64,
}

/// Detector budgets: a window length (rounds) and one per-window limit per
/// detector. A limit of `u64::MAX` disables that detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Rolling window length, in rounds (minimum 1).
    pub window: usize,
    /// Faults allowed per window before [`AlertKind::FaultRate`].
    pub max_faults: u64,
    /// Retransmits allowed per window before [`AlertKind::RetransmitRate`].
    pub max_retransmits: u64,
    /// Ring drops allowed per window before [`AlertKind::RingDropRate`].
    pub max_ring_drops: u64,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        // Tuned so normal operation stays silent: a one-off fault with a
        // clean recovery is the paper's expected story (crash-*looping* is
        // the anomaly), and the recorder's bounded ring wraps by design,
        // so only a drop burst far above the steady-state wrap rate fires.
        WatchdogConfig { window: 8, max_faults: 2, max_retransmits: 16, max_ring_drops: 128 }
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RateWindow {
    last_total: u64,
    deltas: std::collections::VecDeque<u64>,
    sum: u64,
    armed: bool,
}

impl RateWindow {
    #[inline]
    fn update(&mut self, window: usize, total: u64) -> u64 {
        // Idle fast path: an unchanged total with an all-zero window would
        // push a zero delta and pop a zero delta — skip the deque churn
        // entirely. (Whenever `sum > 0` the full roll runs, so expiry of
        // real deltas is unaffected.)
        if total == self.last_total && self.sum == 0 {
            return 0;
        }
        // Totals are cumulative; tolerate a reset (e.g. a reflashed node)
        // by treating a decrease as a fresh baseline.
        let delta = total.saturating_sub(self.last_total);
        self.last_total = total;
        self.deltas.push_back(delta);
        self.sum += delta;
        while self.deltas.len() > window {
            self.sum -= self.deltas.pop_front().expect("non-empty");
        }
        self.sum
    }

    #[inline]
    fn edge(&mut self, value: u64, limit: u64) -> bool {
        if value > limit {
            let fire = !self.armed;
            self.armed = true;
            fire
        } else {
            self.armed = false;
            false
        }
    }
}

/// The per-node watchdog: three rolling-rate detectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Watchdog {
    node: u32,
    cfg: WatchdogConfig,
    faults: RateWindow,
    retransmits: RateWindow,
    ring_drops: RateWindow,
    raised: Vec<Alert>,
}

impl Watchdog {
    /// A watchdog for `node` with the given budgets.
    pub fn new(node: u32, cfg: WatchdogConfig) -> Watchdog {
        let cfg = WatchdogConfig { window: cfg.window.max(1), ..cfg };
        Watchdog {
            node,
            cfg,
            faults: RateWindow::default(),
            retransmits: RateWindow::default(),
            ring_drops: RateWindow::default(),
            raised: Vec::new(),
        }
    }

    /// Feeds one round of cumulative totals; returns the alerts raised
    /// *this* round (rising edges only). All alerts ever raised stay
    /// available via [`Watchdog::alerts`].
    #[inline]
    pub fn observe(
        &mut self,
        round: u64,
        faults_total: u64,
        retransmits_total: u64,
        ring_drops_total: u64,
    ) -> Vec<Alert> {
        let w = self.cfg.window;
        let checks = [
            (AlertKind::FaultRate, &mut self.faults, faults_total, self.cfg.max_faults),
            (
                AlertKind::RetransmitRate,
                &mut self.retransmits,
                retransmits_total,
                self.cfg.max_retransmits,
            ),
            (
                AlertKind::RingDropRate,
                &mut self.ring_drops,
                ring_drops_total,
                self.cfg.max_ring_drops,
            ),
        ];
        let mut fired = Vec::new();
        for (kind, win, total, limit) in checks {
            let value = win.update(w, total);
            if win.edge(value, limit) {
                fired.push(Alert { round, node: self.node, kind, value, limit });
            }
        }
        self.raised.extend_from_slice(&fired);
        fired
    }

    /// Every alert raised over this watchdog's lifetime, in round order.
    pub fn alerts(&self) -> &[Alert] {
        &self.raised
    }

    /// Whether every detector's window sums to zero. A quiet watchdog fed
    /// unchanged totals takes the idle fast path in all three detectors
    /// and stays exactly as it was, so a caller whose totals cannot have
    /// moved may skip the call. A watchdog that is not quiet must still be
    /// fed every round: its windows roll down one round at a time, and
    /// that timing decides when a detector re-arms.
    pub fn is_quiet(&self) -> bool {
        self.faults.sum == 0 && self.retransmits.sum == 0 && self.ring_drops.sum == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_on_rising_edge_only() {
        let cfg = WatchdogConfig { window: 4, max_faults: 2, ..WatchdogConfig::default() };
        let mut w = Watchdog::new(7, cfg);
        assert!(w.observe(0, 1, 0, 0).is_empty());
        assert!(w.observe(1, 2, 0, 0).is_empty());
        // Third fault in the window: 3 > 2 fires.
        let fired = w.observe(2, 3, 0, 0);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::FaultRate);
        assert_eq!(fired[0].value, 3);
        assert_eq!(fired[0].node, 7);
        // Still storming: no duplicate alert.
        assert!(w.observe(3, 4, 0, 0).is_empty());
        assert_eq!(w.alerts().len(), 1);
    }

    #[test]
    fn rearms_after_quiet_window() {
        let cfg = WatchdogConfig { window: 2, max_faults: 0, ..WatchdogConfig::default() };
        let mut w = Watchdog::new(0, cfg);
        assert_eq!(w.observe(0, 1, 0, 0).len(), 1);
        // Quiet rounds age the burst out of the 2-round window.
        assert!(w.observe(1, 1, 0, 0).is_empty());
        assert!(w.observe(2, 1, 0, 0).is_empty());
        // A fresh fault trips it again.
        assert_eq!(w.observe(3, 2, 0, 0).len(), 1);
        assert_eq!(w.alerts().len(), 2);
    }

    #[test]
    fn two_bursts_fire_exactly_twice_under_default_budgets() {
        // Regression for the re-arm edge: a fault burst trips the
        // detector once, stays silent while the 8-round default window
        // still holds the burst, re-arms as the deltas age out, and a
        // second burst after the drain fires exactly one more alert —
        // two total, never one (stuck armed) or three (edge re-fires
        // while still over budget).
        let mut w = Watchdog::new(5, WatchdogConfig::default());
        let mut total = 0u64;
        for round in 0..20u64 {
            // Bursts: 3 faults in rounds 0-2, 3 more in rounds 11-13;
            // the 8 rounds between them fully drain the window.
            if matches!(round, 0..=2 | 11..=13) {
                total += 1;
            }
            let fired = w.observe(round, total, 0, 0);
            match round {
                // Third fault of each burst: 3 > max_faults = 2.
                2 | 13 => {
                    assert_eq!(fired.len(), 1, "round {round}: {fired:?}");
                    assert_eq!(fired[0].kind, AlertKind::FaultRate);
                    assert_eq!(fired[0].value, 3);
                }
                _ => assert!(fired.is_empty(), "round {round}: {fired:?}"),
            }
        }
        assert_eq!(w.alerts().len(), 2);
    }

    #[test]
    fn detectors_are_independent() {
        let cfg =
            WatchdogConfig { window: 4, max_faults: 0, max_retransmits: 0, max_ring_drops: 0 };
        let mut w = Watchdog::new(1, cfg);
        let fired = w.observe(0, 1, 1, 1);
        let kinds: Vec<AlertKind> = fired.iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            vec![AlertKind::FaultRate, AlertKind::RetransmitRate, AlertKind::RingDropRate]
        );
    }

    #[test]
    fn fresh_watchdog_is_quiet() {
        assert!(Watchdog::new(0, WatchdogConfig::default()).is_quiet());
    }

    #[test]
    fn fault_keeps_it_loud_for_exactly_one_window() {
        let cfg = WatchdogConfig::default();
        let mut w = Watchdog::new(3, cfg);
        w.observe(0, 1, 0, 0);
        assert!(!w.is_quiet());
        // The fault's delta fills one of the window's `window` slots, so it
        // survives `window - 1` unchanged observations and rolls out on
        // the next one.
        for round in 1..cfg.window as u64 {
            w.observe(round, 1, 0, 0);
            assert!(!w.is_quiet(), "quiet too early, after round {round}");
        }
        w.observe(cfg.window as u64, 1, 0, 0);
        assert!(w.is_quiet());
    }

    #[test]
    fn quiet_observe_of_unchanged_totals_changes_nothing() {
        // The lemma behind skipping idle fleet nodes: feeding a quiet
        // watchdog the totals it already holds is a no-op, whatever
        // happened before it went quiet.
        let cfg =
            WatchdogConfig { window: 3, max_faults: 0, max_retransmits: 0, max_ring_drops: 0 };
        let mut w = Watchdog::new(9, cfg);
        assert_eq!(w.observe(0, 2, 5, 7).len(), 3);
        let mut round = 1;
        while !w.is_quiet() {
            w.observe(round, 2, 5, 7);
            round += 1;
        }
        let quiet = w.clone();
        for r in round..round + 20 {
            assert!(w.observe(r, 2, 5, 7).is_empty());
            assert_eq!(w, quiet, "round {r}");
        }
    }

    #[test]
    fn total_reset_does_not_underflow() {
        let mut w = Watchdog::new(0, WatchdogConfig::default());
        w.observe(0, 100, 0, 0);
        // Node reflashed: totals restart from zero.
        let fired = w.observe(1, 0, 0, 0);
        assert!(fired.is_empty());
    }
}
