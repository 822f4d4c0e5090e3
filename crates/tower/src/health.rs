//! Per-cohort health scoring and rising-edge regression detection.
//!
//! The score is the primitive a canary promote/rollback decision will
//! consume: an integer in 0..=100 computed from the trailing windows of
//! a cohort's time series. Rates are expressed per-myriad
//! (events per 10 000 node-round samples) so everything stays in
//! integers and the score is bit-reproducible across platforms.
//!
//! Regression detection mirrors the node-local watchdog idiom: a
//! rolling window of fault counts is slid over the *whole* series, and
//! the detector records the first window index where the trailing fault
//! rate crosses the budget (a rising edge), re-arming when the rate
//! falls back under. `regressed_at` answers "when did this cohort go
//! bad", not just "is it bad now".

use crate::counters::CounterSet;
use crate::tower::Window;

/// Budgets for the health score. All rates are per-myriad: events per
/// 10 000 node-round samples within the trailing evaluation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// How many trailing windows the score evaluates.
    pub trailing_windows: usize,
    /// Fault budget; excess costs up to 70 points.
    pub max_fault_pm: u64,
    /// Retransmit budget; excess costs up to 15 points.
    pub max_retransmit_pm: u64,
    /// Recorder ring-drop budget; excess costs up to 10 points.
    pub max_ring_drop_pm: u64,
    /// Each watchdog alert in the trailing window costs 5 points (cap 20).
    pub alert_penalty: u64,
    /// Scores strictly below this are flagged unhealthy.
    pub unhealthy_below: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            trailing_windows: 8,
            max_fault_pm: 10,
            max_retransmit_pm: 800,
            max_ring_drop_pm: 16_000,
            alert_penalty: 5,
            unhealthy_below: 60,
        }
    }
}

/// Scored health for one cohort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortHealth {
    pub cohort: u32,
    /// 0..=100; 100 = no budget exceeded in the trailing window.
    pub score: u64,
    pub healthy: bool,
    /// Trailing-window rates actually observed (per-myriad).
    pub fault_pm: u64,
    pub retransmit_pm: u64,
    pub ring_drop_pm: u64,
    /// Alerts raised within the trailing window.
    pub recent_alerts: u64,
    /// First window index where the rolling fault rate crossed the
    /// budget (rising edge), if it ever did.
    pub regressed_at: Option<u64>,
    /// Number of distinct rising edges over the whole series.
    pub regressions: u64,
}

impl CohortHealth {
    pub fn to_json(&self) -> String {
        let regressed = match self.regressed_at {
            Some(w) => w.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"cohort\":{},\"score\":{},\"healthy\":{},\"fault_pm\":{},\
             \"retransmit_pm\":{},\"ring_drop_pm\":{},\"recent_alerts\":{},\
             \"regressed_at\":{},\"regressions\":{}}}",
            self.cohort,
            self.score,
            self.healthy,
            self.fault_pm,
            self.retransmit_pm,
            self.ring_drop_pm,
            self.recent_alerts,
            regressed,
            self.regressions
        )
    }
}

/// Events per 10 000 samples, rounded down; 0 when there are no samples.
fn per_myriad(events: u64, samples: u64) -> u64 {
    (events * 10_000).checked_div(samples).unwrap_or(0)
}

/// Penalty for exceeding a per-myriad budget, scaled so that `scale`×
/// the budget in excess saturates at `cap` points.
fn penalty(rate: u64, budget: u64, cap: u64, scale: u64) -> u64 {
    let excess = rate.saturating_sub(budget);
    if excess == 0 {
        return 0;
    }
    // Linear in the excess relative to the budget (or absolute when the
    // budget is 0), saturating at `cap`.
    let unit = budget.max(1) * scale;
    (1 + excess * cap / unit.max(1)).min(cap)
}

/// Score one cohort from its window series. `windows` must be
/// in ascending index order (the rollup guarantees this).
pub fn score_cohort(cfg: &HealthConfig, cohort: u32, windows: &[Window]) -> CohortHealth {
    let trailing = cfg.trailing_windows.max(1);
    let start = windows.len().saturating_sub(trailing);
    let mut recent = CounterSet::default();
    for w in &windows[start..] {
        recent.add(&w.counters);
    }

    let fault_pm = per_myriad(recent.faults, recent.samples);
    let retransmit_pm = per_myriad(recent.retransmits, recent.samples);
    let ring_drop_pm = per_myriad(recent.ring_dropped, recent.samples);

    let mut score: u64 = 100;
    score = score.saturating_sub(penalty(fault_pm, cfg.max_fault_pm, 70, 4));
    score = score.saturating_sub(penalty(retransmit_pm, cfg.max_retransmit_pm, 15, 4));
    score = score.saturating_sub(penalty(ring_drop_pm, cfg.max_ring_drop_pm, 10, 4));
    let alert_cost = (recent.alerts * cfg.alert_penalty).min(20);
    score = score.saturating_sub(alert_cost);

    let (regressed_at, regressions) = detect_regressions(cfg, windows);

    CohortHealth {
        cohort,
        score,
        healthy: score >= cfg.unhealthy_below,
        fault_pm,
        retransmit_pm,
        ring_drop_pm,
        recent_alerts: recent.alerts,
        regressed_at,
        regressions,
    }
}

/// Slide a `trailing_windows`-wide rolling sum over the series and
/// record rising edges of the fault rate against the budget.
fn detect_regressions(cfg: &HealthConfig, windows: &[Window]) -> (Option<u64>, u64) {
    let width = cfg.trailing_windows.max(1);
    let mut first: Option<u64> = None;
    let mut edges: u64 = 0;
    let mut armed = true;
    let mut faults: u64 = 0;
    let mut samples: u64 = 0;
    for (i, w) in windows.iter().enumerate() {
        faults += w.counters.faults;
        samples += w.counters.samples;
        if i >= width {
            faults -= windows[i - width].counters.faults;
            samples -= windows[i - width].counters.samples;
        }
        let over = per_myriad(faults, samples) > cfg.max_fault_pm;
        if over && armed {
            edges += 1;
            first.get_or_insert(w.index);
            armed = false;
        } else if !over {
            armed = true;
        }
    }
    (first, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(index: u64, samples: u64, faults: u64) -> Window {
        Window { index, counters: CounterSet { samples, faults, ..CounterSet::default() } }
    }

    #[test]
    fn quiet_cohort_scores_100() {
        let cfg = HealthConfig::default();
        let windows: Vec<Window> = (0..16).map(|i| window(i, 512, 0)).collect();
        let h = score_cohort(&cfg, 0, &windows);
        assert_eq!(h.score, 100);
        assert!(h.healthy);
        assert_eq!(h.regressed_at, None);
        assert_eq!(h.regressions, 0);
    }

    #[test]
    fn empty_series_scores_100() {
        let h = score_cohort(&HealthConfig::default(), 3, &[]);
        assert_eq!(h.score, 100);
        assert!(h.healthy);
    }

    #[test]
    fn crash_loop_is_unhealthy_with_rising_edge() {
        let cfg = HealthConfig::default();
        // 8 quiet windows, then a crash loop: every sample faults.
        let mut windows: Vec<Window> = (0..8).map(|i| window(i, 64, 0)).collect();
        windows.extend((8..16).map(|i| window(i, 64, 64)));
        let h = score_cohort(&cfg, 1, &windows);
        assert!(h.fault_pm >= 10_000 / 2, "trailing rate reflects the loop");
        assert!(!h.healthy, "score {} should be unhealthy", h.score);
        assert_eq!(h.regressed_at, Some(8), "edge at the first bad window");
        assert_eq!(h.regressions, 1, "one edge, no re-fire while saturated");
    }

    #[test]
    fn recovered_cohort_rearms_and_recounts() {
        let cfg = HealthConfig { trailing_windows: 2, ..HealthConfig::default() };
        // bad, good (long enough to drain the rolling window), bad again.
        let windows = vec![
            window(0, 64, 32),
            window(1, 64, 0),
            window(2, 64, 0),
            window(3, 64, 0),
            window(4, 64, 32),
            window(5, 64, 0),
            window(6, 64, 0),
        ];
        let h = score_cohort(&cfg, 0, &windows);
        assert_eq!(h.regressed_at, Some(0));
        assert_eq!(h.regressions, 2, "re-armed edge counts again");
        assert!(h.healthy, "trailing window is quiet again");
    }

    #[test]
    fn single_recovered_fault_stays_healthy() {
        let cfg = HealthConfig::default();
        // One fault in 4096 trailing samples: ~2 per myriad, under budget.
        let mut windows: Vec<Window> = (0..8).map(|i| window(i, 512, 0)).collect();
        windows[7].counters.faults = 1;
        let h = score_cohort(&cfg, 0, &windows);
        assert_eq!(h.score, 100);
        assert!(h.healthy);
    }

    #[test]
    fn json_is_stable() {
        let h = score_cohort(&HealthConfig::default(), 2, &[window(0, 4, 4)]);
        let json = h.to_json();
        assert!(json.starts_with("{\"cohort\":2,\"score\":"));
        assert!(json.contains("\"regressed_at\":0"));
        let none = score_cohort(&HealthConfig::default(), 2, &[]).to_json();
        assert!(none.contains("\"regressed_at\":null"));
    }
}
