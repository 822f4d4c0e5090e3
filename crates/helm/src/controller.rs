//! The rollout state machine: hold / promote / roll-back decisions as a
//! pure function of (plan, rollup).
//!
//! [`Helm::observe`] consumes one [`FleetRollup`] per fleet round and
//! emits [`HelmCommand`]s for the driver to actuate. It reads nothing
//! else — no clocks, no randomness, no node state — so for the same
//! plan and the same rollup series the decision log is byte-identical,
//! no matter how the fleet computing the rollups was scheduled. The
//! fleet's crown-jewel identity (serial ≡ parallel rollup bytes)
//! therefore lifts to the control plane for free: identical rollup
//! bytes in, identical decision bytes out.

use harbor_tower::FleetRollup;

use crate::plan::RolloutPlan;

/// Where a campaign is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutState {
    /// Admitted; no stage granted yet.
    Admitting,
    /// Stage `s` of the ladder is in flight (not the last).
    Canary(u32),
    /// The final stage is in flight — the whole fleet is granted.
    Promoting,
    /// Every stage promoted and the image committed as known-good.
    Done,
    /// Rollback commanded; waiting for every canary node to restore.
    RollingBack,
    /// Every flashed node restored its pre-rollout checkpoint.
    RolledBack,
}

impl RolloutState {
    /// Terminal states make no further decisions.
    pub fn terminal(&self) -> bool {
        matches!(self, RolloutState::Done | RolloutState::RolledBack)
    }

    /// Stable lower-case name used in JSON and tables.
    pub fn name(&self) -> &'static str {
        match self {
            RolloutState::Admitting => "admitting",
            RolloutState::Canary(_) => "canary",
            RolloutState::Promoting => "promoting",
            RolloutState::Done => "done",
            RolloutState::RollingBack => "rolling-back",
            RolloutState::RolledBack => "rolled-back",
        }
    }
}

/// An actuation the controller asks the driver to perform on the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HelmCommand {
    /// Widen the rollout to `cohorts` (the stage's new grants).
    Extend {
        /// Ladder index being started.
        stage: u32,
        /// Cohorts newly granted by this stage.
        cohorts: Vec<u32>,
    },
    /// Restore every flashed node and quarantine the image fleet-wide.
    RollBack,
    /// Commit the image as the fleet's known-good.
    Commit,
}

/// Why a rollback fired: the offending cohort and the health evidence
/// that condemned it, down to resolvable postmortem dump ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegressionEvidence {
    /// The worst in-flight cohort at decision time.
    pub cohort: u32,
    /// Tower window index the decision was made in.
    pub window: u64,
    /// The cohort's health score (0..=100).
    pub score: u64,
    /// Trailing fault rate, per 10 000 node-round samples.
    pub fault_pm: u64,
    /// First rising-edge window of the fault rate, if the detector fired.
    pub regressed_at: Option<u64>,
    /// Up to three postmortem dump ids from the cohort, resolvable via
    /// [`FleetRollup::find_dump`].
    pub dumps: Vec<String>,
}

impl RegressionEvidence {
    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        let regressed = match self.regressed_at {
            Some(w) => w.to_string(),
            None => "null".to_string(),
        };
        let mut out = format!(
            "{{\"cohort\":{},\"window\":{},\"score\":{},\"fault_pm\":{},\"regressed_at\":{}",
            self.cohort, self.window, self.score, self.fault_pm, regressed
        );
        out.push_str(",\"dumps\":[");
        for (i, d) in self.dumps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(d);
            out.push('"');
        }
        out.push_str("]}");
        out
    }
}

/// The typed outcome of a finished campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloutVerdict {
    /// Image id the campaign rolled.
    pub image: u16,
    /// `"promoted"` or `"rolled-back"`.
    pub outcome: &'static str,
    /// Fleet round the verdict landed on.
    pub round: u64,
    /// Ladder stages fully promoted before the verdict.
    pub stages_completed: u32,
    /// The fleet's known-good image id at verdict time (what rolled-back
    /// canaries are running again).
    pub known_good: Option<u16>,
    /// Present iff the outcome is a rollback.
    pub evidence: Option<RegressionEvidence>,
}

impl RolloutVerdict {
    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        let known = match self.known_good {
            Some(id) => id.to_string(),
            None => "null".to_string(),
        };
        let evidence = match &self.evidence {
            Some(e) => e.to_json(),
            None => "null".to_string(),
        };
        format!(
            "{{\"image\":{},\"outcome\":\"{}\",\"round\":{},\"stages_completed\":{},\
             \"known_good\":{},\"evidence\":{}}}",
            self.image, self.outcome, self.round, self.stages_completed, known, evidence
        )
    }
}

/// One line of the decision log: what the controller decided on one
/// round, and in which state it left the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Fleet round of the decision.
    pub round: u64,
    /// State *after* the decision.
    pub state: RolloutState,
    /// Decision verb: `admit`, `start-stage`, `hold`, `promote`,
    /// `complete`, `roll-back` or `rolled-back`.
    pub decision: &'static str,
    /// Ladder stage the decision concerned.
    pub stage: u32,
    /// Human-readable one-liner (deterministic).
    pub detail: String,
    /// Regression evidence, on `roll-back` records.
    pub evidence: Option<RegressionEvidence>,
}

impl DecisionRecord {
    /// Deterministic JSON object.
    pub fn to_json(&self) -> String {
        let evidence = match &self.evidence {
            Some(e) => e.to_json(),
            None => "null".to_string(),
        };
        format!(
            "{{\"round\":{},\"state\":\"{}\",\"decision\":\"{}\",\"stage\":{},\
             \"detail\":\"{}\",\"evidence\":{}}}",
            self.round,
            self.state.name(),
            self.decision,
            self.stage,
            crate::plan::json_escape(&self.detail),
            evidence
        )
    }
}

/// The rollout controller for one campaign.
#[derive(Debug, Clone)]
pub struct Helm {
    plan: RolloutPlan,
    state: RolloutState,
    /// Current ladder index (also valid while rolling back: the stage
    /// that was in flight when the rollback fired).
    stage: u32,
    /// Consecutive healthy fully-flashed observations of the current stage.
    streak: u64,
    /// Observations spent in the current stage (stall valve input).
    stage_rounds: u64,
    log: Vec<DecisionRecord>,
    verdict: Option<RolloutVerdict>,
    /// `(stage, start_round, end_round)` spans for the Perfetto export.
    spans: Vec<(u32, u64, Option<u64>)>,
}

impl Helm {
    /// A controller for an admitted plan, in [`RolloutState::Admitting`].
    pub fn new(plan: RolloutPlan) -> Helm {
        let round = plan.admitted_round;
        let detail = format!(
            "image {} \"{}\" admitted: digest {:016x}, {}/{} stores certified, {} stages",
            plan.image,
            plan.name,
            plan.digest,
            plan.certified_stores,
            plan.total_stores,
            plan.cfg.stages.len()
        );
        let mut helm = Helm {
            plan,
            state: RolloutState::Admitting,
            stage: 0,
            streak: 0,
            stage_rounds: 0,
            log: Vec::new(),
            verdict: None,
            spans: Vec::new(),
        };
        helm.record(round, "admit", detail, None);
        helm
    }

    /// The plan under execution.
    pub fn plan(&self) -> &RolloutPlan {
        &self.plan
    }

    /// Current state.
    pub fn state(&self) -> RolloutState {
        self.state
    }

    /// Current ladder stage index.
    pub fn stage(&self) -> u32 {
        self.stage
    }

    /// The decision log so far.
    pub fn log(&self) -> &[DecisionRecord] {
        &self.log
    }

    /// The verdict, once the campaign reached a terminal state.
    pub fn verdict(&self) -> Option<&RolloutVerdict> {
        self.verdict.as_ref()
    }

    /// Stage spans for trace export: `(stage, start_round, end_round)`;
    /// `None` end means the stage was still open at the last decision.
    pub fn stage_spans(&self) -> &[(u32, u64, Option<u64>)] {
        &self.spans
    }

    /// The decision log as one deterministic JSON array — the byte
    /// string the identity gates compare.
    pub fn log_json(&self) -> String {
        let mut out = String::with_capacity(256 * self.log.len().max(1));
        out.push('[');
        for (i, r) in self.log.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push(']');
        out
    }

    fn record(
        &mut self,
        round: u64,
        decision: &'static str,
        detail: String,
        evidence: Option<RegressionEvidence>,
    ) {
        self.log.push(DecisionRecord {
            round,
            state: self.state,
            decision,
            stage: self.stage,
            detail,
            evidence,
        });
    }

    /// State after granting ladder stage `s`.
    fn in_flight_state(&self, s: u32) -> RolloutState {
        if s as usize + 1 == self.plan.cfg.stages.len() {
            RolloutState::Promoting
        } else {
            RolloutState::Canary(s)
        }
    }

    /// Grants the first stage. Returns the command the driver must apply.
    ///
    /// # Panics
    ///
    /// Panics unless the controller is in [`RolloutState::Admitting`].
    pub fn start(&mut self, round: u64) -> HelmCommand {
        assert!(
            matches!(self.state, RolloutState::Admitting),
            "start() is only valid while admitting"
        );
        let cohorts = self.plan.cfg.stages[0].clone();
        self.state = self.in_flight_state(0);
        self.stage = 0;
        self.streak = 0;
        self.stage_rounds = 0;
        self.spans.push((0, round, None));
        self.record(round, "start-stage", format!("stage 0 granted: cohorts {cohorts:?}"), None);
        HelmCommand::Extend { stage: 0, cohorts }
    }

    /// Cohorts in flight: every grant of stages `0..=self.stage`.
    fn in_flight(&self) -> Vec<u32> {
        self.plan.cfg.stages[..=self.stage as usize].iter().flatten().copied().collect()
    }

    /// Installs delta over baseline for `cohort`, from the rollup totals.
    fn installs_delta(&self, rollup: &FleetRollup, cohort: u32) -> u64 {
        let base = self.plan.baseline.get(&cohort).copied().unwrap_or_default();
        rollup
            .cohorts
            .iter()
            .find(|c| c.cohort == cohort)
            .map_or(0, |c| c.totals.installs.saturating_sub(base.installs))
    }

    /// Rollbacks delta over baseline for `cohort`.
    fn rollbacks_delta(&self, rollup: &FleetRollup, cohort: u32) -> u64 {
        let base = self.plan.baseline.get(&cohort).copied().unwrap_or_default();
        rollup
            .cohorts
            .iter()
            .find(|c| c.cohort == cohort)
            .map_or(0, |c| c.totals.rollbacks.saturating_sub(base.rollbacks))
    }

    /// The worst regressing in-flight cohort, if any: unhealthy score or
    /// a rising edge at/after the campaign's start window.
    fn regression(&self, rollup: &FleetRollup) -> Option<RegressionEvidence> {
        let in_flight = self.in_flight();
        let window = rollup.last_round / rollup.window_len.max(1);
        let mut worst: Option<RegressionEvidence> = None;
        for h in &rollup.health {
            if !in_flight.contains(&h.cohort) {
                continue;
            }
            let edged = h.regressed_at.is_some_and(|w| w >= self.plan.start_window);
            if h.score >= self.plan.cfg.min_score && !edged {
                continue;
            }
            let dumps: Vec<String> = rollup
                .dumps
                .iter()
                .filter(|d| d.cohort == h.cohort)
                .take(3)
                .map(|d| d.id.clone())
                .collect();
            let candidate = RegressionEvidence {
                cohort: h.cohort,
                window,
                score: h.score,
                fault_pm: h.fault_pm,
                regressed_at: h.regressed_at,
                dumps,
            };
            // Worst = lowest score; ties break on lowest cohort id
            // (health is in ascending cohort order, so `<` keeps the
            // first seen).
            if worst.as_ref().is_none_or(|w| candidate.score < w.score) {
                worst = Some(candidate);
            }
        }
        worst
    }

    /// One decision round. Reads only `(self, rollup)`; returns the
    /// commands the driver must apply to the fleet, in order.
    pub fn observe(&mut self, round: u64, rollup: &FleetRollup) -> Vec<HelmCommand> {
        match self.state {
            RolloutState::Admitting | RolloutState::Done | RolloutState::RolledBack => Vec::new(),
            RolloutState::Canary(_) | RolloutState::Promoting => self.observe_stage(round, rollup),
            RolloutState::RollingBack => self.observe_rollback(round, rollup),
        }
    }

    fn observe_stage(&mut self, round: u64, rollup: &FleetRollup) -> Vec<HelmCommand> {
        self.stage_rounds += 1;

        if let Some(evidence) = self.regression(rollup) {
            return self.roll_back(round, evidence);
        }

        // Stage progress: every cohort granted *by this stage* has
        // flashed all its nodes (earlier stages already held this when
        // they promoted).
        let stage_cohorts = &self.plan.cfg.stages[self.stage as usize];
        let flashed = stage_cohorts.iter().all(|&c| {
            let nodes = self.plan.cohort_nodes.get(&c).copied().unwrap_or(0);
            self.installs_delta(rollup, c) >= nodes
        });

        if flashed {
            self.streak += 1;
        } else {
            self.streak = 0;
            if self.stage_rounds > self.plan.cfg.max_stage_rounds {
                let window = rollup.last_round / rollup.window_len.max(1);
                let evidence = RegressionEvidence {
                    cohort: *stage_cohorts.first().unwrap_or(&0),
                    window,
                    score: 0,
                    fault_pm: 0,
                    regressed_at: None,
                    dumps: Vec::new(),
                };
                self.record(
                    round,
                    "hold",
                    format!(
                        "stage {} stalled: not fully flashed after {} rounds",
                        self.stage, self.stage_rounds
                    ),
                    None,
                );
                return self.roll_back(round, evidence);
            }
        }

        if self.streak >= self.plan.cfg.promote_after {
            return self.promote(round);
        }

        self.record(
            round,
            "hold",
            format!(
                "stage {}: flashed={} streak={}/{}",
                self.stage, flashed, self.streak, self.plan.cfg.promote_after
            ),
            None,
        );
        Vec::new()
    }

    fn promote(&mut self, round: u64) -> Vec<HelmCommand> {
        if let Some(span) = self.spans.last_mut() {
            span.2 = Some(round);
        }
        let next = self.stage + 1;
        if (next as usize) < self.plan.cfg.stages.len() {
            self.record(
                round,
                "promote",
                format!(
                    "stage {} healthy for {} rounds; starting stage {next}",
                    self.stage, self.streak
                ),
                None,
            );
            self.stage = next;
            self.streak = 0;
            self.stage_rounds = 0;
            self.state = self.in_flight_state(next);
            self.spans.push((next, round, None));
            let cohorts = self.plan.cfg.stages[next as usize].clone();
            self.record(
                round,
                "start-stage",
                format!("stage {next} granted: cohorts {cohorts:?}"),
                None,
            );
            vec![HelmCommand::Extend { stage: next, cohorts }]
        } else {
            self.state = RolloutState::Done;
            self.verdict = Some(RolloutVerdict {
                image: self.plan.image,
                outcome: "promoted",
                round,
                stages_completed: self.plan.cfg.stages.len() as u32,
                known_good: Some(self.plan.image),
                evidence: None,
            });
            self.record(
                round,
                "complete",
                format!(
                    "all {} stages promoted; image {} committed known-good",
                    self.plan.cfg.stages.len(),
                    self.plan.image
                ),
                None,
            );
            vec![HelmCommand::Commit]
        }
    }

    fn roll_back(&mut self, round: u64, evidence: RegressionEvidence) -> Vec<HelmCommand> {
        if let Some(span) = self.spans.last_mut() {
            span.2 = Some(round);
        }
        self.state = RolloutState::RollingBack;
        let detail = format!(
            "cohort {} regressed (score {}, fault_pm {}); rolling image {} back",
            evidence.cohort, evidence.score, evidence.fault_pm, self.plan.image
        );
        self.record(round, "roll-back", detail, Some(evidence));
        vec![HelmCommand::RollBack]
    }

    fn observe_rollback(&mut self, round: u64, rollup: &FleetRollup) -> Vec<HelmCommand> {
        // Complete when every in-flight cohort has as many restores as
        // flashes — each canary node that burned the image took exactly
        // one checkpoint and exactly one restore.
        let done = self
            .in_flight()
            .iter()
            .all(|&c| self.rollbacks_delta(rollup, c) >= self.installs_delta(rollup, c));
        if !done {
            self.record(round, "hold", "waiting for canary nodes to restore".to_string(), None);
            return Vec::new();
        }
        self.state = RolloutState::RolledBack;
        let evidence = self.log.iter().rev().find_map(|r| r.evidence.clone());
        self.verdict = Some(RolloutVerdict {
            image: self.plan.image,
            outcome: "rolled-back",
            round,
            stages_completed: self.stage,
            known_good: None,
            evidence,
        });
        self.record(
            round,
            "rolled-back",
            format!("image {} quarantined; every canary node restored", self.plan.image),
            None,
        );
        Vec::new()
    }

    /// Patches the verdict's `known_good` (the driver knows the fleet's
    /// committed image; the pure controller does not).
    pub fn cite_known_good(&mut self, id: Option<u16>) {
        if let Some(v) = &mut self.verdict {
            if v.outcome == "rolled-back" {
                v.known_good = id;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Baseline, PlanConfig};
    use harbor_tower::{CohortSeries, CounterSet, FleetRollup};

    fn plan(cohorts: u32, nodes_per: u64) -> RolloutPlan {
        let cfg = PlanConfig::ladder(cohorts);
        RolloutPlan {
            image: 2,
            name: "surge".to_string(),
            digest: 1,
            certified_stores: 1,
            total_stores: 1,
            cfg,
            admitted_round: 0,
            start_window: 0,
            baseline: (0..cohorts).map(|c| (c, Baseline::default())).collect(),
            cohort_nodes: (0..cohorts).map(|c| (c, nodes_per)).collect(),
        }
    }

    /// A rollup where cohorts in `installed` have flashed all nodes and
    /// cohorts in `faulting` crash-loop.
    fn rollup(
        cohorts: u32,
        nodes_per: u64,
        round: u64,
        installed: &[u32],
        restored: &[u32],
        faulting: &[u32],
    ) -> FleetRollup {
        let series: Vec<CohortSeries> = (0..cohorts)
            .map(|c| {
                let mut totals =
                    CounterSet { samples: nodes_per * (round + 1), ..CounterSet::default() };
                if installed.contains(&c) {
                    totals.installs = nodes_per;
                    totals.images_admitted = nodes_per;
                }
                if restored.contains(&c) {
                    totals.rollbacks = nodes_per;
                }
                if faulting.contains(&c) {
                    totals.faults = nodes_per * (round + 1);
                }
                CohortSeries {
                    cohort: c,
                    totals,
                    folded: CounterSet::default(),
                    folded_windows: 0,
                    windows: vec![harbor_tower::Window {
                        index: round,
                        counters: CounterSet {
                            samples: nodes_per,
                            faults: if faulting.contains(&c) { nodes_per } else { 0 },
                            ..CounterSet::default()
                        },
                    }],
                    domain_faults: [0; 8],
                    alert_kinds: [0; 3],
                    cycle_sketch: harbor_tower::QuantileSketch::default(),
                }
            })
            .collect();
        let health = series
            .iter()
            .map(|c| {
                harbor_tower::score_cohort(
                    &harbor_tower::HealthConfig::default(),
                    c.cohort,
                    &c.windows,
                )
            })
            .collect();
        FleetRollup {
            window_len: 1,
            last_round: round,
            ingested: 0,
            cohorts: series,
            health,
            top_nodes: Vec::new(),
            dumps: Vec::new(),
            dumps_dropped: 0,
        }
    }

    #[test]
    fn healthy_campaign_promotes_to_done() {
        let mut helm = Helm::new(plan(4, 3));
        assert_eq!(helm.state(), RolloutState::Admitting);
        let cmd = helm.start(0);
        assert_eq!(cmd, HelmCommand::Extend { stage: 0, cohorts: vec![0] });

        let mut round = 1;
        let mut committed = false;
        let mut granted: Vec<u32> = vec![0];
        while round < 64 && !helm.state().terminal() {
            let r = rollup(4, 3, round, &granted, &[], &[]);
            for cmd in helm.observe(round, &r) {
                match cmd {
                    HelmCommand::Extend { cohorts, .. } => granted.extend(cohorts),
                    HelmCommand::Commit => committed = true,
                    HelmCommand::RollBack => panic!("healthy campaign must not roll back"),
                }
            }
            round += 1;
        }
        assert_eq!(helm.state(), RolloutState::Done);
        assert!(committed, "Done emits Commit");
        let v = helm.verdict().expect("verdict");
        assert_eq!(v.outcome, "promoted");
        assert_eq!(v.stages_completed, 3, "ladder(4) has 3 stages");
        assert_eq!(granted, vec![0, 1, 2, 3], "stages granted in ladder order");
    }

    #[test]
    fn crash_loop_rolls_back_with_evidence() {
        let mut helm = Helm::new(plan(4, 3));
        helm.start(0);
        // Stage 0 cohort flashes, then crash-loops before promotion.
        let r = rollup(4, 3, 1, &[0], &[], &[0]);
        let cmds = helm.observe(1, &r);
        assert_eq!(cmds, vec![HelmCommand::RollBack]);
        assert_eq!(helm.state(), RolloutState::RollingBack);

        // Not yet restored: hold.
        assert!(helm.observe(2, &rollup(4, 3, 2, &[0], &[], &[0])).is_empty());
        assert_eq!(helm.state(), RolloutState::RollingBack);

        // All restored: terminal verdict with evidence.
        assert!(helm.observe(3, &rollup(4, 3, 3, &[0], &[0], &[0])).is_empty());
        assert_eq!(helm.state(), RolloutState::RolledBack);
        let v = helm.verdict().expect("verdict");
        assert_eq!(v.outcome, "rolled-back");
        let e = v.evidence.as_ref().expect("evidence");
        assert_eq!(e.cohort, 0);
        assert!(e.score < 60, "unhealthy score condemned the cohort");
    }

    #[test]
    fn stall_rolls_back() {
        let mut p = plan(2, 3);
        p.cfg.max_stage_rounds = 4;
        let mut helm = Helm::new(p);
        helm.start(0);
        let mut rolled = false;
        for round in 1..10 {
            // Nobody ever flashes: dissemination is stuck.
            let r = rollup(2, 3, round, &[], &[], &[]);
            if helm.observe(round, &r).contains(&HelmCommand::RollBack) {
                rolled = true;
                break;
            }
        }
        assert!(rolled, "stalled stage must roll back");
    }

    #[test]
    fn terminal_states_are_silent() {
        let mut helm = Helm::new(plan(1, 2));
        helm.start(0);
        let r = rollup(1, 2, 1, &[0], &[], &[]);
        let mut round = 1;
        while !helm.state().terminal() {
            helm.observe(round, &r);
            round += 1;
        }
        let len = helm.log().len();
        assert!(helm.observe(round, &r).is_empty());
        assert_eq!(helm.log().len(), len, "terminal observe records nothing");
    }

    #[test]
    fn log_json_is_deterministic() {
        let run = || {
            let mut helm = Helm::new(plan(2, 2));
            helm.start(0);
            for round in 1..8 {
                let r = rollup(2, 2, round, &[0, 1], &[], &[]);
                helm.observe(round, &r);
            }
            helm.log_json()
        };
        assert_eq!(run(), run());
        assert!(run().starts_with("[{\"round\":0,\"state\":\"admitting\",\"decision\":\"admit\""));
    }
}
