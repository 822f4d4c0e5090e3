//! The driver: wires a pure [`Helm`] controller to a live
//! [`harbor_fleet::Fleet`].
//!
//! [`HelmRun`] owns both halves of the loop. Each round it steps the
//! fleet, pulls the tower rollup, lets the controller decide, and
//! actuates whatever it commanded — stage grants, rollback, commit.
//! Everything the controller sees is the rollup bytes; everything it
//! does goes through the fleet's rollout API. The driver adds no
//! decision logic of its own.

use std::collections::BTreeMap;

use harbor_fleet::{Fleet, ModuleImage};

use crate::admit::{verify_image, AdmitError};
use crate::controller::{Helm, HelmCommand, RolloutState};
use crate::plan::{Baseline, PlanConfig, RolloutPlan};

/// A fleet with an attached rollout controller.
pub struct HelmRun {
    fleet: Fleet,
    helm: Option<Helm>,
}

impl HelmRun {
    /// Wraps a fleet. The fleet must have a tower attached before any
    /// campaign can be admitted (the controller is blind without one).
    pub fn new(fleet: Fleet) -> HelmRun {
        HelmRun { fleet, helm: None }
    }

    /// The wrapped fleet.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Mutable access to the wrapped fleet (host-side posts etc.).
    pub fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    /// The active (or finished) controller, if a campaign was admitted.
    pub fn helm(&self) -> Option<&Helm> {
        self.helm.as_ref()
    }

    /// Unwraps back into the fleet.
    pub fn into_fleet(self) -> Fleet {
        self.fleet
    }

    /// Admits `image` for a staged rollout under `cfg` and grants the
    /// first stage. Runs the full admission gate: deep store
    /// verification (and policy rehearsal under SFI), a health check
    /// over every targeted cohort, and one-campaign-at-a-time.
    ///
    /// # Errors
    ///
    /// [`AdmitError`] if any admission gate refuses; the fleet is
    /// untouched on error.
    pub fn admit(&mut self, image: &ModuleImage, cfg: PlanConfig) -> Result<u16, AdmitError> {
        if let Some(h) = &self.helm {
            if !h.state().terminal() {
                return Err(AdmitError::RolloutActive(h.plan().image));
            }
        }
        if cfg.stages.iter().all(Vec::is_empty) {
            return Err(AdmitError::EmptyPlan);
        }
        let layout = self.fleet.layout();
        let admission =
            verify_image(image, &layout, self.fleet.protection(), self.fleet.load_policy())?;
        let rollup = self.fleet.tower_rollup().ok_or(AdmitError::NoTower)?;
        for &cohort in &cfg.all_cohorts() {
            if rollup.health.iter().any(|h| h.cohort == cohort && !h.healthy) {
                return Err(AdmitError::UnhealthyCohort(cohort));
            }
        }

        // Baselines: measure campaign progress as deltas from here.
        let baseline: BTreeMap<u32, Baseline> = rollup
            .cohorts
            .iter()
            .map(|c| {
                (c.cohort, Baseline { installs: c.totals.installs, rollbacks: c.totals.rollbacks })
            })
            .collect();
        let cohort_nodes = cohort_sizes(self.fleet.len() as u64, self.fleet.cohorts());
        let round = self.fleet.round();
        let window_len = rollup.window_len.max(1);

        let first_stage = cfg.stages[0].clone();
        let id = self.fleet.begin_rollout(image, &first_stage);
        let plan = RolloutPlan {
            image: id,
            name: image.name.clone(),
            digest: admission.digest,
            certified_stores: admission.certified_stores,
            total_stores: admission.total_stores,
            cfg,
            admitted_round: round,
            start_window: round / window_len,
            baseline,
            cohort_nodes,
        };
        let mut helm = Helm::new(plan);
        // start() returns the stage-0 grant; begin_rollout above already
        // applied it, so the command is informational here.
        let _ = helm.start(round);
        self.helm = Some(helm);
        Ok(id)
    }

    /// One closed-loop round: step the fleet, then (if a campaign is in
    /// flight) let the controller observe the fresh rollup and actuate
    /// its commands.
    pub fn step_round(&mut self) {
        self.fleet.step_round();
        let Some(helm) = &mut self.helm else { return };
        if helm.state().terminal() {
            return;
        }
        // The feed inside `step_round` left every counter routed, so the
        // rollup needs no second pass over the nodes.
        let rollup = self.fleet.round_rollup().expect("admitted campaigns require a tower");
        let round = self.fleet.round();
        let id = helm.plan().image;
        let commands = helm.observe(round, &rollup);
        for cmd in commands {
            match cmd {
                HelmCommand::Extend { cohorts, .. } => self.fleet.extend_rollout(id, &cohorts),
                HelmCommand::RollBack => self.fleet.rollback_rollout(id),
                HelmCommand::Commit => self.fleet.commit_rollout(id),
            }
        }
        if helm.state() == RolloutState::RolledBack {
            helm.cite_known_good(self.fleet.known_good());
        }
    }

    /// Steps closed-loop rounds until the campaign reaches a terminal
    /// state or `max_rounds` elapse. Each round `workload` posts the
    /// round's host-side messages before the step, and `after_round` sees
    /// the run after it. Returns the terminal state, if one was reached.
    pub fn run_to_verdict(
        &mut self,
        max_rounds: u64,
        mut workload: impl FnMut(&mut Fleet),
        mut after_round: impl FnMut(&HelmRun),
    ) -> Option<RolloutState> {
        for _ in 0..max_rounds {
            workload(&mut self.fleet);
            self.step_round();
            after_round(self);
            if let Some(h) = &self.helm {
                if h.state().terminal() {
                    return Some(h.state());
                }
            }
        }
        self.helm.as_ref().map(Helm::state).filter(|s| s.terminal())
    }
}

/// Node counts per cohort for a fleet of `nodes` tagged `i % cohorts`.
fn cohort_sizes(nodes: u64, cohorts: u32) -> BTreeMap<u32, u64> {
    let cohorts = u64::from(cohorts.max(1));
    (0..cohorts)
        .map(|c| {
            let n = nodes / cohorts + u64::from(c < nodes % cohorts);
            (c as u32, n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_sizes_cover_every_node() {
        for nodes in [1u64, 7, 12, 512] {
            for cohorts in [1u32, 3, 8] {
                let sizes = cohort_sizes(nodes, cohorts);
                assert_eq!(sizes.values().sum::<u64>(), nodes, "{nodes}/{cohorts}");
                // Node i lands in cohort i % cohorts: count directly.
                for (&c, &n) in &sizes {
                    let direct =
                        (0..nodes).filter(|i| i % u64::from(cohorts) == u64::from(c)).count();
                    assert_eq!(n, direct as u64, "cohort {c} of {nodes}/{cohorts}");
                }
            }
        }
    }
}
