//! Perfetto (Chrome trace JSON) export of a campaign: stage spans on the
//! controller track plus instant events for every decision, regression
//! and the verdict. 1 fleet round = 1 µs on the timeline; deterministic
//! output — same controller, same bytes.

use harbor_tower::export::{push_instant, push_meta};

use crate::controller::Helm;

/// The controller's trace process id (cohort pids start at 0; the
/// controller sits far above any realistic cohort count).
const HELM_PID: u32 = 10_000;

fn push_span(out: &mut String, pid: u32, ts: u64, dur: u64, name: &str, args: &str) {
    out.push_str(&format!(
        "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\
         \"tid\":0,\"args\":{{{args}}}}},"
    ));
}

/// Render the campaign as a Chrome trace (open in ui.perfetto.dev).
pub fn chrome_trace(helm: &Helm) -> String {
    let plan = helm.plan();
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    push_meta(
        &mut out,
        HELM_PID,
        &crate::plan::json_escape(&format!("helm: image {} \"{}\"", plan.image, plan.name)),
    );

    let last_round = helm.log().last().map_or(plan.admitted_round, |r| r.round);
    for &(stage, start, end) in helm.stage_spans() {
        let end = end.unwrap_or(last_round);
        let cohorts = &plan.cfg.stages[stage as usize];
        push_span(
            &mut out,
            HELM_PID,
            start,
            end.saturating_sub(start).max(1),
            &format!("stage {stage}"),
            &format!("\"cohorts\":\"{cohorts:?}\""),
        );
    }

    for r in helm.log() {
        match r.decision {
            // Hold records would bury the timeline; spans already show
            // stage residency.
            "hold" => continue,
            _ => push_instant(
                &mut out,
                HELM_PID,
                r.round,
                r.decision,
                &format!("\"stage\":{},\"state\":\"{}\"", r.stage, r.state.name()),
            ),
        }
        if let Some(e) = &r.evidence {
            push_instant(
                &mut out,
                HELM_PID,
                r.round,
                "regression",
                &format!(
                    "\"cohort\":{},\"score\":{},\"fault_pm\":{}",
                    e.cohort, e.score, e.fault_pm
                ),
            );
        }
    }

    if let Some(v) = helm.verdict() {
        push_instant(
            &mut out,
            HELM_PID,
            v.round,
            "verdict",
            &format!("\"outcome\":\"{}\",\"stages_completed\":{}", v.outcome, v.stages_completed),
        );
    }

    if out.ends_with(',') {
        out.pop();
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Baseline, PlanConfig, RolloutPlan};
    use std::collections::BTreeMap;

    #[test]
    fn trace_is_shaped_and_deterministic() {
        let plan = RolloutPlan {
            image: 2,
            name: "surge".to_string(),
            digest: 7,
            certified_stores: 1,
            total_stores: 2,
            cfg: PlanConfig::ladder(2),
            admitted_round: 0,
            start_window: 0,
            baseline: BTreeMap::from([(0, Baseline::default()), (1, Baseline::default())]),
            cohort_nodes: BTreeMap::from([(0, 1), (1, 1)]),
        };
        let mut helm = Helm::new(plan);
        helm.start(0);
        let a = chrome_trace(&helm);
        let b = chrome_trace(&helm);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(a.contains("\"ph\":\"X\""), "stage span present");
        assert!(a.contains("\"name\":\"start-stage\""));
    }
}
