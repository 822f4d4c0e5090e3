//! Perfetto (Chrome trace JSON) export of a fleet rollup.
//!
//! Each cohort becomes a trace *process* carrying counter tracks
//! (faults / retransmits / recoveries / ring drops per window) plus an
//! instant event per indexed dump and per detected regression edge.
//! Timestamps are window start rounds (1 round = 1 µs on the timeline);
//! the output is deterministic: same rollup, same bytes.

use crate::tower::FleetRollup;

/// Appends a `process_name` metadata event naming trace process `pid`.
/// Every event helper leaves a trailing comma; the caller drops the last.
pub fn push_meta(out: &mut String, pid: u32, name: &str) {
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"{name}\"}}}},"
    ));
}

fn push_counter(out: &mut String, pid: u32, ts: u64, name: &str, value: u64) {
    out.push_str(&format!(
        "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"value\":{value}}}}},"
    ));
}

/// Appends a process-scoped instant event at `ts` (µs). `args` is the
/// inside of the event's `args` object, already JSON.
pub fn push_instant(out: &mut String, pid: u32, ts: u64, name: &str, args: &str) {
    out.push_str(&format!(
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts},\"pid\":{pid},\
         \"tid\":0,\"args\":{{{args}}}}},"
    ));
}

/// Render the rollup as a Chrome trace (open in ui.perfetto.dev).
pub fn chrome_trace(rollup: &FleetRollup) -> String {
    let mut out = String::with_capacity(8192);
    out.push_str("{\"traceEvents\":[");
    for c in &rollup.cohorts {
        push_meta(&mut out, c.cohort, &format!("cohort {}", c.cohort));
        for w in &c.windows {
            let ts = w.index * rollup.window_len;
            push_counter(&mut out, c.cohort, ts, "faults", w.counters.faults);
            push_counter(&mut out, c.cohort, ts, "retransmits", w.counters.retransmits);
            push_counter(&mut out, c.cohort, ts, "recoveries", w.counters.recoveries);
            push_counter(&mut out, c.cohort, ts, "ring_dropped", w.counters.ring_dropped);
        }
    }
    for h in &rollup.health {
        if let Some(at) = h.regressed_at {
            push_instant(
                &mut out,
                h.cohort,
                at * rollup.window_len,
                "regression",
                &format!("\"score\":{},\"fault_pm\":{}", h.score, h.fault_pm),
            );
        }
    }
    for d in &rollup.dumps {
        push_instant(
            &mut out,
            d.cohort,
            d.round,
            "dump",
            &format!(
                "\"id\":\"{}\",\"node\":{},\"domain\":{},\"code\":{}",
                d.id, d.node, d.domain, d.code
            ),
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
    use crate::counters::{CounterSet, RoundSample};
    use crate::tower::{Tower, TowerConfig};

    #[test]
    fn trace_is_valid_shaped_and_deterministic() {
        let mut tower = Tower::new(&TowerConfig::default());
        for round in 0..8 {
            for node in 0..6u32 {
                tower.ingest(&RoundSample {
                    node,
                    cohort: node % 2,
                    round,
                    deltas: CounterSet {
                        samples: 1,
                        cycles: 50,
                        faults: u64::from(node == 3),
                        ..CounterSet::default()
                    },
                    faults_total: u64::from(node == 3) * (round + 1),
                    alerts_total: 0,
                });
            }
        }
        let a = chrome_trace(&tower.rollup());
        let b = chrome_trace(&tower.rollup());
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(a.contains("\"name\":\"cohort 0\""));
        assert!(a.contains("\"name\":\"faults\""));
        assert_eq!(a.matches("\"ph\":\"M\"").count(), 2, "one process per cohort");
    }

    #[test]
    fn empty_rollup_renders_an_empty_trace() {
        let tower = Tower::new(&TowerConfig::default());
        let trace = chrome_trace(&tower.rollup());
        assert_eq!(trace, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }
}
