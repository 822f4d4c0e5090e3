//! Per-node and fleet-aggregate counters, exported as JSON.
//!
//! The JSON is rendered by hand into a deterministic byte string (fixed key
//! order, no maps, no floats from iteration order) so a serial and a
//! parallel run of the same seed can be compared byte-for-byte.
//!
//! A node counts into one [`CounterSet`] (see `Node::counters`).
//! [`NodeTelemetry`] is a view of that table, built when the fleet takes a
//! snapshot: plain fields for the traffic and machine counters, and a
//! [`MetricsRegistry`] for the protection and rollout counters, read
//! through accessors, under the names harbor-scope's registry uses.

use harbor_scope::{EventKind, MetricsRegistry};
use harbor_tower::CounterSet;

/// Counters for one node: a view of its counter table (`Node::telemetry`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeTelemetry {
    /// Node id.
    pub id: u32,
    /// Total simulated cycles executed by the node's CPU.
    pub cycles: u64,
    /// Cycles the CPU spent asleep.
    pub idle_cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Packets received from the radio.
    pub rx: u64,
    /// Packets handed to the radio.
    pub tx: u64,
    /// Application messages accepted into the kernel queue.
    pub messages: u64,
    /// Application messages dropped because the queue was full.
    pub queue_drops: u64,
    /// Dissemination chunks received (first copies, duplicates excluded).
    pub chunks: u64,
    /// Retransmission requests sent.
    pub requests: u64,
    /// Event bodies this node's trace ring shed under pressure (0 with no
    /// sink attached) — nonzero means postmortems on this node are losing
    /// history.
    pub ring_dropped: u64,
    /// Watchdog alerts this node has raised (0 with no blackbox attached).
    /// Alert decisions are a pure function of the node's own counters, so
    /// the count is schedule-independent like everything else here.
    pub alerts: u64,
    /// Round at which the disseminated module was installed, if it was.
    pub installed_round: Option<u64>,
    /// The protection and rollout counters by registry name
    /// (`fleet.faults`, `umpu.stores_elided`, `helm.rollbacks`, ...).
    pub metrics: MetricsRegistry,
}

impl NodeTelemetry {
    /// The view of node `id`'s counter table. A registry entry at zero has
    /// no key, as if it had never been counted.
    pub(crate) fn view(id: u32, c: &CounterSet, installed_round: Option<u64>) -> NodeTelemetry {
        let mut registry = MetricsRegistry::new();
        for (name, value) in [
            ("fleet.faults", c.faults),
            ("fleet.contained", c.contained),
            ("fleet.recoveries", c.recoveries),
            ("fleet.quarantined", c.quarantined),
            ("umpu.stores_elided", c.stores_elided),
            ("helm.images_admitted", c.images_admitted),
            ("helm.stages_promoted", c.stages_promoted),
            ("helm.rollbacks", c.rollbacks),
        ] {
            if value > 0 {
                registry.inc(name, value);
            }
        }
        NodeTelemetry {
            id,
            cycles: c.cycles,
            idle_cycles: c.idle_cycles,
            instructions: c.instructions,
            rx: c.rx,
            tx: c.tx,
            messages: c.messages,
            queue_drops: c.queue_drops,
            chunks: c.chunks,
            requests: c.retransmits,
            ring_dropped: c.ring_dropped,
            alerts: c.alerts,
            installed_round,
            metrics: registry,
        }
    }

    /// Faults raised while running handlers (`fleet.faults`).
    pub fn faults(&self) -> u64 {
        self.metrics.counter("fleet.faults")
    }

    /// Faults that were protection violations, contained by Harbor
    /// (`fleet.contained`).
    pub fn contained(&self) -> u64 {
        self.metrics.counter("fleet.contained")
    }

    /// Times the kernel's exception path restored a clean trusted context
    /// (`fleet.recoveries`).
    pub fn recoveries(&self) -> u64 {
        self.metrics.counter("fleet.recoveries")
    }

    /// Disseminated images rejected by the load policy's admission gate
    /// (`fleet.quarantined`).
    pub fn quarantined(&self) -> u64 {
        self.metrics.counter("fleet.quarantined")
    }

    /// Renders this node's counters as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"cycles\":{},\"idle_cycles\":{},\"instructions\":{},\
             \"rx\":{},\"tx\":{},\"messages\":{},\"queue_drops\":{},\
             \"faults\":{},\"contained\":{},\"recoveries\":{},\
             \"chunks\":{},\"requests\":{},\"ring_dropped\":{},\"alerts\":{},\
             \"quarantined\":{},\"installed_round\":{}}}",
            self.id,
            self.cycles,
            self.idle_cycles,
            self.instructions,
            self.rx,
            self.tx,
            self.messages,
            self.queue_drops,
            self.faults(),
            self.contained(),
            self.recoveries(),
            self.chunks,
            self.requests,
            self.ring_dropped,
            self.alerts,
            self.quarantined(),
            match self.installed_round {
                Some(r) => r.to_string(),
                None => "null".to_string(),
            },
        )
    }
}

/// Fleet-level reduction of the per-node trace sinks, present only when the
/// run attached sinks ([`crate::FleetConfig::scope`]): per-kind event sums
/// plus the sum/max/p99 of events recorded per node. Everything is an
/// integer and ordering is fixed (kind discriminant order), so the JSON
/// stays byte-identical between serial and parallel runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScopeAggregate {
    /// Events recorded across all nodes (including dropped bodies).
    pub recorded: u64,
    /// Event bodies shed by ring sinks under pressure, fleet-wide.
    pub dropped: u64,
    /// Largest per-node recorded count.
    pub max_recorded: u64,
    /// p99 of the per-node recorded counts (bucket-granular).
    pub p99_recorded: u64,
    /// Fleet-wide event count per kind, indexed by [`EventKind::index`].
    pub kinds: [u64; EventKind::COUNT],
}

impl ScopeAggregate {
    /// Renders the aggregate as one JSON object; kinds with zero events are
    /// omitted (order is still fixed by the kind discriminant).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"recorded\":{},\"dropped\":{},\"max_recorded\":{},\"p99_recorded\":{},\
             \"kinds\":{{",
            self.recorded, self.dropped, self.max_recorded, self.p99_recorded,
        );
        let mut first = true;
        for kind in EventKind::ALL {
            let n = self.kinds[kind.index()];
            if n == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\"{}\":{n}", kind.name()));
        }
        s.push_str("}}");
        s
    }
}

/// Aggregate counters for a whole fleet run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetTelemetry {
    /// Fleet seed.
    pub seed: u64,
    /// Protection build, as a string (`"None"`, `"Umpu"`, `"Sfi"`).
    pub protection: String,
    /// Node count.
    pub nodes: usize,
    /// Rounds stepped.
    pub rounds: u64,
    /// Worker threads used for the run (1 = serial).
    pub threads: usize,
    /// Round by which every node had installed the disseminated module.
    pub convergence_round: Option<u64>,
    /// Packets offered to the radio (after broadcast fan-out).
    pub packets_sent: u64,
    /// Packets delivered.
    pub packets_delivered: u64,
    /// Packets the lossy channel dropped.
    pub packets_dropped: u64,
    /// Trace-sink reduction; `Some` only when the run attached sinks.
    pub scope: Option<ScopeAggregate>,
    /// Per-node counters, in node-id order.
    pub per_node: Vec<NodeTelemetry>,
}

impl FleetTelemetry {
    /// Sum of a per-node counter across the fleet.
    pub fn total<F: Fn(&NodeTelemetry) -> u64>(&self, f: F) -> u64 {
        self.per_node.iter().map(f).sum()
    }

    /// Renders the whole fleet's counters as one deterministic JSON object.
    /// `threads` is deliberately excluded from the digest-relevant body via
    /// the `comparable_json` helper; this full form includes it. The
    /// `scope` key appears only when the run attached trace sinks, so runs
    /// without them render exactly as before.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.per_node.len() * 160);
        s.push_str(&format!(
            "{{\"seed\":{},\"protection\":\"{}\",\"nodes\":{},\"rounds\":{},\
             \"threads\":{},\"convergence_round\":{},\
             \"packets_sent\":{},\"packets_delivered\":{},\"packets_dropped\":{},\
             \"total_cycles\":{},\"total_instructions\":{},\
             \"total_faults\":{},\"total_contained\":{},\"total_recoveries\":{},\
             \"total_ring_dropped\":{},\"total_alerts\":{},",
            self.seed,
            self.protection,
            self.nodes,
            self.rounds,
            self.threads,
            match self.convergence_round {
                Some(r) => r.to_string(),
                None => "null".to_string(),
            },
            self.packets_sent,
            self.packets_delivered,
            self.packets_dropped,
            self.total(|n| n.cycles),
            self.total(|n| n.instructions),
            self.total(NodeTelemetry::faults),
            self.total(NodeTelemetry::contained),
            self.total(NodeTelemetry::recoveries),
            self.total(|n| n.ring_dropped),
            self.total(|n| n.alerts),
        ));
        if let Some(scope) = &self.scope {
            s.push_str(&format!("\"scope\":{},", scope.to_json()));
        }
        s.push_str("\"per_node\":[");
        for (i, n) in self.per_node.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&n.to_json());
        }
        s.push_str("]}");
        s
    }

    /// The JSON with the `threads` field normalized out — two runs of the
    /// same seed must produce identical `comparable_json` regardless of how
    /// many workers stepped the nodes.
    pub fn comparable_json(&self) -> String {
        let mut clone = self.clone();
        clone.threads = 0;
        clone.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_null_renders() {
        let mut t = FleetTelemetry {
            seed: 5,
            protection: "Umpu".to_string(),
            nodes: 1,
            ..FleetTelemetry::default()
        };
        t.per_node.push(NodeTelemetry { id: 0, ..NodeTelemetry::default() });
        let j = t.to_json();
        assert!(j.contains("\"convergence_round\":null"));
        assert!(j.contains("\"installed_round\":null"));
        assert!(j.contains("\"quarantined\":0"));
        assert!(j.contains("\"total_ring_dropped\":0"));
        assert!(j.contains("\"total_alerts\":0"));
        assert!(j.contains("\"ring_dropped\":0,\"alerts\":0"));
        assert!(!j.contains("\"scope\""), "no sink attached, no scope key");
        assert_eq!(j, t.clone().to_json());
        let mut parallel = t.clone();
        parallel.threads = 8;
        assert_eq!(t.comparable_json(), parallel.comparable_json());
        assert_ne!(t.to_json(), parallel.to_json());
    }

    #[test]
    fn view_routes_protection_counters_through_metrics() {
        let c = CounterSet {
            faults: 2,
            contained: 1,
            recoveries: 2,
            quarantined: 4,
            retransmits: 5,
            rollbacks: 1,
            ..CounterSet::default()
        };
        let n = NodeTelemetry::view(3, &c, Some(9));
        assert_eq!((n.faults(), n.contained(), n.recoveries(), n.quarantined()), (2, 1, 2, 4));
        assert_eq!((n.requests, n.installed_round), (5, Some(9)));
        assert_eq!(n.metrics.counter("helm.rollbacks"), 1);
        let j = n.to_json();
        assert!(j.contains("\"faults\":2,\"contained\":1,\"recoveries\":2"));
        assert!(j.contains("\"quarantined\":4,\"installed_round\":9"));
        let quiet = NodeTelemetry::view(3, &CounterSet::default(), None);
        assert!(quiet.metrics.is_empty(), "a zero entry has no registry key");
    }

    #[test]
    fn scope_aggregate_renders_nonzero_kinds_in_order() {
        let mut a = ScopeAggregate { recorded: 10, dropped: 2, ..ScopeAggregate::default() };
        a.max_recorded = 7;
        a.p99_recorded = 7;
        a.kinds[EventKind::Fault.index()] = 3;
        a.kinds[EventKind::MemMapCheck.index()] = 7;
        assert_eq!(
            a.to_json(),
            "{\"recorded\":10,\"dropped\":2,\"max_recorded\":7,\"p99_recorded\":7,\
             \"kinds\":{\"memmap_check\":7,\"fault\":3}}"
        );
        let mut t = FleetTelemetry { scope: Some(a), ..FleetTelemetry::default() };
        assert!(t.to_json().contains("\"scope\":{\"recorded\":10,"));
        t.scope = None;
        assert!(!t.to_json().contains("\"scope\""));
    }
}
