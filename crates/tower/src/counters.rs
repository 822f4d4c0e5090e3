//! The fleet's counter table — the unit of counting, ingestion and
//! aggregation.
//!
//! A node counts into one cumulative [`CounterSet`]; the tower ingests
//! per-round *deltas* of it and sums them per window, per cohort and
//! fleet-wide. Every aggregate is element-wise addition of these
//! bundles, so the order nodes are fed in does not matter.

/// Declares the counter table from one field list: the struct, its
/// [`FIELDS`](CounterSet::FIELDS) names and every element-wise operation,
/// all in declaration order, which is also the JSON key order.
macro_rules! counter_table {
    ($(#[$doc:meta])* pub struct $name:ident { $($(#[$fdoc:meta])* $field:ident,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fdoc])* pub $field: u64,)*
        }

        impl $name {
            const LEN: usize = [$(stringify!($field)),*].len();

            /// Entry names in JSON/render order.
            pub const FIELDS: [&'static str; Self::LEN] = [$(stringify!($field)),*];

            /// Values in the same order as [`Self::FIELDS`].
            pub fn values(&self) -> [u64; Self::LEN] {
                [$(self.$field),*]
            }

            /// Element-wise accumulate.
            pub fn add(&mut self, other: &$name) {
                $(self.$field += other.$field;)*
            }

            /// Element-wise `self - prev`, saturating at zero — turns two
            /// snapshots of cumulative totals into a per-round delta bundle.
            pub fn delta(&self, prev: &$name) -> $name {
                $name { $($field: self.$field.saturating_sub(prev.$field),)* }
            }
        }
    };
}

counter_table! {
    /// One node's counters, or the element-wise sum of many nodes' deltas.
    ///
    /// On a node the table is cumulative. The node counts radio, kernel,
    /// fault, watchdog, recorder and rollout events into it as they happen.
    /// The entries the machine keeps itself (`cycles`, `idle_cycles`,
    /// `instructions`, `installs`, `unloads`, `ring_dropped`) are copied
    /// from the machine after every step and after a checkpoint restore; a
    /// restore rewinds them, so they can go down.
    pub struct CounterSet {
        /// Node-round samples folded into this bundle (the tower sets it;
        /// a node's own table keeps it at zero).
        samples,
        /// Simulated cycles the node's CPU executed.
        cycles,
        /// Cycles the CPU spent asleep.
        idle_cycles,
        /// Instructions retired.
        instructions,
        /// Packets received from the radio.
        rx,
        /// Packets handed to the radio.
        tx,
        /// Application messages accepted into the kernel queue.
        messages,
        /// Application messages dropped because the queue was full.
        queue_drops,
        /// Dissemination chunks received (first copies only).
        chunks,
        /// Retransmission requests sent.
        retransmits,
        /// Faults raised while running handlers.
        faults,
        /// Faults that were protection violations, contained by Harbor.
        contained,
        /// Times the kernel's exception path restored a clean context.
        recoveries,
        /// Disseminated images the load policy rejected.
        quarantined,
        /// Modules dynamically installed since boot.
        installs,
        /// Modules unloaded since boot.
        unloads,
        /// Watchdog alerts raised.
        alerts,
        /// Postmortem dumps the flight recorder froze.
        dumps,
        /// Event bodies the node's trace ring shed under pressure.
        ring_dropped,
        /// Stores that took the certified elided path (`harbor-prove`).
        stores_elided,
        /// Rollout images admitted and flashed under a `harbor-helm` stage
        /// grant (node-side admission passed; the image was burned).
        images_admitted,
        /// Stage grants received from the rollout controller (one per node
        /// per stage that made the node eligible).
        stages_promoted,
        /// Checkpoint restores: the controller rolled this node back to its
        /// pre-rollout flash state.
        rollbacks,
    }
}

impl CounterSet {
    pub fn is_zero(&self) -> bool {
        self.values().iter().all(|&v| v == 0)
    }

    /// Deterministic JSON object, every field rendered, fixed order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        for (i, (name, value)) in Self::FIELDS.iter().zip(self.values()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push('}');
        out
    }
}

/// One node's telemetry delta for one round, tagged with its cohort —
/// the wire unit between the fleet and the tower. `faults_total` and
/// `alerts_total` are *cumulative* (not deltas): the top-K tracker
/// needs absolute severity per node without any per-node state in the
/// aggregator.
#[derive(Debug, Clone, Copy)]
pub struct RoundSample {
    pub node: u32,
    pub cohort: u32,
    pub round: u64,
    pub deltas: CounterSet,
    pub faults_total: u64,
    pub alerts_total: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_every_field_in_order() {
        let c = CounterSet { samples: 1, stores_elided: 9, rollbacks: 2, ..CounterSet::default() };
        let json = c.to_json();
        assert!(json.starts_with("{\"samples\":1,\"cycles\":0"));
        assert!(json.ends_with("\"images_admitted\":0,\"stages_promoted\":0,\"rollbacks\":2}"));
        let keys = json.matches(':').count();
        assert_eq!(keys, CounterSet::FIELDS.len());
        assert_eq!(CounterSet::FIELDS.len(), 23);
    }

    #[test]
    fn add_and_delta_are_element_wise() {
        let mut a = CounterSet { faults: 2, cycles: 10, ..CounterSet::default() };
        let b = CounterSet { faults: 3, retransmits: 7, ..CounterSet::default() };
        a.add(&b);
        assert_eq!(a.faults, 5);
        assert_eq!(a.cycles, 10);
        assert_eq!(a.retransmits, 7);
        assert!(!a.is_zero());
        assert!(CounterSet::default().is_zero());
        let d = a.delta(&b);
        assert_eq!((d.faults, d.cycles, d.retransmits), (2, 10, 0));
        assert!(b.delta(&a).is_zero(), "delta saturates at zero");
    }
}
