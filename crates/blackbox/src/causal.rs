//! Fleet-wide causal tracing: Lamport clocks, per-node causal logs, and
//! the happens-before DAG that stitches them into one Perfetto trace.
//!
//! Every radio message in the fleet carries a Lamport stamp ([`LamportClock`]
//! implements the two textbook rules: tick before send, max-merge on
//! receive). With the blackbox attached, each node appends a
//! [`CausalRecord`] per send/receive to its [`CausalLog`]; without it the
//! stamps still travel but no log is kept, since nothing else reads one.
//! After a run, [`build_edges`] matches sends to receives on
//! `(from, seq)` — one send fans out to every receiver of a broadcast —
//! and [`check_monotone`] verifies the defining Lamport property: stamps
//! strictly increase along every happens-before edge (program order and
//! message order). [`chrome_trace`] renders the whole fleet as a
//! multi-process Perfetto document with flow arrows on the message edges.

use harbor_scope::export::{chrome_trace_tracks, TrackItem};

/// The pseudo node id the OTA seeder (base station) logs under: it
/// participates in causal order like any node but is not a simulated CPU.
pub const SEEDER_ID: u32 = u32::MAX;

/// A Lamport logical clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LamportClock {
    time: u64,
}

impl LamportClock {
    /// A clock at time zero.
    pub const fn new() -> LamportClock {
        LamportClock { time: 0 }
    }

    /// The current logical time.
    pub const fn time(&self) -> u64 {
        self.time
    }

    /// Advances for a local or send event; returns the stamp to attach.
    pub fn tick(&mut self) -> u64 {
        self.time += 1;
        self.time
    }

    /// Merges a received stamp (`max(local, remote) + 1`); returns the
    /// receive event's own stamp.
    pub fn observe(&mut self, remote: u64) -> u64 {
        self.time = self.time.max(remote) + 1;
        self.time
    }
}

/// What a causal record witnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CausalKind {
    /// A message left this node (`peer` = destination, [`SEEDER_ID`]-style
    /// broadcast destinations included).
    Send,
    /// A message arrived (`peer` = the sender it came from).
    Recv,
    /// A local milestone worth a point on the trace (fault, dump freeze,
    /// module activation).
    Local,
}

/// One entry in a node's causal log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalRecord {
    /// Lamport stamp of this event on the owning node.
    pub lamport: u64,
    /// Fleet round when it happened.
    pub round: u64,
    /// Send, receive, or local milestone.
    pub kind: CausalKind,
    /// The other end (destination for sends, source for receives; the
    /// owning node itself for locals).
    pub peer: u32,
    /// Originating node of the message (identifies the message together
    /// with `seq`; meaningless for locals).
    pub from: u32,
    /// Per-origin message sequence number.
    pub seq: u64,
    /// Short label for the trace ("chunk", "request", "fault", ...).
    pub label: &'static str,
}

/// One node's causal log, in program order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CausalLog {
    /// The owning node ([`SEEDER_ID`] for the seeder).
    pub node: u32,
    /// Records in the order they happened on this node.
    pub records: Vec<CausalRecord>,
}

impl CausalLog {
    /// An empty log for `node`.
    pub const fn new(node: u32) -> CausalLog {
        CausalLog { node, records: Vec::new() }
    }

    /// Appends a record.
    pub fn push(&mut self, rec: CausalRecord) {
        self.records.push(rec);
    }
}

/// One happens-before edge between `(log index, record index)` vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source vertex.
    pub a: (usize, usize),
    /// Sink vertex.
    pub b: (usize, usize),
    /// Whether this is a cross-node message edge (vs program order).
    pub message: bool,
}

/// Builds the happens-before edge list over `logs`: program-order edges
/// between consecutive records of each log, plus one message edge per
/// matched (send, receive) pair — matched on `(from, seq)`, so a broadcast
/// send grows one edge per receiver.
pub fn build_edges(logs: &[CausalLog]) -> Vec<Edge> {
    let mut edges = Vec::new();
    for (li, log) in logs.iter().enumerate() {
        for ri in 1..log.records.len() {
            edges.push(Edge { a: (li, ri - 1), b: (li, ri), message: false });
        }
    }
    // Index sends by message identity. Sends are unique per (from, seq):
    // a broadcast is one send record fanning out to many receives.
    let mut sends = std::collections::BTreeMap::new();
    for (li, log) in logs.iter().enumerate() {
        for (ri, rec) in log.records.iter().enumerate() {
            if rec.kind == CausalKind::Send {
                sends.insert((rec.from, rec.seq), (li, ri));
            }
        }
    }
    for (li, log) in logs.iter().enumerate() {
        for (ri, rec) in log.records.iter().enumerate() {
            if rec.kind == CausalKind::Recv {
                if let Some(&src) = sends.get(&(rec.from, rec.seq)) {
                    edges.push(Edge { a: src, b: (li, ri), message: true });
                }
            }
        }
    }
    edges
}

/// Verifies the Lamport invariant: along every happens-before edge the
/// stamp strictly increases.
///
/// # Errors
///
/// Names the first violating edge (nodes, records, stamps).
pub fn check_monotone(logs: &[CausalLog]) -> Result<(), String> {
    for e in build_edges(logs) {
        let ra = logs[e.a.0].records[e.a.1];
        let rb = logs[e.b.0].records[e.b.1];
        if ra.lamport >= rb.lamport {
            return Err(format!(
                "lamport not monotone on {} edge: node {} record {} (t={}) -> node {} record {} (t={})",
                if e.message { "message" } else { "program-order" },
                logs[e.a.0].node,
                e.a.1,
                ra.lamport,
                logs[e.b.0].node,
                e.b.1,
                rb.lamport,
            ));
        }
    }
    Ok(())
}

fn node_label(node: u32) -> String {
    if node == SEEDER_ID {
        "seeder".to_string()
    } else {
        format!("node {node}")
    }
}

/// Renders the fleet's causal logs as one multi-track Perfetto document:
/// a process per node, a point per record, and a flow arrow per message
/// edge (the happens-before DAG, drawn). Timestamps are Lamport time.
pub fn chrome_trace(logs: &[CausalLog]) -> String {
    let tracks: Vec<(u32, String, Vec<TrackItem>)> = logs
        .iter()
        .map(|log| {
            let items = log
                .records
                .iter()
                .map(|r| {
                    // Flow ids must be unique per message: origin in the
                    // high bits, sequence in the low.
                    let id = ((r.from as u64) << 32) | (r.seq & 0xffff_ffff);
                    match r.kind {
                        CausalKind::Send => {
                            TrackItem::FlowStart { ts: r.lamport, id, name: r.label.to_string() }
                        }
                        CausalKind::Recv => {
                            TrackItem::FlowEnd { ts: r.lamport, id, name: r.label.to_string() }
                        }
                        CausalKind::Local => TrackItem::Instant {
                            ts: r.lamport,
                            name: r.label.to_string(),
                            args: format!("\"round\":{}", r.round),
                        },
                    }
                })
                .collect();
            (log.node, node_label(log.node), items)
        })
        .collect();
    chrome_trace_tracks(&tracks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(lamport: u64, kind: CausalKind, from: u32, seq: u64) -> CausalRecord {
        CausalRecord { lamport, round: 0, kind, peer: 0, from, seq, label: "m" }
    }

    #[test]
    fn clock_rules() {
        let mut a = LamportClock::new();
        let mut b = LamportClock::new();
        let s = a.tick();
        assert_eq!(s, 1);
        // b is far behind: receive jumps it past the sender.
        assert_eq!(b.observe(s), 2);
        // b is ahead: receive still advances monotonically.
        let mut c = LamportClock { time: 10 };
        assert_eq!(c.observe(3), 11);
    }

    #[test]
    fn broadcast_matches_every_receiver() {
        let logs = vec![
            CausalLog { node: 0, records: vec![rec(1, CausalKind::Send, 0, 0)] },
            CausalLog { node: 1, records: vec![rec(2, CausalKind::Recv, 0, 0)] },
            CausalLog { node: 2, records: vec![rec(5, CausalKind::Recv, 0, 0)] },
        ];
        let edges = build_edges(&logs);
        assert_eq!(edges.iter().filter(|e| e.message).count(), 2);
        check_monotone(&logs).unwrap();
    }

    #[test]
    fn violation_is_reported() {
        let logs = vec![
            CausalLog { node: 0, records: vec![rec(9, CausalKind::Send, 0, 0)] },
            CausalLog { node: 1, records: vec![rec(3, CausalKind::Recv, 0, 0)] },
        ];
        let err = check_monotone(&logs).unwrap_err();
        assert!(err.contains("message edge"), "{err}");

        let logs = vec![CausalLog {
            node: 4,
            records: vec![rec(2, CausalKind::Local, 4, 0), rec(2, CausalKind::Local, 4, 1)],
        }];
        assert!(check_monotone(&logs).unwrap_err().contains("program-order"));
    }

    #[test]
    fn trace_has_flows_and_tracks() {
        let logs = vec![
            CausalLog { node: SEEDER_ID, records: vec![rec(1, CausalKind::Send, SEEDER_ID, 7)] },
            CausalLog {
                node: 3,
                records: vec![
                    rec(2, CausalKind::Recv, SEEDER_ID, 7),
                    rec(3, CausalKind::Local, 3, 0),
                ],
            },
        ];
        let j = chrome_trace(&logs);
        assert!(j.contains("\"name\":\"seeder\""));
        assert!(j.contains("\"name\":\"node 3\""));
        assert_eq!(j.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(j.matches("\"ph\":\"f\"").count(), 1);
        assert_eq!(j.matches("\"ph\":\"i\"").count(), 1);
    }
}
