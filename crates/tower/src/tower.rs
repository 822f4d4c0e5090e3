//! The tower pipeline: one bounded-memory aggregator and its fleet
//! rollup.
//!
//! A [`Tower`] folds every incoming [`RoundSample`] into per-cohort
//! accumulators: running totals, a bounded time series of per-window
//! counter bundles (old windows are *folded*, never lost, so totals
//! always reconcile exactly), a per-domain fault attribution table, a
//! cycle-delta quantile sketch, and a bounded top-K severity candidate
//! map. Nothing here retains per-node-per-round state: memory is
//! O(cohorts × windows + top-K), independent of fleet size and run
//! length.
//!
//! [`Tower::rollup`] renders that state as one [`FleetRollup`] —
//! per-cohort totals, window series, domain fault attribution, cycle
//! percentiles, health scores, ranked top-K offenders and a dump index —
//! with deterministic JSON.

use std::collections::{BTreeMap, VecDeque};

use harbor_blackbox::{AlertKind, Postmortem};

use crate::counters::{CounterSet, RoundSample};
use crate::health::{score_cohort, CohortHealth, HealthConfig};
use crate::sketch::QuantileSketch;

/// Cap on distinct nodes tracked for top-K severity ranking, fleet-wide.
/// Nodes with zero faults and zero alerts are never tracked.
pub const TOPK_CANDIDATES: usize = 1024;
/// Cap on indexed dump references, fleet-wide.
pub const DUMP_CAP: usize = 4096;

/// Pipeline shape. `Copy` so it can ride inside `FleetConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TowerConfig {
    /// Rounds per time-series window.
    pub window_len: u64,
    /// Live windows retained per cohort before folding.
    pub max_windows: u32,
    /// Offenders reported by the rollup.
    pub top_k: u32,
    /// Health-score budgets.
    pub health: HealthConfig,
}

impl Default for TowerConfig {
    fn default() -> Self {
        TowerConfig { window_len: 1, max_windows: 512, top_k: 10, health: HealthConfig::default() }
    }
}

/// One retained window of a cohort's time series.
#[derive(Debug, Clone)]
pub struct Window {
    /// Window index: `round / window_len`.
    pub index: u64,
    pub counters: CounterSet,
}

/// Severity record for one node, keyed by cumulative totals so it can
/// be overwritten in place on every sample without per-round state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStat {
    pub node: u32,
    pub cohort: u32,
    pub faults: u64,
    pub alerts: u64,
}

impl NodeStat {
    /// Severity key: more faults, then more alerts, then lower node id.
    fn rank(&self) -> (u64, u64, std::cmp::Reverse<u32>) {
        (self.faults, self.alerts, std::cmp::Reverse(self.node))
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"node\":{},\"cohort\":{},\"faults\":{},\"alerts\":{}}}",
            self.node, self.cohort, self.faults, self.alerts
        )
    }
}

/// Compact reference to one postmortem dump, addressable by a stable
/// id: `n{node}-r{round}-c{fault_cycles}`.
#[derive(Debug, Clone)]
pub struct DumpRef {
    pub id: String,
    pub node: u32,
    pub cohort: u32,
    pub round: u64,
    pub lamport: u64,
    /// Domain at fault (raw 3-bit index, 7 = trusted).
    pub domain: u8,
    /// Fault code from the `FaultRecord`.
    pub code: u16,
    /// Faulting address.
    pub addr: u16,
    /// Cycle stamp of the fault.
    pub cycles: u64,
}

impl DumpRef {
    pub fn from_postmortem(cohort: u32, dump: &Postmortem) -> DumpRef {
        DumpRef {
            id: dump_id(dump.node, dump.round, dump.fault.cycles),
            node: dump.node,
            cohort,
            round: dump.round,
            lamport: dump.lamport,
            domain: dump.at_fault.domain,
            code: dump.fault.code,
            addr: dump.fault.addr,
            cycles: dump.fault.cycles,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":\"{}\",\"node\":{},\"cohort\":{},\"round\":{},\"lamport\":{},\
             \"domain\":{},\"code\":{},\"addr\":{},\"cycles\":{}}}",
            self.id,
            self.node,
            self.cohort,
            self.round,
            self.lamport,
            self.domain,
            self.code,
            self.addr,
            self.cycles
        )
    }
}

/// The stable dump id scheme shared by the aggregator and the CLI.
pub fn dump_id(node: u32, round: u64, fault_cycles: u64) -> String {
    format!("n{node}-r{round}-c{fault_cycles}")
}

/// A cohort's running aggregate: its series without the live windows,
/// which sit in a deque so a bounded series evicts from the front in
/// O(1). Invariant: `totals == folded + Σ windows` (element-wise),
/// checked by `debug_assert` after every sample.
#[derive(Debug, Clone, Default)]
struct Cohort {
    series: CohortSeries,
    windows: VecDeque<Window>,
}

impl Cohort {
    fn ingest(&mut self, window_index: u64, deltas: &CounterSet, max_windows: usize) {
        let series = &mut self.series;
        series.totals.add(deltas);
        // Residual drains (samples == 0) adjust totals without standing in
        // as a node-round observation.
        if deltas.samples > 0 {
            series.cycle_sketch.observe(deltas.cycles);
        }
        match self.windows.back_mut() {
            Some(w) if w.index == window_index => w.counters.add(deltas),
            _ => {
                debug_assert!(
                    self.windows.back().is_none_or(|w| w.index < window_index),
                    "window indices must be monotone"
                );
                self.windows.push_back(Window { index: window_index, counters: *deltas });
            }
        }
        while self.windows.len() > max_windows.max(1) {
            let old = self.windows.pop_front().expect("non-empty");
            series.folded.add(&old.counters);
            series.folded_windows += 1;
        }
    }

    /// The fold invariant — totals are never lost to window eviction.
    fn reconciles(&self) -> bool {
        let mut sum = self.series.folded;
        for w in &self.windows {
            sum.add(&w.counters);
        }
        sum == self.series.totals
    }
}

/// Streaming aggregation pipeline for one fleet.
#[derive(Debug, Clone)]
pub struct Tower {
    cfg: TowerConfig,
    /// Cohort id → accumulator. BTreeMap for deterministic iteration.
    cohorts: BTreeMap<u32, Cohort>,
    /// Bounded severity candidates, keyed by node id.
    candidates: BTreeMap<u32, NodeStat>,
    /// Indexed dump references, in ingestion order.
    dumps: Vec<DumpRef>,
    /// Dumps dropped once [`DUMP_CAP`] was reached.
    dumps_dropped: u64,
    /// Total samples ingested.
    ingested: u64,
    /// Highest round seen.
    last_round: u64,
}

impl Tower {
    pub fn new(cfg: &TowerConfig) -> Tower {
        Tower {
            cfg: *cfg,
            cohorts: BTreeMap::new(),
            candidates: BTreeMap::new(),
            dumps: Vec::new(),
            dumps_dropped: 0,
            ingested: 0,
            last_round: 0,
        }
    }

    pub fn config(&self) -> &TowerConfig {
        &self.cfg
    }

    /// Fold one node-round sample into its cohort's accumulator.
    pub fn ingest(&mut self, sample: &RoundSample) {
        self.ingested += 1;
        self.last_round = self.last_round.max(sample.round);
        let window_index = sample.round / self.cfg.window_len.max(1);
        let cohort = self.cohorts.entry(sample.cohort).or_default();
        cohort.ingest(window_index, &sample.deltas, self.cfg.max_windows as usize);
        debug_assert!(cohort.reconciles(), "cohort fold invariant broke");
        if sample.faults_total > 0 || sample.alerts_total > 0 {
            self.candidates.insert(
                sample.node,
                NodeStat {
                    node: sample.node,
                    cohort: sample.cohort,
                    faults: sample.faults_total,
                    alerts: sample.alerts_total,
                },
            );
            if self.candidates.len() > TOPK_CANDIDATES {
                let weakest = self
                    .candidates
                    .values()
                    .min_by_key(|s| s.rank())
                    .map(|s| s.node)
                    .expect("non-empty");
                self.candidates.remove(&weakest);
            }
        }
    }

    /// Route a postmortem dump: index it and attribute the fault to its
    /// protection domain within the cohort series.
    pub fn ingest_dump(&mut self, cohort: u32, dump: &Postmortem) {
        let series = &mut self.cohorts.entry(cohort).or_default().series;
        series.domain_faults[(dump.at_fault.domain & 7) as usize] += 1;
        if self.dumps.len() < DUMP_CAP {
            self.dumps.push(DumpRef::from_postmortem(cohort, dump));
        } else {
            self.dumps_dropped += 1;
        }
    }

    /// Count a watchdog alert against its cohort, by kind.
    pub fn ingest_alert(&mut self, cohort: u32, kind: AlertKind) {
        self.cohorts.entry(cohort).or_default().series.alert_kinds[kind.index()] += 1;
    }

    /// The fleet-wide rollup of everything ingested so far.
    pub fn rollup(&self) -> FleetRollup {
        let cohorts: Vec<CohortSeries> = self
            .cohorts
            .iter()
            .map(|(&cohort, c)| CohortSeries {
                cohort,
                windows: c.windows.iter().cloned().collect(),
                ..c.series.clone()
            })
            .collect();
        let health: Vec<CohortHealth> =
            cohorts.iter().map(|c| score_cohort(&self.cfg.health, c.cohort, &c.windows)).collect();
        let mut top_nodes: Vec<NodeStat> = self.candidates.values().copied().collect();
        top_nodes.sort_by_key(|s| std::cmp::Reverse(s.rank()));
        top_nodes.truncate(self.cfg.top_k as usize);
        let mut dumps = self.dumps.clone();
        // Node ids are unique fleet-wide, fault cycle stamps are unique
        // per node: (node, cycles) is a total order, schedule-free.
        dumps.sort_by_key(|d| (d.node, d.cycles));

        FleetRollup {
            window_len: self.cfg.window_len.max(1),
            last_round: self.last_round,
            ingested: self.ingested,
            cohorts,
            health,
            top_nodes,
            dumps,
            dumps_dropped: self.dumps_dropped,
        }
    }
}

/// One cohort's series within a [`FleetRollup`].
#[derive(Debug, Clone, Default)]
pub struct CohortSeries {
    pub cohort: u32,
    pub totals: CounterSet,
    /// Sum of windows evicted from the bounded series.
    pub folded: CounterSet,
    pub folded_windows: u64,
    /// Ascending window index; `totals == folded + Σ windows`.
    pub windows: Vec<Window>,
    /// Faults attributed per protection domain (7 = trusted).
    pub domain_faults: [u64; 8],
    /// Watchdog alerts by kind, indexed by [`AlertKind::index`].
    pub alert_kinds: [u64; AlertKind::COUNT],
    /// Per-node-round cycle deltas.
    pub cycle_sketch: QuantileSketch,
}

impl CohortSeries {
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"cohort\":{},\"totals\":{},\"folded\":{},\"folded_windows\":{}",
            self.cohort,
            self.totals.to_json(),
            self.folded.to_json(),
            self.folded_windows
        ));
        out.push_str(",\"domain_faults\":[");
        for (i, d) in self.domain_faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_string());
        }
        out.push_str("],\"alert_kinds\":[");
        for (i, a) in self.alert_kinds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&a.to_string());
        }
        out.push_str("],\"cycles\":");
        out.push_str(&self.cycle_sketch.to_json());
        out.push_str(",\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"counters\":{}}}",
                w.index,
                w.counters.to_json()
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The queryable fleet-wide aggregate.
#[derive(Debug, Clone)]
pub struct FleetRollup {
    pub window_len: u64,
    pub last_round: u64,
    /// Node-round samples ingested.
    pub ingested: u64,
    /// One series per cohort, ascending cohort id.
    pub cohorts: Vec<CohortSeries>,
    /// One score per cohort, same order.
    pub health: Vec<CohortHealth>,
    /// Worst offenders, descending severity, truncated to top-K.
    pub top_nodes: Vec<NodeStat>,
    /// Dump index, sorted by (node, fault cycles).
    pub dumps: Vec<DumpRef>,
    pub dumps_dropped: u64,
}

impl FleetRollup {
    /// Fleet-wide totals: the sum of every cohort's totals. The
    /// reconciliation gate compares this against the nodes' own tables.
    pub fn totals(&self) -> CounterSet {
        let mut sum = CounterSet::default();
        for c in &self.cohorts {
            sum.add(&c.totals);
        }
        sum
    }

    /// Look up a dump by its stable id (`n{node}-r{round}-c{cycles}`).
    pub fn find_dump(&self, id: &str) -> Option<&DumpRef> {
        self.dumps.iter().find(|d| d.id == id)
    }

    /// Cohorts whose health score is below the unhealthy threshold.
    pub fn unhealthy(&self) -> Vec<u32> {
        self.health.iter().filter(|h| !h.healthy).map(|h| h.cohort).collect()
    }

    /// Deterministic JSON: fixed key order, integers only, every list
    /// deterministically sorted. Byte-identical across stepping schedules
    /// for the same fleet run.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"schema\":\"harbor-tower-rollup-v1\",\"window_len\":{},\"last_round\":{},\
             \"ingested\":{},\"totals\":{}",
            self.window_len,
            self.last_round,
            self.ingested,
            self.totals().to_json()
        ));
        out.push_str(",\"cohorts\":[");
        for (i, c) in self.cohorts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_json());
        }
        out.push_str("],\"health\":[");
        for (i, h) in self.health.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&h.to_json());
        }
        out.push_str("],\"top_nodes\":[");
        for (i, n) in self.top_nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&n.to_json());
        }
        out.push_str("],\"dumps\":[");
        for (i, d) in self.dumps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push_str(&format!("],\"dumps_dropped\":{}}}", self.dumps_dropped));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(node: u32, cohort: u32, round: u64, faults: u64, cycles: u64) -> RoundSample {
        RoundSample {
            node,
            cohort,
            round,
            deltas: CounterSet { samples: 1, cycles, faults, ..CounterSet::default() },
            faults_total: faults * (round + 1),
            alerts_total: 0,
        }
    }

    fn feed(tower: &mut Tower, nodes: u32, rounds: u64) {
        for round in 0..rounds {
            for node in 0..nodes {
                let cohort = node % 4;
                let faults = u64::from(cohort == 2 && round >= rounds / 2);
                tower.ingest(&sample(node, cohort, round, faults, 100 + node as u64 * 3));
            }
        }
    }

    /// One postmortem, frozen on node 3 in domain 2.
    fn dump() -> Postmortem {
        Postmortem::from_json(
            "{\"node\":3,\"round\":7,\"lamport\":21,\"protection\":\"umpu\",\
             \"fault\":{\"cycles\":999,\"code\":1,\"addr\":1024,\"info\":0},\
             \"at_fault\":{\"domain\":2},\"snapshots\":[],\"events\":[],\
             \"safe_stack\":[],\"ownership\":[0,0,0,0,0,0,0,0]}",
        )
        .expect("fixture dump parses")
    }

    #[test]
    fn folding_keeps_every_count() {
        let cfg = TowerConfig { max_windows: 6, ..TowerConfig::default() };
        let mut tower = Tower::new(&cfg);
        feed(&mut tower, 17, 40);
        let rollup = tower.rollup();
        for c in &rollup.cohorts {
            assert_eq!(c.windows.len(), 6, "bounded retention");
            assert_eq!(c.folded_windows, 34, "40 windows, 6 live");
            let mut sum = c.folded;
            for w in &c.windows {
                sum.add(&w.counters);
            }
            assert_eq!(sum, c.totals, "cohort {} fold invariant", c.cohort);
            let idx: Vec<u64> = c.windows.iter().map(|w| w.index).collect();
            assert_eq!(idx, (34..40).collect::<Vec<u64>>(), "the newest windows stay live");
        }
        assert_eq!(rollup.totals().samples, 17 * 40);
        assert_eq!(rollup.ingested, 17 * 40);
        assert_eq!(rollup.last_round, 39);
        assert_eq!(rollup.totals().faults, 4 * 20, "cohort 2's four nodes fault for 20 rounds");
    }

    #[test]
    fn window_len_buckets_the_series() {
        let cfg = TowerConfig { window_len: 8, ..TowerConfig::default() };
        let mut tower = Tower::new(&cfg);
        feed(&mut tower, 8, 30);
        let rollup = tower.rollup();
        let idx: Vec<u64> = rollup.cohorts[0].windows.iter().map(|w| w.index).collect();
        assert_eq!(idx, vec![0, 1, 2, 3], "30 rounds / 8 per window");
        assert_eq!(rollup.cohorts[0].windows[0].counters.samples, 2 * 8);
        assert_eq!(rollup.cohorts[0].windows[3].counters.samples, 2 * 6);
        assert_eq!(rollup.window_len, 8);
    }

    #[test]
    fn faulting_cohort_is_flagged_and_ranked() {
        let cfg = TowerConfig { top_k: 5, ..TowerConfig::default() };
        let mut tower = Tower::new(&cfg);
        feed(&mut tower, 24, 32);
        let rollup = tower.rollup();
        assert_eq!(rollup.unhealthy(), vec![2], "only cohort 2 crash-loops");
        assert_eq!(rollup.top_nodes.len(), 5);
        for n in &rollup.top_nodes {
            assert_eq!(n.cohort, 2, "every top offender is in the bad cohort");
        }
        // Descending severity; within equal severity, ascending node id.
        for pair in rollup.top_nodes.windows(2) {
            assert!(pair[0].rank() >= pair[1].rank(), "ranking order broke: {pair:?}");
        }
    }

    #[test]
    fn rank_orders_by_faults_then_alerts_then_node() {
        let mut tower = Tower::new(&TowerConfig::default());
        for (node, faults, alerts) in [(3, 1, 0), (1, 2, 0), (2, 1, 5), (0, 1, 0)] {
            let mut s = sample(node, 0, 0, 0, 1);
            (s.faults_total, s.alerts_total) = (faults, alerts);
            tower.ingest(&s);
        }
        let order: Vec<u32> = tower.rollup().top_nodes.iter().map(|s| s.node).collect();
        assert_eq!(order, vec![1, 2, 0, 3]);
    }

    #[test]
    fn top_k_candidates_stay_bounded_and_keep_the_worst() {
        let cfg = TowerConfig { top_k: TOPK_CANDIDATES as u32 + 50, ..TowerConfig::default() };
        let mut tower = Tower::new(&cfg);
        tower.ingest(&sample(TOPK_CANDIDATES as u32 + 60, 0, 0, 0, 1));
        for node in 0..(TOPK_CANDIDATES as u32 + 50) {
            let mut s = sample(node, node % 4, 0, 1, 1);
            s.faults_total = u64::from(node) + 1;
            tower.ingest(&s);
        }
        let top = tower.rollup().top_nodes;
        assert_eq!(top.len(), TOPK_CANDIDATES, "the cap holds fleet-wide");
        assert_eq!(top[0].faults, TOPK_CANDIDATES as u64 + 50, "worst offender retained");
        assert_eq!(top[TOPK_CANDIDATES - 1].faults, 51, "weakest candidates evicted first");
        assert!(
            top.iter().all(|s| s.node != TOPK_CANDIDATES as u32 + 60),
            "a node with no faults and no alerts is never tracked"
        );
    }

    #[test]
    fn dump_index_is_capped_and_every_fault_attributed() {
        let mut tower = Tower::new(&TowerConfig::default());
        let dump = dump();
        for _ in 0..DUMP_CAP + 3 {
            tower.ingest_dump(1, &dump);
        }
        let rollup = tower.rollup();
        assert_eq!(rollup.dumps.len(), DUMP_CAP, "the cap holds fleet-wide");
        assert_eq!(rollup.dumps_dropped, 3);
        assert_eq!(rollup.cohorts[0].domain_faults[2], DUMP_CAP as u64 + 3);
        assert!(rollup.find_dump("n3-r7-c999").is_some());
        assert!(rollup.find_dump("n3-r7-c998").is_none());
    }

    #[test]
    fn alerts_count_by_kind() {
        let mut tower = Tower::new(&TowerConfig::default());
        tower.ingest_alert(0, AlertKind::RetransmitRate);
        tower.ingest_alert(0, AlertKind::FaultRate);
        tower.ingest_alert(0, AlertKind::RetransmitRate);
        assert_eq!(tower.rollup().cohorts[0].alert_kinds, [1, 2, 0]);
    }
}
