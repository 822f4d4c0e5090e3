//! Event-driven, round-based stepping of a whole fleet of nodes.
//!
//! Each round has three phases, then feeds the tower if one is attached:
//!
//! 1. **deliver** (serial): packets due this round move from the radio to
//!    node inboxes and the seeder; the seeder answers retransmission
//!    requests and re-advertises. All radio RNG draws happen here, in a
//!    fixed order.
//! 2. **step**: every node in the *wake set* consumes its inbox and runs
//!    its CPU. Nodes touch only their own state, so one loop serves every
//!    schedule: workers take batches of disjoint `&mut` node borrows from
//!    one shared cursor, one worker per batch up to the thread cap. One
//!    worker runs on the calling thread; a round with nothing awake does
//!    no work at all.
//! 3. **collect** (serial): the stepped nodes' outboxes drain onto the
//!    radio in node-id order. No other node can have an outbox.
//!
//! Every node starts awake, since none has yet copied its booted machine's
//! counters into its counter table. A packet, a post, [`Fleet::with_node`] or
//! a rollback wakes a node; a step that leaves it no pending work and a
//! quiet watchdog puts it to sleep. Skipping a sleeping node changes no
//! byte: its step would do nothing (see `node.rs`).
//!
//! Because every RNG is owned (radio, per-node) and consumed in a
//! schedule-independent order, serial and parallel runs of one seed produce
//! byte-identical telemetry.

use crate::image::ModuleImage;
use crate::net::{Envelope, NetConfig, Packet, Radio, BROADCAST, SEEDER};
use crate::node::Node;
use crate::telemetry::FleetTelemetry;
use harbor::DomainId;
use harbor_blackbox::{
    Alert, CausalKind, CausalLog, CausalRecord, FlightRecorder, LamportClock, Postmortem,
    RecorderConfig, Watchdog, WatchdogConfig, SEEDER_ID,
};
use harbor_pulse::{Phase, Pulse, PulseReport, RoundLedger, RoundTiming, StepStats, WorkerStat};
use harbor_tower::{FleetRollup, Tower, TowerConfig};
use mini_sos::loader::{LoadError, ModuleSource};
use mini_sos::{Protection, SosLayout, SosSystem};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Instant;

/// Awake nodes a worker claims per grab of the shared cursor.
const BATCH: usize = 4;

/// Rounds between seeder re-adverts.
const ADVERT_PERIOD: u64 = 16;

/// Most chunks the seeder rebroadcasts per round.
const MAX_REBROADCAST: usize = 64;

/// Fleet parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Node count.
    pub nodes: usize,
    /// Protection build every node boots with.
    pub protection: Protection,
    /// Master seed; every generator in the run derives from it.
    pub seed: u64,
    /// Radio channel parameters.
    pub net: NetConfig,
    /// Cycle budget per node per round.
    pub cycle_budget: u64,
    /// Most worker threads the step phase uses; `0` = one per available
    /// core. A round starts one worker per four awake nodes, up to this.
    pub threads: usize,
    /// Dissemination chunk payload size in bytes.
    pub chunk_bytes: usize,
    /// Optional admission policy every node applies to disseminated
    /// modules (SFI builds only): an image whose certified stack bound
    /// exceeds the allotment is quarantined instead of installed.
    pub load_policy: Option<mini_sos::LoadPolicy>,
    /// Optional per-node trace sink. When set, every node carries a sink of
    /// this shape (typically a small `Ring` — bounded memory per node) and
    /// [`Fleet::telemetry`] includes the fleet-wide
    /// [`crate::ScopeAggregate`]. Tracing is observational: attaching sinks
    /// leaves the simulated machines byte-identical.
    pub scope: Option<harbor_scope::SinkSpec>,
    /// Optional blackbox wiring. When set, every node carries a
    /// [`FlightRecorder`] (whose masked ring becomes the node's trace sink
    /// unless `scope` is set explicitly) and a [`Watchdog`] fed from the
    /// node's own telemetry each round. Like `scope`, the blackbox is
    /// observational: the simulated machines stay byte-identical.
    pub blackbox: Option<BlackboxConfig>,
    /// Run every node through the `harbor-turbo` fast-path engine.
    /// Execution is cycle-, state- and telemetry-identical either way
    /// (regression-tested in `tests/fleet_turbo.rs`); turbo only removes
    /// per-instruction fetch/decode work, so large fleets step faster.
    /// [`mini_sos::ENGINES`] lists every `(turbo, prove)` pair; the fleet
    /// test suites sweep all of them.
    pub turbo: bool,
    /// Enable certified store-check elision (`harbor-prove`) on every node.
    /// Under the UMPU build, admission derives a `harbor-flow` store
    /// certificate per module and statically proven stores skip the
    /// memory-map-checker walk. Execution is cycle-, state- and
    /// telemetry-identical either way (regression-tested in
    /// `tests/fleet_prove.rs`); a no-op under the other builds. Swept
    /// with `turbo` through [`mini_sos::ENGINES`].
    pub prove: bool,
    /// Cohort count for telemetry grouping: node `i` is tagged cohort
    /// `i % cohorts`. Purely observational (a stand-in for a rollout ring
    /// or hardware batch); `1` puts the whole fleet in cohort 0.
    pub cohorts: u32,
    /// Optional telemetry-aggregation pipeline. When set, the fleet feeds
    /// every node's per-round counter deltas, postmortem dumps and
    /// watchdog alerts into a [`harbor_tower::Tower`] and
    /// [`Fleet::tower_rollup`] serves the merged per-cohort rollup.
    /// Observational like `scope`/`blackbox`: the simulated machines stay
    /// byte-identical.
    pub tower: Option<TowerConfig>,
    /// Attach the `harbor-pulse` host-side profiler: per-round per-phase
    /// wall-clock timers, per-worker step stats and the idle-work ledger,
    /// served by [`Fleet::pulse_report`]. Strictly observational — pulse
    /// reads node state and the host clock and never touches a machine,
    /// an RNG or the telemetry JSON (regression-tested in
    /// `tests/fleet_pulse.rs`). It rides the one step loop, counting every
    /// node the wake set skipped as idle; when `false` that loop reads no
    /// clock.
    pub pulse: bool,
}

/// Blackbox sizing for every node in the fleet: flight-recorder depth and
/// watchdog budgets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlackboxConfig {
    /// Per-node flight-recorder sizing.
    pub recorder: RecorderConfig,
    /// Per-node anomaly-detector budgets.
    pub watchdog: WatchdogConfig,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            nodes: 64,
            protection: Protection::Umpu,
            seed: 0x4852_4252, // "HRBR"
            net: NetConfig::default(),
            cycle_budget: 250_000,
            threads: 0,
            chunk_bytes: 32,
            load_policy: None,
            scope: None,
            blackbox: None,
            turbo: false,
            prove: false,
            cohorts: 1,
            tower: None,
            pulse: false,
        }
    }
}

/// The base station: holds the chunk store for one disseminated image and
/// answers retransmission requests.
#[derive(Debug)]
struct Seeder {
    image_id: u16,
    chunks: Vec<Vec<u8>>,
    inbox: Vec<Envelope>,
    pending: BTreeSet<u16>,
    announced: bool,
    clock: LamportClock,
    causal: CausalLog,
    seq: u64,
}

impl Seeder {
    /// Broadcasts `packet` under the seeder's causal identity
    /// ([`SEEDER_ID`]): tick, stamp, log, send.
    fn send(&mut self, round: u64, radio: &mut Radio, packet: Packet) {
        let lamport = self.clock.tick();
        let seq = self.seq;
        self.seq += 1;
        self.causal.push(CausalRecord {
            lamport,
            round,
            kind: CausalKind::Send,
            peer: BROADCAST,
            from: SEEDER_ID,
            seq,
            label: packet.label(),
        });
        radio.send(round, BROADCAST, Envelope { from: SEEDER_ID, seq, lamport, packet });
    }

    fn step(&mut self, round: u64, radio: &mut Radio) {
        for env in std::mem::take(&mut self.inbox) {
            let lamport = self.clock.observe(env.lamport);
            self.causal.push(CausalRecord {
                lamport,
                round,
                kind: CausalKind::Recv,
                peer: env.from,
                from: env.from,
                seq: env.seq,
                label: env.packet.label(),
            });
            if let Packet::Request { module, missing } = env.packet {
                if module == self.image_id {
                    self.pending
                        .extend(missing.into_iter().filter(|&s| (s as usize) < self.chunks.len()));
                }
            }
        }
        let total = self.chunks.len() as u16;
        if !self.announced {
            // Initial push: advert plus the full image, once.
            self.send(round, radio, Packet::Advert { module: self.image_id, total });
            for seq in 0..self.chunks.len() {
                let chunk = Packet::Chunk {
                    module: self.image_id,
                    seq: seq as u16,
                    total,
                    payload: self.chunks[seq].clone(),
                };
                self.send(round, radio, chunk);
            }
            self.announced = true;
            return;
        }
        if round.is_multiple_of(ADVERT_PERIOD) {
            self.send(round, radio, Packet::Advert { module: self.image_id, total });
        }
        // NACK-driven repair: rebroadcast what anyone asked for, lowest
        // sequence first, bounded per round.
        for _ in 0..MAX_REBROADCAST {
            let Some(seq) = self.pending.pop_first() else { break };
            let chunk = Packet::Chunk {
                module: self.image_id,
                seq,
                total,
                payload: self.chunks[seq as usize].clone(),
            };
            self.send(round, radio, chunk);
        }
    }
}

/// A population of simulated sensor nodes on a shared lossy radio.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    threads: usize,
    layout: SosLayout,
    nodes: Vec<Node>,
    // The nodes the next step phase visits (see the module docs).
    wake: WakeSet,
    radio: Radio,
    seeder: Option<Seeder>,
    // Causal identity (clock, log, sequence counter) of a seeder retired
    // by a rollout commit/rollback, so a later dissemination never reuses
    // `(SEEDER_ID, seq)` identities or rewinds the Lamport clock.
    retired_seeder: Option<(LamportClock, CausalLog, u64)>,
    // Images retained for rollout management: the one in flight (so a
    // stage extension can re-seed it) and the last committed known-good.
    rollouts: BTreeMap<u16, ModuleImage>,
    known_good: Option<u16>,
    tower: Option<Tower>,
    pulse: Option<Pulse>,
    next_image_id: u16,
    round: u64,
}

/// A set of node ids, one bit each.
#[derive(Debug)]
struct WakeSet(Vec<u64>);

impl WakeSet {
    /// Every id below `n`.
    fn full(n: usize) -> WakeSet {
        WakeSet((0..n.div_ceil(64)).map(|w| u64::MAX >> (64 - (n - 64 * w).min(64))).collect())
    }

    fn insert(&mut self, id: usize) {
        self.0[id / 64] |= 1 << (id % 64);
    }

    fn remove(&mut self, id: usize) {
        self.0[id / 64] &= !(1 << (id % 64));
    }

    /// The members, ascending, in a vector sized to hold exactly them.
    /// Empty words cost one test each.
    fn members(&self) -> Vec<usize> {
        let mut ids = Vec::with_capacity(self.0.iter().map(|w| w.count_ones() as usize).sum());
        for (w, &bits) in self.0.iter().enumerate().filter(|&(_, &bits)| bits != 0) {
            ids.extend((0..64).filter(|b| bits >> b & 1 == 1).map(|b| 64 * w + b));
        }
        ids
    }
}

/// Marks a phase boundary on the chained lap clock: returns the
/// nanoseconds since the previous boundary and advances the chain. The
/// laps partition one interval on the monotonic clock, so their sum can
/// never exceed a stopwatch started before the chain and read after it.
fn lap(chain: &mut Option<Instant>) -> u64 {
    chain.as_mut().map_or(0, |prev| {
        let now = Instant::now();
        now.duration_since(std::mem::replace(prev, now)).as_nanos() as u64
    })
}

/// One worker of the step phase: steps batches from `grab` until it runs
/// dry, recording each node's stay-awake rule beside it right after its
/// step, while the node is still in cache (and, with `classify`, filing it
/// in the ledger just before). Given the phase `anchor`, it times itself
/// with one clock pair per batch: busy time, first grab to last batch
/// done, and exit. Returns its stats and its share of the ledger.
fn drain<'b, 'n: 'b>(
    mut grab: impl FnMut() -> Option<&'b mut [(&'n mut Node, bool)]>,
    (round, budget): (u64, u64),
    classify: bool,
    anchor: Option<Instant>,
) -> (WorkerStat, RoundLedger) {
    let (mut stat, mut ledger) = (WorkerStat::default(), RoundLedger::default());
    let (mut first_grab, mut last_done) = (None, 0u64);
    while let Some(batch) = grab() {
        let t0 = anchor.map(|a| (a, Instant::now()));
        for (node, stays_awake) in batch.iter_mut() {
            if classify {
                ledger.observe(node.pending_work());
            }
            node.step(round, budget);
            *stays_awake = node.stays_awake();
        }
        stat.nodes += batch.len() as u64;
        if let Some((a, t0)) = t0 {
            first_grab.get_or_insert(t0.duration_since(a).as_nanos() as u64);
            stat.busy_ns += t0.elapsed().as_nanos() as u64;
            last_done = a.elapsed().as_nanos() as u64;
        }
    }
    if let Some(a) = anchor {
        // Batch busy intervals are disjoint sub-intervals of [first_grab,
        // last_done], so busy <= span; the exit stamp comes last, so
        // span <= finish.
        stat.span_ns = last_done.saturating_sub(first_grab.unwrap_or(last_done));
        stat.finish_ns = a.elapsed().as_nanos() as u64;
    }
    (stat, ledger)
}

impl Fleet {
    /// Builds and boots `cfg.nodes` identical nodes, each running `sources`
    /// under `cfg.protection`. One prototype system is built and booted,
    /// then cloned per node — machine state is a value, so every node
    /// starts bit-identical. The clones share the prototype's kernel image
    /// and flash pages; a node copies a page only when it burns it.
    ///
    /// # Errors
    ///
    /// [`LoadError`] if a module cannot be sandboxed or does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nodes` is zero or the prototype fails to boot.
    pub fn new(cfg: &FleetConfig, sources: &[ModuleSource]) -> Result<Fleet, LoadError> {
        assert!(cfg.nodes > 0, "a fleet needs at least one node");
        let mut proto = SosSystem::build(cfg.protection, sources, |a, api| {
            api.run_scheduler(a);
            a.brk();
        })?;
        proto.boot().expect("prototype boots");
        proto.set_load_policy(cfg.load_policy);
        // Enable on the *prototype*, before cloning: priming decodes the
        // flash image once, and every node then shares it behind an `Arc`.
        // Prove before turbo: the decoded pages bake the elision bit, so
        // the map must be published before the engine primes.
        if cfg.prove {
            proto.set_prove(true);
        }
        if cfg.turbo {
            proto.set_turbo(true);
        }
        let layout = proto.layout;
        let nodes = (0..cfg.nodes)
            .map(|i| {
                let mut sys = proto.clone();
                if let Some(spec) = cfg.scope {
                    sys.attach_scope(spec.build());
                }
                let mut node = Node::new(i as u32, cfg.seed, sys);
                node.cohort = i as u32 % cfg.cohorts.max(1);
                if let Some(bb) = cfg.blackbox {
                    let recorder = FlightRecorder::new(bb.recorder);
                    // An explicit scope spec wins; otherwise the recorder
                    // brings its own masked ring.
                    if cfg.scope.is_none() {
                        node.sys.attach_scope(recorder.sink());
                    }
                    node.recorder = Some(recorder);
                    node.watchdog = Some(Watchdog::new(i as u32, bb.watchdog));
                }
                node
            })
            .collect();
        let threads = match cfg.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        };
        Ok(Fleet {
            cfg: *cfg,
            threads,
            layout,
            nodes,
            wake: WakeSet::full(cfg.nodes),
            radio: Radio::new(cfg.seed, cfg.nodes as u32, cfg.net),
            seeder: None,
            retired_seeder: None,
            rollouts: BTreeMap::new(),
            known_good: None,
            tower: cfg.tower.as_ref().map(Tower::new),
            pulse: cfg.pulse.then(Pulse::new),
            next_image_id: 1,
            round: 0,
        })
    }

    /// The layout shared by every node (for assembling images at the base
    /// station).
    pub fn layout(&self) -> SosLayout {
        self.layout
    }

    /// Protection build every node boots with.
    pub fn protection(&self) -> Protection {
        self.cfg.protection
    }

    /// The admission policy every node applies to disseminated modules.
    pub fn load_policy(&self) -> Option<mini_sos::LoadPolicy> {
        self.cfg.load_policy
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet is empty (never true — `new` requires a node).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Rounds stepped so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Worker threads the step phase uses (resolved from the config).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Starts disseminating `image` from the base station: the seeder
    /// adverts + pushes the full chunked image next round, then serves
    /// NACK-driven retransmissions until the fleet converges. Returns the
    /// image id nodes will report.
    pub fn disseminate(&mut self, image: &ModuleImage) -> u16 {
        let id = self.next_image_id;
        self.next_image_id += 1;
        self.seed_image(id, image);
        id
    }

    /// Points the base station at `image` under an existing id. The
    /// seeder's causal identity (clock, log, sequence counter) outlives
    /// any one dissemination — a later image must not reuse
    /// `(SEEDER_ID, seq)` message identities or rewind the clock.
    fn seed_image(&mut self, id: u16, image: &ModuleImage) {
        let (clock, causal, seq) = match self.seeder.take() {
            Some(s) => (s.clock, s.causal, s.seq),
            None => match self.retired_seeder.take() {
                Some(identity) => identity,
                None => (LamportClock::new(), CausalLog::new(SEEDER_ID), 0),
            },
        };
        self.seeder = Some(Seeder {
            image_id: id,
            chunks: image.chunks(self.cfg.chunk_bytes),
            inbox: Vec::new(),
            pending: BTreeSet::new(),
            announced: false,
            clock,
            causal,
            seq,
        });
    }

    /// Quiesces the base station, preserving its causal identity for the
    /// next dissemination. Called when a rollout commits (the fleet has
    /// the image) or rolls back (nobody should keep downloading it).
    fn retire_seeder(&mut self) {
        if let Some(s) = self.seeder.take() {
            self.retired_seeder = Some((s.clock, s.causal, s.seq));
        }
    }

    /// Starts a *staged* dissemination of `image`: only nodes in
    /// `cohorts` may download and flash it; every other node is gated
    /// ineligible and ignores the image's adverts and chunks. Each
    /// eligible node checkpoints its machine immediately before flashing,
    /// so [`Fleet::rollback_rollout`] can restore the exact pre-rollout
    /// state. Returns the image id. Gating is host-side management (not
    /// radio traffic): an ungated fleet run is byte-identical to one that
    /// never used rollouts.
    pub fn begin_rollout(&mut self, image: &ModuleImage, cohorts: &[u32]) -> u16 {
        let id = self.disseminate(image);
        self.rollouts.insert(id, image.clone());
        for node in &mut self.nodes {
            let eligible = cohorts.contains(&node.cohort);
            node.arm_rollout(id, eligible);
        }
        id
    }

    /// Widens rollout `id` to `cohorts` (a stage promotion): newly
    /// eligible nodes get their stage grant, and the base station
    /// re-pushes the full image so they hear an advert without waiting
    /// for the periodic re-advert.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a retained rollout image.
    pub fn extend_rollout(&mut self, id: u16, cohorts: &[u32]) {
        for node in &mut self.nodes {
            if cohorts.contains(&node.cohort) {
                node.arm_rollout(id, true);
            }
        }
        match &mut self.seeder {
            Some(s) if s.image_id == id => s.announced = false,
            _ => {
                let image = self.rollouts.get(&id).expect("rollout image retained").clone();
                self.seed_image(id, &image);
            }
        }
    }

    /// Rolls back rollout `id` fleet-wide: the seeder stops serving the
    /// image, every node that flashed it restores its pre-flash
    /// checkpoint (landing on the exact pre-rollout flash generation),
    /// and every node quarantines the id so still-circulating chunks are
    /// never reassembled. Every node wakes, as after any host access.
    pub fn rollback_rollout(&mut self, id: u16) {
        if self.seeder.as_ref().is_some_and(|s| s.image_id == id) {
            self.retire_seeder();
        }
        for node in &mut self.nodes {
            node.rollback_rollout(id);
        }
        self.wake = WakeSet::full(self.nodes.len());
        self.rollouts.remove(&id);
    }

    /// Commits rollout `id` as the fleet's known-good image: checkpoints
    /// and gates are dropped, the seeder retires, and the image is
    /// retained for future reference ([`Fleet::known_good_image`]).
    pub fn commit_rollout(&mut self, id: u16) {
        if self.seeder.as_ref().is_some_and(|s| s.image_id == id) {
            self.retire_seeder();
        }
        for node in &mut self.nodes {
            node.commit_rollout(id);
        }
        if let Some(prev) = self.known_good.replace(id) {
            if prev != id {
                self.rollouts.remove(&prev);
            }
        }
    }

    /// The last committed rollout image id, if any rollout ever committed.
    pub fn known_good(&self) -> Option<u16> {
        self.known_good
    }

    /// The last committed rollout image (retained at commit).
    pub fn known_good_image(&self) -> Option<&ModuleImage> {
        self.known_good.and_then(|id| self.rollouts.get(&id))
    }

    /// Cohort count the fleet was built with (≥ 1).
    pub fn cohorts(&self) -> u32 {
        self.cfg.cohorts.max(1)
    }

    /// Whether every node has installed the image under dissemination
    /// (vacuously true with no seeder).
    pub fn converged(&self) -> bool {
        let Some(seeder) = &self.seeder else { return true };
        self.nodes.iter().all(|n| n.has_installed(seeder.image_id))
    }

    /// Host-side message injection on one node (a local sensor event).
    /// Wakes the node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn post(&mut self, node: usize, dom: DomainId, msg: u8) {
        self.nodes[node].post(dom, msg);
        self.wake.insert(node);
    }

    /// Host-side message injection on every node. Wakes every node.
    pub fn post_all(&mut self, dom: DomainId, msg: u8) {
        for node in &mut self.nodes {
            node.post(dom, msg);
        }
        self.wake = WakeSet::full(self.nodes.len());
    }

    /// Read-only access to one node. Unlike [`Fleet::with_node`] this never
    /// wakes the node, so inspection leaves the next round's schedule as
    /// it is.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: usize) -> &Node {
        &self.nodes[node]
    }

    /// Runs `f` against one node with `&mut` access (host-side injection,
    /// such as loading a module and posting to it). The node wakes, since
    /// `f` may have given it work; use [`Fleet::node`] to only look.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn with_node<R>(&mut self, node: usize, f: impl FnOnce(&mut Node) -> R) -> R {
        let out = f(&mut self.nodes[node]);
        self.wake.insert(node);
        out
    }

    /// One simulation round: deliver → step the wake set → collect → feed.
    pub fn step_round(&mut self) {
        let round = self.round;
        // Pulse timing: a whole-round stopwatch anchored *before* the lap
        // chain starts and read *after* its last boundary, so
        // `Σ phase_ns <= wall_ns` holds by clock monotonicity — the gap is
        // the unattributed slack `PulseReport::reconcile` bounds.
        let wall = self.pulse.as_ref().map(|_| Instant::now());
        let mut chain = wall.map(|_| Instant::now());
        let mut phase_ns = [0u64; Phase::COUNT];

        // Phase 1 (serial): deliveries and the seeder's transmissions. A
        // delivery wakes its node.
        for (dest, env) in self.radio.take_due(round) {
            if dest == SEEDER {
                if let Some(seeder) = &mut self.seeder {
                    seeder.inbox.push(env);
                }
            } else if let Some(node) = self.nodes.get_mut(dest as usize) {
                node.inbox.push(env);
                self.wake.insert(dest as usize);
            }
        }
        if let Some(seeder) = &mut self.seeder {
            seeder.step(round, &mut self.radio);
        }
        phase_ns[Phase::Deliver as usize] = lap(&mut chain);

        // Phase 2: step every awake node.
        let awake = self.wake.members();
        let stats = self.step_nodes(round, &awake);
        phase_ns[Phase::Step as usize] = lap(&mut chain);

        // Phase 3 (serial): collect outboxes in node-id order so the
        // radio's RNG sees a schedule-independent draw order. Only a
        // stepped node can have one.
        for &i in &awake {
            for (to, env) in std::mem::take(&mut self.nodes[i].outbox) {
                self.radio.send(round, to, env);
            }
        }
        phase_ns[Phase::Collect as usize] = lap(&mut chain);

        // Phase 4 (serial): feed the tower in node-id order. Ingestion is
        // order-insensitive within a round (every aggregate is a sum), but
        // a fixed order keeps the phase schedule-independent by
        // construction, like phase 3.
        if self.tower.is_some() {
            self.feed_tower(round, true);
        }
        phase_ns[Phase::Feed as usize] = lap(&mut chain);

        if let (Some(pulse), Some(wall), Some(stats)) = (&mut self.pulse, wall, stats) {
            let wall_ns = wall.elapsed().as_nanos() as u64;
            pulse.record_round(round, RoundTiming { wall_ns, phase_ns }, stats);
        }

        self.round += 1;
    }

    /// Streams every node's counter deltas, fresh postmortem dumps and
    /// fresh watchdog alerts into the tower. `is_round` marks a real
    /// round boundary; a residual drain (host posts after the last round)
    /// adjusts totals without counting as a node-round sample.
    fn feed_tower(&mut self, round: u64, is_round: bool) {
        let Some(tower) = &mut self.tower else { return };
        for node in &mut self.nodes {
            let sample = node.tower_sample(round, is_round);
            if is_round || !sample.deltas.is_zero() {
                tower.ingest(&sample);
            }
            for dump in node.unrouted_dumps() {
                tower.ingest_dump(node.cohort, &dump);
            }
            for alert in node.unrouted_alerts() {
                tower.ingest_alert(node.cohort, alert.kind);
            }
        }
    }

    /// The step phase, the one loop every schedule runs: steps each node
    /// in `awake` (ascending ids) once and puts to sleep those it left
    /// idle. `min(threads, batches)` workers, the caller among them, take
    /// [`BATCH`]-node batches of disjoint `&mut` borrows from one cursor.
    ///
    /// With pulse attached it also returns the round's [`StepStats`]. A
    /// skipped node counts as idle: it fell asleep with no pending work
    /// and nothing has reached it since. Its counter table is current, so
    /// the cycle sum and frontier read it there.
    fn step_nodes(&mut self, round: u64, awake: &[usize]) -> Option<StepStats> {
        let work = (round, self.cfg.cycle_budget);
        let (mut rest, mut next) = (self.nodes.iter_mut(), 0);
        let mut nodes: Vec<(&mut Node, bool)> = awake
            .iter()
            .map(|&i| {
                let node = rest.nth(i - next).expect("awake ids ascend within the fleet");
                next = i + 1;
                (node, true)
            })
            .collect();
        let pulse = self.pulse.is_some();
        let anchor = pulse.then(Instant::now);
        let workers = self.threads.min(nodes.len().div_ceil(BATCH));
        let mut batches = nodes.chunks_mut(BATCH);
        let shifts = match workers {
            0 => Vec::new(),
            // A lone worker has no barrier to time, so it takes no clocks.
            1 => vec![drain(|| batches.next(), work, pulse, None)],
            _ => {
                let cursor = Mutex::new(batches);
                let grab = || cursor.lock().expect("no worker panics holding the cursor").next();
                std::thread::scope(|scope| {
                    let helpers: Vec<_> = (1..workers)
                        .map(|_| scope.spawn(move || drain(grab, work, pulse, anchor)))
                        .collect();
                    let mut shifts = vec![drain(grab, work, pulse, anchor)];
                    shifts.extend(helpers.into_iter().map(|h| h.join().expect("step worker")));
                    shifts
                })
            }
        };
        for (&i, _) in awake.iter().zip(&nodes).filter(|(_, (_, stays_awake))| !stays_awake) {
            self.wake.remove(i);
        }
        let mut stats = StepStats::default();
        stats.ledger.stepped = (self.cfg.nodes - awake.len()) as u64;
        for (stat, ledger) in shifts {
            stats.ledger.merge(&ledger);
            stats.workers.push(stat);
        }
        let anchor = anchor?;
        if workers == 1 {
            let ns = anchor.elapsed().as_nanos() as u64;
            stats.workers[0] =
                WorkerStat { busy_ns: ns, span_ns: ns, finish_ns: ns, ..stats.workers[0] };
        }
        stats.workers.retain(|w| w.nodes > 0);
        let cycles = self.nodes.iter().map(|n| n.counters().cycles);
        (stats.cycles_total, stats.cycles_frontier) =
            (cycles.clone().sum(), cycles.max().unwrap_or(0));
        Some(stats)
    }

    /// Steps `rounds` rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step_round();
        }
    }

    /// Steps until the fleet converges, up to `max_rounds`. Returns the
    /// round count at convergence.
    ///
    /// # Errors
    ///
    /// The fleet state (rounds stepped, nodes still missing the image) if
    /// the deadline passes without convergence.
    pub fn run_until_converged(&mut self, max_rounds: u64) -> Result<u64, String> {
        let deadline = self.round + max_rounds;
        while !self.converged() {
            if self.round >= deadline {
                let missing = self.seeder.as_ref().map_or(0, |s| {
                    self.nodes.iter().filter(|n| !n.has_installed(s.image_id)).count()
                });
                return Err(format!(
                    "dissemination did not converge within {max_rounds} rounds \
                     ({missing}/{} nodes missing the image)",
                    self.nodes.len()
                ));
            }
            self.step_round();
        }
        Ok(self.round)
    }

    /// Snapshot of every counter in the run. When the config attached
    /// trace sinks, the per-node sinks are reduced into a fleet-wide
    /// [`crate::ScopeAggregate`] (per-kind sums plus sum/max/p99 of events
    /// recorded per node).
    pub fn telemetry(&mut self) -> FleetTelemetry {
        let traced = self.cfg.scope.is_some() || self.cfg.blackbox.is_some();
        let scope = traced.then(|| {
            let mut agg = crate::ScopeAggregate::default();
            let mut per_node_recorded = harbor_scope::CycleHistogram::new();
            for node in &self.nodes {
                let Some(sink) = node.sys.scope() else { continue };
                agg.recorded += sink.recorded();
                agg.dropped += sink.dropped();
                agg.max_recorded = agg.max_recorded.max(sink.recorded());
                per_node_recorded.observe(sink.recorded());
                for (total, n) in agg.kinds.iter_mut().zip(sink.kind_counts().as_array()) {
                    *total += n;
                }
            }
            agg.p99_recorded = per_node_recorded.quantile(9900);
            agg
        });
        let per_node: Vec<_> = self.nodes.iter().map(Node::telemetry).collect();
        let convergence_round = if self.seeder.is_some() && self.converged() {
            per_node.iter().filter_map(|n| n.installed_round).max()
        } else {
            None
        };
        FleetTelemetry {
            seed: self.cfg.seed,
            protection: format!("{:?}", self.cfg.protection),
            nodes: self.nodes.len(),
            rounds: self.round,
            threads: self.threads,
            convergence_round,
            packets_sent: self.radio.sent,
            packets_delivered: self.radio.delivered,
            packets_dropped: self.radio.dropped,
            scope,
            per_node,
        }
    }

    /// The telemetry rollup: per-cohort time series, health scores, top-K
    /// offenders and the dump index. `None` unless the config attached a
    /// tower. Drains any residual counter movement first (host-side posts
    /// after the last round), so at any point, not just on a round
    /// boundary, the rollup's totals equal the sum of the nodes' counter
    /// tables plus what checkpoint restores rewound (see
    /// [`Node::counters`]).
    pub fn tower_rollup(&mut self) -> Option<FleetRollup> {
        self.tower.is_some().then(|| {
            let round = self.round;
            self.feed_tower(round, false);
            self.tower.as_ref().expect("tower attached").rollup()
        })
    }

    /// The rollup as the last [`Fleet::step_round`]'s feed left it, with no
    /// residual drain. Until a host-side call moves a counter (a post, a
    /// rollout command), it equals [`Fleet::tower_rollup`], and it reads
    /// no node: the read a controller makes right after stepping. `None`
    /// unless the config attached a tower.
    pub fn round_rollup(&self) -> Option<FleetRollup> {
        self.tower.as_ref().map(Tower::rollup)
    }

    /// Snapshot of the pulse profiler: per-phase sketches, worker stats,
    /// the idle-work ledger and the retained round timeline. `None`
    /// unless the config set [`FleetConfig::pulse`].
    pub fn pulse_report(&self) -> Option<PulseReport> {
        self.pulse.as_ref().map(Pulse::report)
    }

    /// Channel counters without building full telemetry:
    /// `(sent, delivered, dropped, in_flight)`. `harbor-pulse` cross-checks
    /// the ledger's inbox counts against deliveries with this.
    pub fn radio_stats(&self) -> (u64, u64, u64, usize) {
        (self.radio.sent, self.radio.delivered, self.radio.dropped, self.radio.in_flight_count())
    }

    /// Every postmortem dump the fleet's flight recorders froze, sorted
    /// by `(node, fault cycle stamp)` — a total order independent of
    /// discovery order, so reports built from it are diffable. Empty
    /// unless the config enabled the blackbox.
    pub fn dumps(&mut self) -> Vec<Postmortem> {
        let mut dumps: Vec<Postmortem> = self
            .nodes
            .iter()
            .flat_map(|n| n.recorder.as_ref().map_or(Vec::new(), |r| r.dumps().to_vec()))
            .collect();
        dumps.sort_by_key(|d| (d.node, d.fault.cycles));
        dumps
    }

    /// Every causal log in the run: the nodes in id order, then the
    /// seeder's (if one disseminated). Feed to
    /// [`harbor_blackbox::check_monotone`] or
    /// [`harbor_blackbox::chrome_trace`].
    pub fn causal_logs(&mut self) -> Vec<CausalLog> {
        let mut logs: Vec<CausalLog> = self.nodes.iter().map(|n| n.causal.clone()).collect();
        if let Some(seeder) = &self.seeder {
            logs.push(seeder.causal.clone());
        } else if let Some((_, causal, _)) = &self.retired_seeder {
            logs.push(causal.clone());
        }
        logs
    }

    /// The fleet's happens-before DAG rendered as one multi-track Perfetto
    /// chrome-trace document with flow arrows on the message edges.
    pub fn causal_trace(&mut self) -> String {
        harbor_blackbox::chrome_trace(&self.causal_logs())
    }

    /// Every watchdog alert raised so far, in node-id order (each node's
    /// alerts in round order). Empty unless the config enabled the
    /// blackbox.
    pub fn alerts(&mut self) -> Vec<Alert> {
        self.nodes
            .iter()
            .flat_map(|n| n.watchdog.as_ref().map_or(Vec::new(), |w| w.alerts().to_vec()))
            .collect()
    }
}
