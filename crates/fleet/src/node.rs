//! One sensor node: a [`SosSystem`] wrapped with a radio inbox/outbox, the
//! dissemination state machine and the node's counter table.
//!
//! A node only ever touches its own state during the fleet's parallel phase
//! — incoming packets are staged into `inbox` by the serial deliver phase,
//! and outgoing packets accumulate in `outbox` until the serial collect
//! phase drains them onto the radio. That discipline is what lets hundreds
//! of nodes step on worker threads while staying bit-identical to a serial
//! run.

use crate::image::ModuleImage;
use crate::net::{Envelope, NodeId, Packet, SEEDER};
use crate::telemetry::NodeTelemetry;
use avr_core::Fault;
use harbor::DomainId;
use harbor_blackbox::{
    CausalKind, CausalLog, CausalRecord, FlightRecorder, LamportClock, Watchdog,
};
use harbor_scope::ScopeSink;
use harbor_tower::{CounterSet, RoundSample};
use mini_sos::SosSystem;
use rand::{Rng, SeedableRng, StdRng};
use std::collections::BTreeMap;

/// Most chunk indices listed in a single retransmission request.
const MAX_REQUEST: usize = 16;

/// Retransmission backoff cap, in rounds.
const MAX_BACKOFF: u64 = 32;

/// In-progress reassembly of one disseminated image.
#[derive(Debug, Clone)]
struct Dissem {
    module: u16,
    chunks: Vec<Option<Vec<u8>>>,
    have: usize,
    backoff: u64,
    next_request: u64,
}

impl Dissem {
    fn new(module: u16, total: u16, round: u64) -> Dissem {
        Dissem {
            module,
            chunks: vec![None; total as usize],
            have: 0,
            backoff: 1,
            next_request: round + 2,
        }
    }

    fn missing(&self) -> Vec<u16> {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| i as u16)
            .take(MAX_REQUEST)
            .collect()
    }
}

/// One simulated sensor node.
#[derive(Debug)]
pub struct Node {
    /// Node id (also its radio address).
    pub id: u32,
    /// Cohort tag for fleet rollups (assigned by the fleet at build:
    /// `id % cohorts`). Purely observational — nodes in different cohorts
    /// run identical code; the tag only groups their telemetry.
    pub cohort: u32,
    /// The node's simulated processor + kernel + modules.
    pub sys: SosSystem,
    /// Frames delivered this round (staged by the fleet's serial phase).
    pub inbox: Vec<Envelope>,
    /// Frames to transmit (drained by the fleet's serial phase).
    pub outbox: Vec<(NodeId, Envelope)>,
    /// The node's Lamport clock: ticks on send, max-merges on receive, so
    /// every stamp respects happens-before across the whole fleet.
    pub clock: LamportClock,
    /// Causal log of every send, receive and fault on this node. Set with
    /// the flight recorder by the fleet's blackbox config, and `None`
    /// otherwise, since only the blackbox's readers look at it. The clock
    /// above and the envelope stamps run either way.
    pub causal: Option<CausalLog>,
    /// Optional flight recorder (set by the fleet's blackbox config).
    pub recorder: Option<FlightRecorder>,
    /// Optional anomaly watchdog (set by the fleet's blackbox config).
    pub watchdog: Option<Watchdog>,
    seq: u64,
    // The node's counter table (see `Node::counters`).
    counters: CounterSet,
    // Round the disseminated module was installed in, if it was.
    installed_round: Option<u64>,
    // The table as last fed to the tower (delta baseline) plus high-water
    // marks for dump/alert routing. All zero until the fleet's feed phase
    // touches them; a tower-less run never does.
    tower_prev: CounterSet,
    dumps_fed: usize,
    alerts_fed: usize,
    dissem: Option<Dissem>,
    installed: Vec<u16>,
    quarantined: Vec<u16>,
    // Rollout gate: image id → eligibility under the current stage grant.
    // Managed host-side by the fleet's rollout APIs (never over the radio),
    // so an ungated fleet behaves byte-identically to one with no
    // controller attached. An ineligible entry makes the node ignore the
    // image's adverts and chunks until a later stage grants it.
    gate: BTreeMap<u16, bool>,
    // Pre-flash checkpoint of the whole machine, taken immediately before
    // a gated rollout image is burned. Restoring it is what makes
    // auto-rollback land on the *exact* pre-rollout flash generation. The
    // clone shares the kernel image and every flash page with the live
    // machine, and the install copies only the pages it burns, so a
    // checkpoint costs SRAM, registers and those pages.
    checkpoint: Option<(u16, Box<SosSystem>)>,
    rng: StdRng,
}

impl Node {
    /// Wraps a booted system as node `id`. The node's private generator
    /// (request jitter) derives from `(fleet_seed, id)` only.
    pub fn new(id: u32, fleet_seed: u64, sys: SosSystem) -> Node {
        Node {
            id,
            cohort: 0,
            sys,
            inbox: Vec::new(),
            outbox: Vec::new(),
            clock: LamportClock::new(),
            causal: None,
            recorder: None,
            watchdog: None,
            seq: 0,
            counters: CounterSet::default(),
            installed_round: None,
            tower_prev: CounterSet::default(),
            dumps_fed: 0,
            alerts_fed: 0,
            dissem: None,
            installed: Vec::new(),
            quarantined: Vec::new(),
            gate: BTreeMap::new(),
            checkpoint: None,
            rng: StdRng::seed_from_u64(
                fleet_seed ^ (id as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
        }
    }

    /// The node's counter table: every counter the node keeps, cumulative
    /// since it was built. The watchdog and the tower read it, and
    /// [`Node::telemetry`] renders it.
    ///
    /// Event entries only ever grow. The entries the machine keeps itself
    /// (cycles, instructions, installs, ...) show the machine as it is, so
    /// a checkpoint restore lowers them; the tower still counts the work
    /// the restore rewound, so the rollup equals the fleet's tables plus
    /// what restores rewound.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// This node's [`NodeTelemetry`]: the view of its counter table that
    /// the fleet's JSON and `metrics` readers see.
    pub fn telemetry(&self) -> NodeTelemetry {
        NodeTelemetry::view(self.id, &self.counters, self.installed_round)
    }

    /// Whether the node has installed disseminated image `module`.
    pub fn has_installed(&self, module: u16) -> bool {
        self.installed.contains(&module)
    }

    /// Whether the node rejected disseminated image `module` under its
    /// load policy (the image completed reassembly but was never burned).
    pub fn has_quarantined(&self, module: u16) -> bool {
        self.quarantined.contains(&module)
    }

    /// An image the node is done with — installed *or* quarantined — is
    /// never re-downloaded.
    fn has_resolved(&self, module: u16) -> bool {
        self.has_installed(module) || self.has_quarantined(module)
    }

    /// Whether a rollout gate exists for `module` and marks this node
    /// ineligible — adverts and chunks for the image are then ignored, so
    /// a staged canary never reaches cohorts outside its grant.
    fn rollout_blocked(&self, module: u16) -> bool {
        self.gate.get(&module).is_some_and(|&eligible| !eligible)
    }

    /// Registers (or widens) a rollout gate for `module`. `eligible`
    /// nodes may download and flash the image — a flip from ineligible to
    /// eligible is a stage grant and counts toward `helm.stages_promoted`.
    /// Gates never narrow: once granted, a node stays eligible.
    pub(crate) fn arm_rollout(&mut self, module: u16, eligible: bool) {
        let was = self.gate.get(&module).copied().unwrap_or(false);
        if eligible && !was {
            self.counters.stages_promoted += 1;
        }
        self.gate.insert(module, was || eligible);
    }

    /// Rolls back rollout image `module`: restores the pre-flash
    /// checkpoint (if this node burned the image), quarantines the id so
    /// still-circulating chunks are never reassembled, and drops any
    /// in-progress download. Restoring the checkpoint rewinds the whole
    /// machine — flash, flash generation, cycle counters — to the instant
    /// before the install. The table's machine entries follow the machine
    /// back, and the tower's delta baseline goes down by as much, so the
    /// rollup keeps the work the restore took back.
    pub(crate) fn rollback_rollout(&mut self, module: u16) {
        if self.dissem.as_ref().is_some_and(|d| d.module == module) {
            self.dissem = None;
        }
        self.gate.remove(&module);
        if !self.quarantined.contains(&module) {
            self.quarantined.push(module);
        }
        if self.checkpoint.as_ref().is_some_and(|(id, _)| *id == module) {
            let (_, sys) = self.checkpoint.take().expect("checkpoint present");
            self.sys = *sys;
            self.installed.retain(|&m| m != module);
            self.installed_round = None;
            let before = self.counters;
            self.copy_machine_counters();
            self.tower_prev = self.tower_prev.delta(&before.delta(&self.counters));
            self.counters.rollbacks += 1;
        }
    }

    /// Commits rollout image `module`: the checkpoint (and the gate) are
    /// no longer needed — the image is the fleet's known-good.
    pub(crate) fn commit_rollout(&mut self, module: u16) {
        self.gate.remove(&module);
        if self.checkpoint.as_ref().is_some_and(|(id, _)| *id == module) {
            self.checkpoint = None;
        }
    }

    /// Host-side message injection (a local sensor event): posts `msg` to
    /// `dom`'s handler, counting queue overflow instead of panicking.
    pub fn post(&mut self, dom: DomainId, msg: u8) {
        if self.sys.try_post(dom, msg) {
            self.counters.messages += 1;
        } else {
            self.counters.queue_drops += 1;
        }
    }

    /// Queues a packet for transmission: ticks the Lamport clock, stamps
    /// the envelope with this node's next `(from, seq)` message identity,
    /// logs the send in the causal log (if kept), and counts it.
    fn transmit(&mut self, round: u64, to: NodeId, packet: Packet) {
        self.counters.tx += 1;
        let lamport = self.clock.tick();
        let seq = self.seq;
        self.seq += 1;
        if let Some(log) = &mut self.causal {
            log.push(CausalRecord {
                lamport,
                round,
                kind: CausalKind::Send,
                peer: to,
                from: self.id,
                seq,
                label: packet.label(),
            });
        }
        self.outbox.push((to, Envelope { from: self.id, seq, lamport, packet }));
    }

    /// Classifies this node's pending work for the idle-work ledger — a
    /// pure function of node state (inbox, OTA reassembly, kernel queue),
    /// never of the schedule, so serial and parallel runs classify
    /// identically. With pulse attached the fleet classifies every awake
    /// node immediately before its [`Node::step`].
    pub fn pending_work(&self) -> harbor_pulse::PendingWork {
        harbor_pulse::PendingWork {
            inbox: !self.inbox.is_empty(),
            ota: self.dissem.is_some(),
            queue: self.sys.queue_len() > 0,
        }
    }

    /// Whether the fleet must step this node again next round even if
    /// nothing reaches it: OTA reassembly is in flight (its NACK timer
    /// runs), the kernel queue still holds messages, or the watchdog is
    /// not quiet (its windows roll down one round at a time, and that
    /// timing decides when a detector re-arms).
    ///
    /// Otherwise the node may sleep until a packet, a post or host access
    /// reaches it, because until then [`Node::step`] changes nothing: it
    /// drains an empty inbox, skips the CPU, re-copies machine counters that
    /// cannot have moved since the last step, polls a flight recorder that
    /// only reacts to new events or cycles, and feeds a quiet watchdog the
    /// totals it already holds, which leaves it as it was.
    pub(crate) fn stays_awake(&self) -> bool {
        self.pending_work().any() || self.watchdog.as_ref().is_some_and(|w| !w.is_quiet())
    }

    /// One simulation round: consume the inbox, advance dissemination
    /// (NACK missing chunks with exponential backoff), and run the node's
    /// CPU for up to `cycle_budget` cycles if work is queued. Faults are
    /// recovered kernel-side, mirroring the paper's clean-restart story.
    pub fn step(&mut self, round: u64, cycle_budget: u64) {
        // The inbox keeps its buffer from round to round: `receive` needs
        // the whole node, so the buffer is lent out while it drains.
        let mut inbox = std::mem::take(&mut self.inbox);
        for env in inbox.drain(..) {
            self.counters.rx += 1;
            let lamport = self.clock.observe(env.lamport);
            if let Some(log) = &mut self.causal {
                log.push(CausalRecord {
                    lamport,
                    round,
                    kind: CausalKind::Recv,
                    peer: env.from,
                    from: env.from,
                    seq: env.seq,
                    label: env.packet.label(),
                });
            }
            self.receive(round, env.packet);
        }
        self.inbox = inbox;

        // NACK phase: if reassembly has stalled, ask the seeder for what is
        // still missing, backing off exponentially (with per-node jitter so
        // a whole fleet does not synchronize its requests).
        if let Some(d) = &mut self.dissem {
            if round >= d.next_request {
                let missing = d.missing();
                if !missing.is_empty() {
                    let module = d.module;
                    d.backoff = (d.backoff * 2).min(MAX_BACKOFF);
                    let jitter = self.rng.gen_range(0..d.backoff / 2 + 1);
                    d.next_request = round + d.backoff + jitter;
                    self.counters.retransmits += 1;
                    self.transmit(round, SEEDER, Packet::Request { module, missing });
                }
            }
        }

        if self.sys.queue_len() > 0 {
            let elided = self.sys.stores_elided();
            match self.sys.run_slice(cycle_budget) {
                Ok(_) => {}
                Err(fault) => {
                    self.counters.faults += 1;
                    self.counters.contained += u64::from(matches!(fault, Fault::Env(_)));
                    // Freeze the postmortem *before* recovery, while the
                    // architectural state still shows the fault; the fault
                    // is also a local milestone on the causal trace.
                    let lamport = self.clock.tick();
                    if let Some(log) = &mut self.causal {
                        log.push(CausalRecord {
                            lamport,
                            round,
                            kind: CausalKind::Local,
                            peer: self.id,
                            from: self.id,
                            seq: 0,
                            label: "fault",
                        });
                    }
                    if let Some(rec) = &mut self.recorder {
                        self.counters.dumps +=
                            u64::from(rec.freeze(&self.sys, self.id, round, lamport));
                    }
                    self.sys.recover_from_fault();
                    self.counters.recoveries += 1;
                }
            }
            // Counted per slice, so a restore that rewinds the machine's
            // total never un-counts an elision.
            self.counters.stores_elided += self.sys.stores_elided() - elided;
        }

        if let Some(rec) = &mut self.recorder {
            rec.poll(&self.sys);
        }
        self.copy_machine_counters();
        if let Some(wd) = &mut self.watchdog {
            let c = &self.counters;
            let fired = wd.observe(round, c.faults, c.retransmits, c.ring_dropped);
            self.counters.alerts += fired.len() as u64;
        }
    }

    /// Copies the counters the machine keeps itself into the table.
    fn copy_machine_counters(&mut self) {
        let (c, sys) = (&mut self.counters, &self.sys);
        c.cycles = sys.cycles();
        c.idle_cycles = sys.idle_cycles();
        c.instructions = sys.instructions();
        c.installs = sys.modules_installed();
        c.unloads = sys.modules_unloaded();
        c.ring_dropped = sys.scope().map_or(0, ScopeSink::dropped);
    }

    /// One [`RoundSample`] for the fleet's feed phase: the delta of the
    /// counter table since the previous sample. Pass `is_round: false` for
    /// a residual drain after the last round (counts host-side posts that
    /// landed after stepping; contributes no sample).
    pub fn tower_sample(&mut self, round: u64, is_round: bool) -> RoundSample {
        let mut deltas = self.counters.delta(&self.tower_prev);
        self.tower_prev = self.counters;
        deltas.samples = u64::from(is_round);
        RoundSample {
            node: self.id,
            cohort: self.cohort,
            round,
            deltas,
            faults_total: self.counters.faults,
            alerts_total: self.counters.alerts,
        }
    }

    /// Postmortem dumps frozen since the last feed (tower routing).
    pub fn unrouted_dumps(&mut self) -> Vec<harbor_blackbox::Postmortem> {
        let Some(rec) = &self.recorder else { return Vec::new() };
        let dumps = rec.dumps();
        let fresh = dumps[self.dumps_fed.min(dumps.len())..].to_vec();
        self.dumps_fed = dumps.len();
        fresh
    }

    /// Watchdog alerts raised since the last feed (tower routing).
    pub fn unrouted_alerts(&mut self) -> Vec<harbor_blackbox::Alert> {
        let Some(wd) = &self.watchdog else { return Vec::new() };
        let alerts = wd.alerts();
        let fresh = alerts[self.alerts_fed.min(alerts.len())..].to_vec();
        self.alerts_fed = alerts.len();
        fresh
    }

    fn receive(&mut self, round: u64, packet: Packet) {
        match packet {
            Packet::Advert { module, total } => {
                if self.rollout_blocked(module) {
                    return;
                }
                if !self.has_resolved(module) && self.dissem.is_none() && total > 0 {
                    self.dissem = Some(Dissem::new(module, total, round));
                }
            }
            Packet::Chunk { module, seq, total, payload } => {
                if self.has_resolved(module) || self.rollout_blocked(module) {
                    return;
                }
                if self.dissem.is_none() && total > 0 {
                    self.dissem = Some(Dissem::new(module, total, round));
                }
                let Some(d) = &mut self.dissem else { return };
                if d.module != module || seq as usize >= d.chunks.len() {
                    return;
                }
                if d.chunks[seq as usize].is_none() {
                    d.chunks[seq as usize] = Some(payload);
                    d.have += 1;
                    self.counters.chunks += 1;
                    // Progress: restart the backoff clock.
                    d.backoff = 1;
                    d.next_request = round + 2;
                    if d.have == d.chunks.len() {
                        self.finish_dissemination(round);
                    }
                }
            }
            // Only the seeder answers retransmission requests.
            Packet::Request { .. } => {}
            Packet::Msg { dom, msg } => self.post(DomainId::num(dom), msg),
        }
    }

    /// All chunks present: reassemble, verify the checksum and install via
    /// the loader's normal path. A corrupted image restarts reassembly.
    fn finish_dissemination(&mut self, round: u64) {
        let d = self.dissem.as_mut().expect("dissemination in progress");
        let bytes: Vec<u8> =
            d.chunks.iter().flat_map(|c| c.as_deref().expect("complete")).copied().collect();
        match ModuleImage::from_bytes(&bytes) {
            Ok(image) => {
                let module = d.module;
                self.dissem = None;
                let dom = DomainId::num(image.domain);
                let loaded = image.to_loaded();
                // Admission gate: the node's load policy sees the image
                // *before* flash — a module whose certified stack bound
                // exceeds the allotment is quarantined, not installed.
                if self.sys.admit_module(&loaded).is_err() {
                    self.quarantined.push(module);
                    self.counters.quarantined += 1;
                    return;
                }
                if self.sys.modules.iter().all(|m| m.domain != dom) {
                    // A gated rollout image checkpoints the machine before
                    // flash is touched: rollback restores this clone, so
                    // the node lands back on the exact pre-rollout flash
                    // generation.
                    if self.gate.contains_key(&module) {
                        self.checkpoint = Some((module, Box::new(self.sys.clone())));
                        self.counters.images_admitted += 1;
                    }
                    self.sys.install_module(loaded);
                }
                self.installed.push(module);
                self.installed_round = Some(round);
            }
            Err(_) => {
                // The radio only drops packets, so this is defensive — but
                // a node must never burn a corrupted image into flash.
                for c in &mut d.chunks {
                    *c = None;
                }
                d.have = 0;
                d.backoff = 1;
                d.next_request = round + 1;
            }
        }
    }
}
