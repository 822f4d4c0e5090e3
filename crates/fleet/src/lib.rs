//! harbor-fleet: a parallel multi-node sensor-network simulator.
//!
//! The paper's deployment context is a *sensor network*: modules like Surge
//! and Tree Routing are distributed over the radio and hot-loaded on
//! MMU-less nodes, and the motivating war story is a cross-domain corruption
//! that took down a real deployment. The rest of this repository reproduces
//! all of that on a single node; this crate scales it to a population:
//!
//! * [`net`] — a deterministic, seed-driven packet network with
//!   configurable loss and latency, carrying a chunked module-dissemination
//!   protocol with NACK-based retransmission and exponential backoff;
//! * [`image`] — the over-the-air wire format for pre-assembled modules
//!   (chunking, checksums, reassembly back into the loader's
//!   [`LoadedModule`](mini_sos::loader::LoadedModule) path);
//! * [`node`] — one sensor node: a [`SosSystem`](mini_sos::SosSystem)
//!   wrapped with an inbox, the dissemination state machine, and per-node
//!   telemetry;
//! * [`fleet`] — event-driven round stepping of hundreds of nodes: each
//!   round steps only the nodes in its wake set (a packet, a post, OTA
//!   reassembly, queued kernel work or a draining watchdog), through one
//!   loop that hands disjoint batches to `std::thread` workers; serial and
//!   parallel execution produce byte-identical telemetry;
//! * [`telemetry`] — per-node and aggregate counters exported as JSON;
//! * [`campaign`] — fleet-scale fault-injection campaigns measuring
//!   containment and recovery under the three protection builds.
//!
//! With [`FleetConfig::tower`] set, every round also streams per-node
//! counter deltas, postmortem dumps and watchdog alerts into a
//! `harbor-tower` aggregation pipeline; [`Fleet::tower_rollup`] serves the
//! merged per-cohort rollup (time series, health scores, top-K offenders,
//! dump index) that the `harbor-tower` CLI renders and gates on.
//!
//! With [`FleetConfig::pulse`] set, the fleet also profiles *itself*: a
//! `harbor-pulse` recorder times every pipeline phase (deliver, step,
//! collect, tower feed), accounts per-worker busy/barrier time, and keeps
//! an idle-work ledger of node-steps with nothing to do (skipped by the
//! wake set, or stepped with no pending work) —
//! [`Fleet::pulse_report`] serves the snapshot the `harbor-pulse` CLI
//! renders and gates on. Pulse reads state and the host clock only; a
//! pulse-enabled run's telemetry is byte-identical to a disabled run's.
//!
//! Everything is reproducible from a single `u64` seed: the radio, every
//! node and every campaign derive their generators from it, and no ambient
//! entropy exists anywhere in the crate.
//!
//! # Example
//!
//! Disseminate Tree Routing to a small fleet through a 20 % lossy radio:
//!
//! ```
//! use harbor_fleet::{Fleet, FleetConfig, ModuleImage, NetConfig};
//! use mini_sos::{modules, Protection};
//!
//! let cfg = FleetConfig {
//!     nodes: 8,
//!     protection: Protection::Umpu,
//!     seed: 7,
//!     net: NetConfig { loss: 0.2, ..NetConfig::default() },
//!     ..FleetConfig::default()
//! };
//! let mut fleet = Fleet::new(&cfg, &[modules::surge(1, 3)]).unwrap();
//! let image = ModuleImage::assemble(&modules::tree_routing(3), &fleet.layout(), cfg.protection)
//!     .unwrap();
//! fleet.disseminate(&image);
//! fleet.run_until_converged(400).unwrap();
//! assert!(fleet.converged());
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod fleet;
pub mod image;
pub mod net;
pub mod node;
pub mod telemetry;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use fleet::{BlackboxConfig, Fleet, FleetConfig};
pub use harbor_pulse::{PendingWork, Pulse, PulseReport};
pub use harbor_tower::{FleetRollup, HealthConfig, TowerConfig};
pub use image::{ImageError, ModuleImage};
pub use net::{Envelope, NetConfig, Packet, Radio, BROADCAST, SEEDER};
pub use node::Node;
pub use telemetry::{FleetTelemetry, NodeTelemetry, ScopeAggregate};
