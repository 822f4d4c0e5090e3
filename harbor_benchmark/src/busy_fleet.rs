//! `busy_fleet`: every node busy every round, on the turbo + prove fast
//! path.
//!
//! Six modules under UMPU; each round posts a timer to blink, tree
//! routing, the store stressor, fixed Surge and the producer (which posts
//! onward to the consumer), then steps the fleet. No node is ever idle and
//! the radio stays silent, so round time is execution-layer time: engine
//! dispatch, memory-map checks and elided stores, jump-table crossings and
//! the safe stack, `malloc`/`change_own` map writes. An idle-skipping fleet
//! core must leave this workload unchanged; an engine change shows here.
//!
//! Checks: no message is dropped and no guest faults (those are the
//! failures); every node ends in the same state as node 0; and node 0's
//! input replayed on a standalone reference-engine system under the cycle
//! profiler retires exactly the same cycles and instructions — which also
//! yields the `sim.*` split of simulated cycles by mechanism.

use crate::fleet_layers::{self, FleetLayers};
use crate::run::{Run, Size};
use harbor::DomainId;
use harbor_fleet::{Fleet, FleetConfig, NetConfig, NodeTelemetry};
use harbor_scope::{DomainProfiler, Mechanism, ScopeSink};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, ModuleSource, Protection, SosSystem};
use std::time::Instant;

/// 512 nodes; 500 rounds (~3.5 s on the reference host) per episode.
pub const SIZE: Size = Size { nodes: 512, ops: 500 };

/// Domains that get a timer every round.
const TIMER_DOMAINS: [u8; 5] = [0, 1, 2, 3, 5];

fn sources() -> Vec<ModuleSource> {
    vec![
        modules::blink(0),
        modules::tree_routing(1),
        modules::stress_store(2),
        modules::surge_fixed(3, 1),
        modules::producer(5, 6),
        modules::consumer(6, 5),
    ]
}

/// Runs the workload.
pub fn run(run: &mut Run, size: Size) {
    let mut layers = FleetLayers::default();
    while let Some(k) = run.next_episode() {
        let traced = run.traced();
        let cfg = FleetConfig {
            nodes: size.nodes,
            protection: Protection::Umpu,
            seed: run.seed.wrapping_add(k),
            net: NetConfig { loss: 0.1, ..NetConfig::default() },
            threads: fleet_layers::THREADS,
            turbo: true,
            prove: true,
            pulse: traced,
            ..FleetConfig::default()
        };
        let mut fleet =
            run.setup(|| Fleet::new(&cfg, &sources()).expect("busy_fleet fleet builds"));
        if k == 0 {
            fleet_layers::note_engine(run, &mut fleet);
        }
        let boot = fleet_layers::boot_instructions(&mut fleet);
        for _ in 0..size.ops {
            if run.expired() {
                break;
            }
            run.op(|| {
                let t = traced.then(Instant::now);
                for d in TIMER_DOMAINS {
                    fleet.post_all(DomainId::num(d), MSG_TIMER);
                }
                if let Some(t) = t {
                    layers.inject_ns += t.elapsed().as_nanos() as u64;
                }
                fleet.step_round();
            });
        }
        let rounds = run.end_ops();

        let tel = fleet.telemetry();
        run.attempted += TIMER_DOMAINS.len() as u64 * size.nodes as u64 * rounds;
        run.failed += tel.total(|n| n.queue_drops + n.faults());
        let node0 = &tel.per_node[0];
        let diverged = tel
            .per_node
            .iter()
            .filter(|n| (n.cycles, n.instructions) != (node0.cycles, node0.instructions))
            .count();
        run.check(diverged == 0, || format!("episode {k}: {diverged} nodes diverged from node 0"));
        layers.absorb(&fleet, &tel, boot);
        if k == 0 {
            fleet_layers::record_counts(run, &mut fleet, &tel);
            replay_node0(run, rounds, node0, cfg.cycle_budget);
        }
    }
    layers.finish(run);
}

/// Replays node 0's input — the same posts, the same slice budget — on a
/// standalone reference-engine system under the cycle profiler. The fleet
/// node ran the fast path; both must retire identical totals.
fn replay_node0(run: &mut Run, rounds: u64, node0: &NodeTelemetry, budget: u64) {
    let mut sys = SosSystem::build(Protection::Umpu, &sources(), |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .expect("replay system builds");
    sys.boot().expect("replay system boots");
    // The oracle is the reference interpreter, whatever the environment
    // asked new systems to start with.
    if sys.prove_enabled() {
        sys.set_prove(false);
    }
    if sys.turbo_enabled() {
        sys.set_turbo(false);
    }
    // A ring is enough: the profiler reads only the last instruction's
    // events, to book UMPU stall cycles to their mechanism.
    sys.attach_scope(ScopeSink::ring(64));
    let start = sys.cycles();
    let mut profiler = DomainProfiler::new(sys.scope_region_map(), start);
    for round in 0..rounds {
        for d in TIMER_DOMAINS {
            sys.try_post(DomainId::num(d), MSG_TIMER);
        }
        if sys.queue_len() > 0 {
            if let Err(fault) = sys.run_slice_profiled(&mut profiler, budget) {
                run.check(false, || format!("replay faulted in round {round}: {fault:?}"));
                return;
            }
        }
    }
    run.check((sys.cycles(), sys.instructions()) == (node0.cycles, node0.instructions), || {
        format!(
            "replay retired {} cycles / {} instructions, fleet node 0 {} / {}",
            sys.cycles(),
            sys.instructions(),
            node0.cycles,
            node0.instructions
        )
    });
    let report = profiler.report();
    run.check(report.total == sys.cycles() - start, || "profile does not reconcile".to_string());
    let split = [
        ("sim.app_cycles", Mechanism::App),
        ("sim.check_cycles", Mechanism::Check),
        ("sim.crossing_cycles", Mechanism::Crossing),
        ("sim.kernel_cycles", Mechanism::Kernel),
    ];
    for (name, mech) in split {
        run.layers.set(name, report.mechanism_total(mech) as f64);
    }
}
