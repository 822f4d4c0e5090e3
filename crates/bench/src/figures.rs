//! The non-table artefacts:
//!
//! * **Fig A** — the memory-map sizing sweep behind Section 6.2's prose
//!   (256 B full-space / 140 B heap+safe-stack / 70 B two-domain);
//! * **Macro** — end-to-end workload overhead of SFI vs UMPU vs
//!   unprotected, an extension beyond the paper's micro-benchmarks.

use harbor::{BlockSize, DomainMode, MemMapConfig};
use harbor::{DomainId, ProtectionFault};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, Protection, SosSystem};

/// One point of the memory-map sizing sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapSizePoint {
    /// Scenario description.
    pub scenario: &'static str,
    /// Domain mode.
    pub mode: DomainMode,
    /// Block size in bytes.
    pub block: u16,
    /// Protected span in bytes.
    pub span: u16,
    /// Resulting table size in bytes.
    pub bytes: u16,
    /// The paper's figure for this point, when it reports one.
    pub paper: Option<u16>,
}

/// Regenerates the sizing sweep. The three paper data points appear as
/// rows with `paper: Some(..)`.
///
/// # Panics
///
/// Panics only on an internal configuration error.
pub fn memmap_sweep() -> Vec<MapSizePoint> {
    let mut out = Vec::new();
    let mut push = |scenario, mode, block: u16, bottom: u16, top: u16, paper| {
        let cfg = MemMapConfig::new(mode, BlockSize::new(block).unwrap(), bottom, top)
            .expect("valid sweep config");
        out.push(MapSizePoint {
            scenario,
            mode,
            block,
            span: top - bottom,
            bytes: cfg.map_size_bytes(),
            paper,
        });
    };

    // The paper's three data points (4 KiB AVR data space).
    push("entire 4 KiB space", DomainMode::Multi, 8, 0x0000, 0x1000, Some(256));
    push("heap + safe stack (2240 B)", DomainMode::Multi, 8, 0x0100, 0x0100 + 2240, Some(140));
    push("heap + safe stack, two-domain", DomainMode::Two, 8, 0x0100, 0x0100 + 2240, Some(70));

    // Block-size sweep over the full space (the `mem_map_config` knob).
    for block in [2u16, 4, 8, 16, 32, 64, 128, 256] {
        push("entire space, block sweep", DomainMode::Multi, block, 0x0000, 0x1000, None);
    }
    // Two-domain sweep.
    for block in [8u16, 16, 32] {
        push("entire space, two-domain", DomainMode::Two, block, 0x0000, 0x1000, None);
    }
    out
}

/// Macro-benchmark result for one protection build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroPoint {
    /// The build.
    pub protection: Protection,
    /// Cycles for the whole workload (after boot).
    pub cycles: u64,
    /// Overhead relative to the unprotected build.
    pub overhead: f64,
}

/// Runs the Surge data-collection workload (`ticks` samples through
/// Tree Routing) under one build and returns post-boot cycles.
///
/// # Panics
///
/// Panics if the workload faults (it is bug-free by construction).
pub fn surge_workload_cycles(p: Protection, ticks: u32) -> u64 {
    let mods = [modules::tree_routing(3), modules::surge(1, 3), modules::blink(0)];
    let mut sys = SosSystem::build(p, &mods, |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .expect("workload builds");
    sys.boot().expect("boot");
    let booted = sys.cycles();
    // Deliver the init messages first (the driver drains and breaks).
    sys.run_to_break(50_000_000).expect("init runs");
    let mut remaining = ticks;
    while remaining > 0 {
        // Respect the 16-entry queue (15 usable): feed in batches of 7
        // tick pairs, then re-enter the driver loop (it sits right after
        // the boot break) to drain them — a host-driven recurring timer.
        let batch = remaining.min(7);
        for _ in 0..batch {
            sys.post(DomainId::num(1), MSG_TIMER);
            sys.post(DomainId::num(0), MSG_TIMER);
        }
        sys.steer(sys.symbol("ker_boot_done") + 1);
        sys.run_to_break(50_000_000).expect("workload runs");
        remaining -= batch;
    }
    sys.cycles() - booted
}

/// Runs the macro comparison across all three builds.
pub fn macro_overhead(ticks: u32) -> Vec<MacroPoint> {
    let none = surge_workload_cycles(Protection::None, ticks);
    let umpu = surge_workload_cycles(Protection::Umpu, ticks);
    let sfi = surge_workload_cycles(Protection::Sfi, ticks);
    let ratio = |c: u64| c as f64 / none as f64;
    vec![
        MacroPoint { protection: Protection::None, cycles: none, overhead: 1.0 },
        MacroPoint { protection: Protection::Umpu, cycles: umpu, overhead: ratio(umpu) },
        MacroPoint { protection: Protection::Sfi, cycles: sfi, overhead: ratio(sfi) },
    ]
}

/// The Surge fault-detection demonstration (Section 1.2): returns what each
/// build does when Tree Routing is missing.
#[derive(Debug, Clone)]
pub enum SurgeOutcome {
    /// Stock AVR: the wild write landed silently at this address.
    SilentCorruption {
        /// The corrupted address.
        addr: u16,
    },
    /// Harbor: the violation was caught.
    Caught {
        /// The fault, when rich diagnostics exist (UMPU).
        fault: Option<ProtectionFault>,
        /// The compact fault code (all builds).
        code: u16,
    },
}

/// Runs the war-story scenario under one build.
///
/// # Panics
///
/// Panics only if the system fails to build or boot.
pub fn surge_war_story(p: Protection) -> SurgeOutcome {
    let mut sys = SosSystem::build(p, &[modules::surge(1, 3)], |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .expect("builds");
    sys.boot().expect("boot");
    sys.post(DomainId::num(1), MSG_TIMER);
    match sys.run_to_break(10_000_000) {
        Ok(_) => {
            let buf = sys.sram16(sys.layout.state_addr(1));
            SurgeOutcome::SilentCorruption { addr: buf + 0xff }
        }
        Err(avr_core::Fault::Env(e)) => {
            SurgeOutcome::Caught { fault: sys.last_protection_fault(), code: e.code }
        }
        Err(other) => panic!("unexpected outcome: {other}"),
    }
}

/// Runs the buffer-handoff pipeline (`rounds` producer ticks; each one
/// malloc + change_own + post + consumer free) under one build and returns
/// post-boot cycles — the `change_own`-heavy macro workload.
///
/// # Panics
///
/// Panics if the pipeline misbehaves (it asserts the accumulated total).
pub fn pipeline_workload_cycles(p: Protection, rounds: u32) -> u64 {
    let mods = [modules::producer(1, 4), modules::consumer(4, 1)];
    let mut sys = SosSystem::build(p, &mods, |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .expect("pipeline builds");
    sys.boot().expect("boot");
    let booted = sys.cycles();
    sys.run_to_break(50_000_000).expect("init runs");
    // One round per drain: the producer publishes exactly one pointer at a
    // time, and its consumer message must run before the next tick.
    for _ in 0..rounds {
        sys.post(DomainId::num(1), MSG_TIMER);
        sys.steer(sys.symbol("ker_boot_done") + 1);
        sys.run_to_break(50_000_000).expect("pipeline runs");
    }
    let cons_state = sys.layout.state_addr(4);
    assert_eq!(sys.sram(cons_state + 1) as u32, rounds, "{p:?}: every sample consumed");
    assert_eq!(sys.sram(cons_state + 2), 0, "{p:?}: every free succeeded");
    sys.cycles() - booted
}

/// The pipeline comparison across all three builds.
pub fn pipeline_overhead(rounds: u32) -> Vec<MacroPoint> {
    let none = pipeline_workload_cycles(Protection::None, rounds);
    let umpu = pipeline_workload_cycles(Protection::Umpu, rounds);
    let sfi = pipeline_workload_cycles(Protection::Sfi, rounds);
    let ratio = |c: u64| c as f64 / none as f64;
    vec![
        MacroPoint { protection: Protection::None, cycles: none, overhead: 1.0 },
        MacroPoint { protection: Protection::Umpu, cycles: umpu, overhead: ratio(umpu) },
        MacroPoint { protection: Protection::Sfi, cycles: sfi, overhead: ratio(sfi) },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_contains_the_papers_points() {
        let sweep = memmap_sweep();
        let paper: Vec<_> = sweep.iter().filter(|p| p.paper.is_some()).collect();
        assert_eq!(paper.len(), 3);
        for p in paper {
            assert_eq!(Some(p.bytes), p.paper, "{}", p.scenario);
        }
    }

    #[test]
    fn bigger_blocks_shrink_the_map() {
        let sweep = memmap_sweep();
        let sizes: Vec<u16> = sweep
            .iter()
            .filter(|p| p.scenario == "entire space, block sweep")
            .map(|p| p.bytes)
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] > w[1]), "monotone in block size");
    }

    #[test]
    fn macro_cycles_are_pinned() {
        // (None, UMPU, SFI) cycles of the two macro tables EXPERIMENTS.md
        // quotes; the overhead column is their ratio to None.
        let cycles =
            |points: Vec<MacroPoint>| -> Vec<u64> { points.iter().map(|p| p.cycles).collect() };
        assert_eq!(cycles(macro_overhead(64)), [8_063, 10_328, 56_505]);
        assert_eq!(cycles(pipeline_overhead(32)), [17_856, 34_420, 76_289]);
    }

    #[test]
    fn war_story_outcomes() {
        assert!(matches!(surge_war_story(Protection::None), SurgeOutcome::SilentCorruption { .. }));
        for p in [Protection::Umpu, Protection::Sfi] {
            match surge_war_story(p) {
                SurgeOutcome::Caught { code, .. } => {
                    assert_eq!(code, harbor::fault_code::MEM_MAP, "{p:?}");
                }
                other => panic!("{p:?}: expected Caught, got {other:?}"),
            }
        }
    }
}
