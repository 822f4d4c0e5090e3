//! Postmortem timeline reconstruction: turning a dump's event ring back
//! into the story of the crash.
//!
//! The recorder's masked ring retains exactly the control-flow events —
//! cross-domain calls and returns, jump-table dispatches, interrupt
//! entries, scheduler slices, module lifecycle — plus the fault itself.
//! [`reconstruct`] replays them in order, tracking the active domain the
//! way the hardware domain tracker did, and produces the cross-domain
//! call timeline leading to the fault. [`Timeline::ends_at_fault`] is the
//! invariant `tests/fleet_blackbox.rs` enforces: a dump's story must end
//! at the faulting access recorded in its
//! [`FaultRecord`](mini_sos::FaultRecord).

use crate::dump::Postmortem;
use harbor_scope::Event;

/// One step of the reconstructed story.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineStep {
    /// Cycle stamp of the underlying event.
    pub cycles: u64,
    /// Active domain *after* this step (7 = trusted).
    pub domain: u8,
    /// Human-readable description.
    pub what: String,
    /// Whether this step is the fault itself.
    pub is_fault: bool,
}

/// The reconstructed crash timeline of one dump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// The crashed node.
    pub node: u32,
    /// Steps, oldest first; the last one should be the fault.
    pub steps: Vec<TimelineStep>,
}

fn dom_name(d: u8) -> String {
    if d == 7 {
        "trusted".to_string()
    } else {
        format!("dom{d}")
    }
}

/// Rebuilds the cross-domain call timeline from a dump's event ring.
///
/// The active-domain column is replayed from the crossing events
/// themselves; the first event's domain is seeded from the dump's
/// snapshot history (or the fault state, if the ring opens mid-story).
pub fn reconstruct(dump: &Postmortem) -> Timeline {
    // Seed the domain from the oldest knowledge we have: the earliest
    // snapshot if any predates the ring, else the fault-state domain.
    let mut dom = dump.snapshots.first().map_or(dump.at_fault.domain, |s| s.domain);
    let mut steps = Vec::with_capacity(dump.events.len());
    for ev in &dump.events {
        let (what, is_fault) = match *ev {
            Event::CrossDomainCall { caller, callee, target, .. } => {
                dom = callee;
                (
                    format!(
                        "call {} -> {} (target {target:#x})",
                        dom_name(caller),
                        dom_name(callee)
                    ),
                    false,
                )
            }
            Event::CrossDomainRet { from, to, .. } => {
                dom = to;
                (format!("ret {} -> {}", dom_name(from), dom_name(to)), false)
            }
            Event::InterruptEntry { from, vector, .. } => {
                dom = 7;
                (format!("irq from {} (vector {vector:#x})", dom_name(from)), false)
            }
            Event::JumpTableDispatch { domain, entry, .. } => {
                (format!("dispatch via {} jump table entry {entry}", dom_name(domain)), false)
            }
            Event::SafeStackOverflow { ptr, .. } => {
                (format!("safe-stack overflow at {ptr:#x}"), false)
            }
            Event::Fault { code, addr, info, .. } => {
                (format!("FAULT code {code} addr {addr:#x} info {info}"), true)
            }
            Event::Recovery { .. } => {
                dom = 7;
                ("recovery to trusted".to_string(), false)
            }
            Event::MessagePost { domain, msg, accepted, .. } => (
                format!(
                    "post msg {msg} to {}{}",
                    dom_name(domain),
                    if accepted { "" } else { " (dropped)" }
                ),
                false,
            ),
            Event::SchedulerSlice { queued, .. } => {
                (format!("scheduler slice ({queued} queued)"), false)
            }
            Event::ModuleInstall { domain, .. } => {
                (format!("module installed into {}", dom_name(domain)), false)
            }
            Event::ModuleUnload { domain, .. } => {
                (format!("module unloaded from {}", dom_name(domain)), false)
            }
            // Hot-path check events are masked out of recorder rings, but
            // a dump built from an unmasked sink may contain them.
            Event::MemMapCheck { domain, addr, granted, .. } => (
                format!(
                    "memmap {} {} at {addr:#x}",
                    dom_name(domain),
                    if granted { "store" } else { "DENIED" }
                ),
                false,
            ),
            Event::StackCheck { domain, addr, granted, .. } => (
                format!(
                    "stack {} {} at {addr:#x}",
                    dom_name(domain),
                    if granted { "store" } else { "DENIED" }
                ),
                false,
            ),
            Event::MpuCheck { addr, granted, .. } => {
                (format!("mpu {} at {addr:#x}", if granted { "store" } else { "DENIED" }), false)
            }
            Event::SafeStackPush { ptr, .. } => (format!("safe-stack push (ptr {ptr:#x})"), false),
            Event::SafeStackPop { ptr, .. } => (format!("safe-stack pop (ptr {ptr:#x})"), false),
        };
        steps.push(TimelineStep { cycles: ev.cycles(), domain: dom, what, is_fault });
    }
    Timeline { node: dump.node, steps }
}

impl Timeline {
    /// The dump invariant: the story's last step is the fault, and it
    /// matches the dump's fault record (same cycle, code and address).
    pub fn ends_at_fault(&self, dump: &Postmortem) -> bool {
        match (self.steps.last(), dump.events.last()) {
            (Some(step), Some(&Event::Fault { cycles, code, addr, .. })) => {
                step.is_fault
                    && cycles == dump.fault.cycles
                    && code == dump.fault.code
                    && addr == dump.fault.addr
            }
            _ => false,
        }
    }

    /// Renders the timeline as the human-readable block `harbor-postmortem`
    /// prints: one right-aligned cycle stamp, the active domain, and the
    /// step description per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            out.push_str(&format!(
                "  {:>10}  [{:>7}]  {}\n",
                step.cycles,
                dom_name(step.domain),
                step.what
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_scope::ArchSnapshot;
    use mini_sos::FaultRecord;

    fn dump_with(events: Vec<Event>, fault: FaultRecord) -> Postmortem {
        Postmortem {
            node: 1,
            round: 0,
            lamport: 0,
            protection: "umpu".to_string(),
            fault,
            at_fault: ArchSnapshot { domain: 2, ..Default::default() },
            snapshots: vec![ArchSnapshot { domain: 7, ..Default::default() }],
            events,
            safe_stack: Vec::new(),
            ownership: [0; 8],
        }
    }

    #[test]
    fn replays_domains_and_ends_at_fault() {
        let fault = FaultRecord { cycles: 30, code: 2, addr: 0x305, info: 0 };
        let d = dump_with(
            vec![
                Event::CrossDomainCall {
                    cycles: 10,
                    caller: 7,
                    callee: 2,
                    target: 0x900,
                    stall: 5,
                },
                Event::Fault { cycles: 30, code: 2, addr: 0x305, info: 0 },
            ],
            fault,
        );
        let t = reconstruct(&d);
        assert_eq!(t.steps.len(), 2);
        assert_eq!(t.steps[0].domain, 2);
        assert!(t.steps[1].is_fault);
        assert!(t.ends_at_fault(&d));
        let text = t.render();
        assert!(text.contains("trusted -> dom2"));
        assert!(text.contains("FAULT code 2"));
    }

    #[test]
    fn mismatched_fault_record_fails_the_check() {
        let fault = FaultRecord { cycles: 30, code: 2, addr: 0x305, info: 0 };
        // Ring ends on a crossing, not the fault.
        let d = dump_with(
            vec![Event::CrossDomainCall {
                cycles: 10,
                caller: 7,
                callee: 2,
                target: 0x900,
                stall: 5,
            }],
            fault,
        );
        assert!(!reconstruct(&d).ends_at_fault(&d));

        // Fault event disagrees with the record's address.
        let d2 = dump_with(vec![Event::Fault { cycles: 30, code: 2, addr: 0x999, info: 0 }], fault);
        assert!(!reconstruct(&d2).ends_at_fault(&d2));
    }

    #[test]
    fn empty_ring_never_panics() {
        let fault = FaultRecord { cycles: 1, code: 1, addr: 1, info: 1 };
        let d = dump_with(Vec::new(), fault);
        let t = reconstruct(&d);
        assert!(t.steps.is_empty());
        assert!(!t.ends_at_fault(&d));
        assert_eq!(t.render(), "");
    }
}
