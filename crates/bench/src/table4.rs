//! Table 4: cycle cost of the dynamic-memory routines with and without
//! protection (`malloc` / `free` / `change_own`).
//!
//! The same kernel allocator runs in every build; the protected builds
//! additionally maintain the memory map and enforce the ownership rules.
//! Spans are timed between labels planted around each jump-table call in
//! the driver program, so the measured figure includes the call mechanism —
//! as the paper's numbers do.

use avr_core::isa::Reg;
use mini_sos::{JtEntry, Protection, SosSystem};

/// One row of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCost {
    /// Routine name.
    pub name: &'static str,
    /// Measured cycles, unprotected kernel.
    pub normal: u64,
    /// Measured cycles, UMPU-protected kernel.
    pub protected: u64,
    /// Measured cycles, SFI-protected kernel (extension; not in the paper).
    pub sfi: u64,
    /// Paper-reported unprotected cycles.
    pub paper_normal: u64,
    /// Paper-reported protected cycles.
    pub paper_protected: u64,
}

/// Measures malloc/free/change_own on one protection build, returning
/// `(malloc, free, change_own)` cycles.
pub fn measure_build(p: Protection) -> (u64, u64, u64) {
    let mut sys = SosSystem::build(p, &[], |a, api| {
        // a = malloc(32, dom2)
        a.ldi(Reg::R24, 32);
        a.ldi(Reg::R22, 2);
        a.here("bench_m0");
        api.call_kernel(a, JtEntry::Malloc);
        a.here("bench_m1");
        a.sts(0x01ee, Reg::R24);
        a.sts(0x01ef, Reg::R25);
        // change_own(a, dom3)
        a.ldi(Reg::R22, 3);
        a.here("bench_c0");
        api.call_kernel(a, JtEntry::ChangeOwn);
        a.here("bench_c1");
        // free(a) — reload the pointer first.
        a.lds(Reg::R24, 0x01ee);
        a.lds(Reg::R25, 0x01ef);
        a.here("bench_f0");
        api.call_kernel(a, JtEntry::Free);
        a.here("bench_f1");
        a.sts(0x01f0, Reg::R24); // status
        a.brk();
    })
    .expect("bench system builds");
    sys.boot().expect("boot");

    let mut span = |from: &str, to: &str| -> u64 {
        let a = sys.symbol(from);
        let b = sys.symbol(to);
        sys.run_to_pc(a, 1_000_000).expect("reach span start");
        let c0 = sys.cycles();
        sys.run_to_pc(b, 1_000_000).expect("run span");
        sys.cycles() - c0
    };

    let malloc = span("bench_m0", "bench_m1");
    let chown = span("bench_c0", "bench_c1");
    let free = span("bench_f0", "bench_f1");
    // Sanity: the driver completes cleanly and the free succeeded.
    sys.run_to_break(1_000_000).expect("driver completes");
    assert_eq!(sys.sram(0x01f0), 0, "{p:?}: free returned success");
    (malloc, free, chown)
}

/// Measures the whole table.
pub fn measure() -> Vec<AllocCost> {
    let (m_n, f_n, c_n) = measure_build(Protection::None);
    let (m_u, f_u, c_u) = measure_build(Protection::Umpu);
    let (m_s, f_s, c_s) = measure_build(Protection::Sfi);
    vec![
        AllocCost {
            name: "malloc",
            normal: m_n,
            protected: m_u,
            sfi: m_s,
            paper_normal: 343,
            paper_protected: 610,
        },
        AllocCost {
            name: "free",
            normal: f_n,
            protected: f_u,
            sfi: f_s,
            paper_normal: 138,
            paper_protected: 425,
        },
        AllocCost {
            name: "change_own",
            normal: c_n,
            protected: c_u,
            sfi: c_s,
            paper_normal: 55,
            paper_protected: 365,
        },
    ]
}

/// Block-size ablation: the same allocator micro-benchmark with the whole
/// stack (layout, kernel shifts, MMC configuration, memory-map size)
/// rebuilt for a different protection block size.
pub fn measure_build_with_block(p: Protection, block_log2: u8) -> (u64, u64, u64) {
    let layout = mini_sos::SosLayout::with_block_log2(block_log2);
    let mut sys = SosSystem::build_with_layout(p, layout, &[], |a, api| {
        a.ldi(Reg::R24, 32);
        a.ldi(Reg::R22, 2);
        a.here("bench_m0");
        api.call_kernel(a, JtEntry::Malloc);
        a.here("bench_m1");
        a.sts(0x01ee, Reg::R24);
        a.sts(0x01ef, Reg::R25);
        a.ldi(Reg::R22, 3);
        a.here("bench_c0");
        api.call_kernel(a, JtEntry::ChangeOwn);
        a.here("bench_c1");
        a.lds(Reg::R24, 0x01ee);
        a.lds(Reg::R25, 0x01ef);
        a.here("bench_f0");
        api.call_kernel(a, JtEntry::Free);
        a.here("bench_f1");
        a.sts(0x01f0, Reg::R24);
        a.brk();
    })
    .expect("bench system builds");
    sys.boot().expect("boot");
    let mut span = |from: &str, to: &str| -> u64 {
        let a = sys.symbol(from);
        let b = sys.symbol(to);
        sys.run_to_pc(a, 1_000_000).expect("reach span start");
        let c0 = sys.cycles();
        sys.run_to_pc(b, 1_000_000).expect("run span");
        sys.cycles() - c0
    };
    let malloc = span("bench_m0", "bench_m1");
    let chown = span("bench_c0", "bench_c1");
    let free = span("bench_f0", "bench_f1");
    sys.run_to_break(1_000_000).expect("driver completes");
    assert_eq!(sys.sram(0x01f0), 0, "{p:?}/2^{block_log2}: free succeeded");
    (malloc, free, chown)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_pinned() {
        // (normal, UMPU, SFI) cycles, as EXPERIMENTS.md quotes them.
        let rows: Vec<(&str, u64, u64, u64)> =
            measure().iter().map(|r| (r.name, r.normal, r.protected, r.sfi)).collect();
        assert_eq!(
            rows,
            [("malloc", 476, 649, 753), ("free", 281, 629, 735), ("change_own", 73, 432, 537)]
        );
    }

    #[test]
    fn protection_always_costs_more() {
        for r in measure() {
            assert!(
                r.protected > r.normal,
                "{}: protected {} vs normal {}",
                r.name,
                r.protected,
                r.normal
            );
            assert!(r.sfi >= r.protected, "{}: SFI at least as costly as UMPU", r.name);
        }
    }

    #[test]
    fn relative_costs_match_the_papers_shape() {
        let rows = measure();
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        // malloc is the most expensive routine in both columns.
        assert!(get("malloc").normal > get("free").normal);
        assert!(get("malloc").normal > get("change_own").normal);
        // change_own has the largest relative protection overhead (paper:
        // 55 → 365, a 6.6× increase) because the unprotected version only
        // rewrites a header byte.
        let ratio = |r: &AllocCost| r.protected as f64 / r.normal as f64;
        assert!(ratio(get("change_own")) > ratio(get("malloc")));
        assert!(ratio(get("change_own")) > ratio(get("free")));
    }
}
