//! Differential tests: the kernel's AVR-assembly allocator, running on the
//! simulator under UMPU and SFI, must leave the RAM-resident memory map
//! byte-for-byte identical to a host-level reference allocator driving the
//! golden-model [`harbor::MemoryMap`] through the same operation sequence,
//! on every engine of [`ENGINES`].

use avr_core::isa::Reg;
use harbor::{DomainId, MemMapConfig, MemoryMap};
use mini_sos::{JtEntry, Protection, SosLayout, SosSystem, ENGINES};
use proptest::prelude::*;

/// Scratch where the driver app records malloc results (8 pointer slots).
const OUT: u16 = 0x01ee;

#[derive(Debug, Clone, Copy)]
enum Op {
    Malloc { size: u8, owner: u8 },
    Free { slot: usize },
    ChangeOwn { slot: usize, new_owner: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..100, 1u8..7).prop_map(|(size, owner)| Op::Malloc { size, owner }),
        (0usize..8).prop_map(|slot| Op::Free { slot }),
        (0usize..8, 1u8..7).prop_map(|(slot, new_owner)| Op::ChangeOwn { slot, new_owner }),
    ]
}

/// Host-level mirror of the kernel's allocator: same first-fit bitmap, same
/// 2-byte headers, same memory-map updates via the golden model.
struct ReferenceAllocator {
    layout: SosLayout,
    bitmap: Vec<bool>,
    map: MemoryMap,
    /// ptr → blocks, for replaying frees.
    live: std::collections::BTreeMap<u16, u16>,
}

impl ReferenceAllocator {
    fn new(layout: SosLayout) -> ReferenceAllocator {
        let cfg = MemMapConfig::multi_domain(layout.prot.prot_bottom, layout.prot.prot_top)
            .expect("layout aligned");
        ReferenceAllocator {
            layout,
            bitmap: vec![false; layout.alloc_blocks as usize],
            map: MemoryMap::new(cfg),
            live: std::collections::BTreeMap::new(),
        }
    }

    fn malloc(&mut self, size: u8, owner: u8) -> u16 {
        let blocks = (size as u16 + 2).div_ceil(8);
        let mut run = 0usize;
        let mut start = 0usize;
        let mut found = None;
        for i in 0..self.bitmap.len() {
            if self.bitmap[i] {
                run = 0;
            } else {
                if run == 0 {
                    start = i;
                }
                run += 1;
                if run == blocks as usize {
                    found = Some(start);
                    break;
                }
            }
        }
        let Some(start) = found else { return 0 };
        for b in start..start + blocks as usize {
            self.bitmap[b] = true;
        }
        let addr = self.layout.heap_base() + start as u16 * 8;
        self.map.set_segment(DomainId::num(owner), addr, blocks * 8).expect("reference segment");
        self.live.insert(addr + 2, blocks);
        addr + 2
    }

    fn free(&mut self, ptr: u16) {
        // The kernel is the requester here (trusted), so the free succeeds
        // whenever the pointer is a live allocation.
        let Some(blocks) = self.live.remove(&ptr) else { return };
        let start = ((ptr - 2 - self.layout.heap_base()) / 8) as usize;
        for b in start..start + blocks as usize {
            self.bitmap[b] = false;
        }
        self.map.free_segment(DomainId::TRUSTED, ptr - 2).expect("reference free");
    }

    fn change_own(&mut self, ptr: u16, new_owner: u8) {
        if !self.live.contains_key(&ptr) {
            return;
        }
        self.map
            .change_own(DomainId::TRUSTED, ptr - 2, DomainId::num(new_owner))
            .expect("reference change_own");
    }
}

/// Runs the op sequence on a simulated kernel under `p` on one
/// `(turbo, prove)` engine and returns the final RAM-resident memory-map
/// bytes plus the recorded pointers.
fn run_simulated(p: Protection, (turbo, prove): (bool, bool), ops: &[Op]) -> (Vec<u8>, Vec<u16>) {
    let ops = ops.to_vec();
    let mut sys = SosSystem::build(p, &[], move |a, api| {
        let mut slot_count = 0usize;
        for op in &ops {
            match *op {
                Op::Malloc { size, owner } => {
                    if slot_count >= 8 {
                        continue;
                    }
                    a.ldi(Reg::R24, size);
                    a.ldi(Reg::R22, owner);
                    api.call_kernel(a, JtEntry::Malloc);
                    a.sts(OUT + slot_count as u16 * 2, Reg::R24);
                    a.sts(OUT + slot_count as u16 * 2 + 1, Reg::R25);
                    slot_count += 1;
                }
                Op::Free { slot } => {
                    if slot >= slot_count {
                        continue;
                    }
                    a.lds(Reg::R24, OUT + slot as u16 * 2);
                    a.lds(Reg::R25, OUT + slot as u16 * 2 + 1);
                    api.call_kernel(a, JtEntry::Free);
                }
                Op::ChangeOwn { slot, new_owner } => {
                    if slot >= slot_count {
                        continue;
                    }
                    a.lds(Reg::R24, OUT + slot as u16 * 2);
                    a.lds(Reg::R25, OUT + slot as u16 * 2 + 1);
                    a.ldi(Reg::R22, new_owner);
                    api.call_kernel(a, JtEntry::ChangeOwn);
                }
            }
        }
        a.brk();
    })
    .expect("system builds");
    sys.set_prove(prove);
    sys.set_turbo(turbo);
    sys.boot().expect("boot");
    sys.run_to_break(50_000_000).expect("ops run");

    let l = sys.layout;
    let cfg = MemMapConfig::multi_domain(l.prot.prot_bottom, l.prot.prot_top).unwrap();
    let map_bytes: Vec<u8> =
        (0..cfg.map_size_bytes()).map(|i| sys.sram(l.prot.mem_map_base + i)).collect();
    let ptrs: Vec<u16> = (0..8).map(|i| sys.sram16(OUT + i * 2)).collect();
    (map_bytes, ptrs)
}

/// Replays the ops through the reference allocator, mirroring the driver's
/// slot bookkeeping, and returns (map bytes, pointers).
fn run_reference(ops: &[Op]) -> (Vec<u8>, Vec<u16>) {
    let layout = SosLayout::default_layout();
    let mut r = ReferenceAllocator::new(layout);
    let mut slots: Vec<u16> = Vec::new();
    for op in ops {
        match *op {
            Op::Malloc { size, owner } => {
                if slots.len() >= 8 {
                    continue;
                }
                let ptr = r.malloc(size, owner);
                slots.push(ptr);
            }
            Op::Free { slot } => {
                if let Some(&ptr) = slots.get(slot) {
                    r.free(ptr);
                }
            }
            Op::ChangeOwn { slot, new_owner } => {
                if let Some(&ptr) = slots.get(slot) {
                    r.change_own(ptr, new_owner);
                }
            }
        }
    }
    let mut ptrs = vec![0u16; 8];
    for (i, p) in slots.iter().enumerate() {
        ptrs[i] = *p;
    }
    (r.map.as_bytes().to_vec(), ptrs)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// The simulated UMPU kernel agrees byte-for-byte with the reference.
    #[test]
    fn umpu_kernel_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..10)) {
        let (ref_map, ref_ptrs) = run_reference(&ops);
        for engine @ (turbo, prove) in ENGINES {
            let (sim_map, sim_ptrs) = run_simulated(Protection::Umpu, engine, &ops);
            prop_assert_eq!(&sim_ptrs, &ref_ptrs, "turbo={} prove={}: allocation placement", turbo, prove);
            prop_assert_eq!(&sim_map, &ref_map, "turbo={} prove={}: memory-map contents", turbo, prove);
        }
    }

    /// The SFI build makes identical allocation decisions and map updates.
    #[test]
    fn sfi_kernel_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..8)) {
        let (ref_map, ref_ptrs) = run_reference(&ops);
        for engine @ (turbo, prove) in ENGINES {
            let (sim_map, sim_ptrs) = run_simulated(Protection::Sfi, engine, &ops);
            prop_assert_eq!(&sim_ptrs, &ref_ptrs, "turbo={} prove={}: allocation placement", turbo, prove);
            prop_assert_eq!(&sim_map, &ref_map, "turbo={} prove={}: memory-map contents", turbo, prove);
        }
    }
}

#[test]
fn deterministic_sequence_sanity() {
    let ops = [
        Op::Malloc { size: 10, owner: 1 },
        Op::Malloc { size: 30, owner: 2 },
        Op::Free { slot: 0 },
        Op::Malloc { size: 5, owner: 3 }, // reuses slot 0's blocks
        Op::ChangeOwn { slot: 1, new_owner: 5 },
    ];
    let (ref_map, ref_ptrs) = run_reference(&ops);
    for engine @ (turbo, prove) in ENGINES {
        let (umpu_map, umpu_ptrs) = run_simulated(Protection::Umpu, engine, &ops);
        assert_eq!(umpu_ptrs, ref_ptrs, "turbo={turbo} prove={prove}: allocation placement");
        assert_eq!(umpu_map, ref_map, "turbo={turbo} prove={prove}: memory-map contents");
    }
    // First-fit reuse: the third allocation went where the first had been.
    assert_eq!(ref_ptrs[2], ref_ptrs[0]);
}
