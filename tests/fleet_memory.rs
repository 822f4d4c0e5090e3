//! Heap guard for fleet memory. Nodes are clones of one booted prototype
//! and share its kernel image and flash pages; a checkpoint is one more
//! clone, and an install copies only the flash pages it burns. This file
//! counts live heap bytes with a counting global allocator and bounds what
//! one node, one clone and one install keep, so a slide back to private
//! per-node flash (128 KiB a node) fails here.
//!
//! The file holds one test, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use harbor_fleet::{Fleet, FleetConfig};
use mini_sos::{loader, modules, Protection, SosSystem};

/// The system allocator, counting the bytes it holds live.
struct Counting;

// A statistic: it publishes no other data, so `Relaxed` is enough.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each keeps `System`'s contract; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live heap bytes that `f`'s result keeps.
fn kept<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    let out = f();
    (out, LIVE.load(Relaxed).saturating_sub(before))
}

fn sources() -> Vec<mini_sos::ModuleSource> {
    vec![modules::blink(0), modules::tree_routing(1)]
}

/// A UMPU turbo + prove fleet of `nodes` nodes, as the benchmark's
/// fleets run.
fn fleet(nodes: usize) -> Fleet {
    let cfg = FleetConfig {
        nodes,
        protection: Protection::Umpu,
        threads: 1,
        turbo: true,
        prove: true,
        ..FleetConfig::default()
    };
    Fleet::new(&cfg, &sources()).expect("fleet builds")
}

/// A booted UMPU prototype with turbo + prove, as `Fleet::new` builds it.
fn prototype() -> SosSystem {
    let mut sys = SosSystem::build(Protection::Umpu, &sources(), |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .expect("system builds");
    sys.boot().expect("system boots");
    sys.set_prove(true);
    sys.set_turbo(true);
    sys
}

/// Bounds, at 1.5× or more of what this test measured on x86-64: 15,317 B
/// per node, 13,309 B per clone (SRAM, the 512-entry page table, turbo's
/// per-engine page tables, module objects and certificates) and 9,088 B
/// per install (an 8 KiB elision map and the flash pages it burns). With
/// private flash a node and a clone each keep over 131,072 B.
const NODE_BOUND: usize = 24 * 1024;
const CLONE_BOUND: usize = 20 * 1024;
const INSTALL_BOUND: usize = 14 * 1024;

#[test]
fn nodes_checkpoints_and_installs_keep_only_what_they_burn() {
    // Warm-up: process-wide tables (turbo's predecode table, the SFI
    // layout memo) are built once and then stay; they are not per node.
    drop(fleet(8));

    let (small, at_64) = kept(|| fleet(64));
    drop(small);
    let (large, at_128) = kept(|| fleet(128));
    drop(large);
    let per_node = at_128.saturating_sub(at_64) / 64;

    let proto = prototype();
    let (mut clone, per_clone) = kept(|| proto.clone());
    let loaded =
        loader::load_module(&modules::surge_fixed(3, 1), &clone.layout, Protection::Umpu, None)
            .expect("surge assembles");
    let ((), per_install) = kept(|| clone.install_module(loaded));

    eprintln!("live heap: {per_node} B/node, {per_clone} B/clone, {per_install} B/install");
    assert!(per_node <= NODE_BOUND, "{per_node} B per fleet node (bound {NODE_BOUND})");
    assert!(per_clone <= CLONE_BOUND, "{per_clone} B per system clone (bound {CLONE_BOUND})");
    assert!(per_install <= INSTALL_BOUND, "{per_install} B per install (bound {INSTALL_BOUND})");
}
