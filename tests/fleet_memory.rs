//! Heap guard for fleet memory. Nodes are clones of one booted prototype
//! and share its kernel image and flash pages; a checkpoint is one more
//! clone, and an install copies only the flash pages it burns. Systems
//! that install one image share one certificate, one elision map and one
//! decoded turbo image. This file counts live heap bytes with a counting
//! global allocator and bounds what one node, one clone and one install
//! keep, so a slide back to private per-node flash (128 KiB a node) or to
//! private decoded code fails here. It also bounds what a converged
//! fleet gains over a long soak, which holds causal logging to the
//! blackbox fleets that read it.
//!
//! The file holds one test, so no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use harbor::DomainId;
use harbor_blackbox::CausalKind;
use harbor_fleet::{BlackboxConfig, Fleet, FleetConfig, ModuleImage, NetConfig};
use mini_sos::kernel::MSG_TIMER;
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

/// Rounds between the seeder's re-adverts, and between the soak's Blink
/// bursts (as in the benchmark's `ota_soak`).
const PERIOD: u64 = 16;

/// The soak: 20 periods after convergence.
const SOAK_ROUNDS: u64 = 20 * PERIOD;

/// The 64-node soak fleet: Blink on the reference interpreter, Tree
/// Routing disseminated over a 10%-loss radio, as `ota_soak` runs it.
/// Converged, with the channel drained, at a round just after a
/// re-advert's deliveries, so the soak starts and ends in the same phase.
fn converged_soak_fleet(blackbox: Option<BlackboxConfig>) -> Fleet {
    let cfg = FleetConfig {
        nodes: 64,
        protection: Protection::Umpu,
        net: NetConfig { loss: 0.1, ..NetConfig::default() },
        threads: 1,
        blackbox,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(&cfg, &[modules::blink(0)]).expect("soak fleet builds");
    let image = ModuleImage::assemble(&modules::tree_routing(3), &fleet.layout(), cfg.protection)
        .expect("tree routing assembles");
    fleet.disseminate(&image);
    fleet.run_until_converged(600).expect("soak fleet converges");
    while fleet.radio_stats().3 > 0 || fleet.round() % PERIOD != 2 {
        soak_round(&mut fleet);
    }
    fleet
}

/// One soak round: a Blink burst on every node once a period.
fn soak_round(fleet: &mut Fleet) {
    if fleet.round() % PERIOD == PERIOD / 2 {
        fleet.post_all(DomainId::num(0), MSG_TIMER);
    }
    fleet.step_round();
}

/// Bounds, at 1.5× or more of what this test measured on x86-64: 13,165 B
/// per node, 11,165 B per clone (SRAM, the 512-entry page table, turbo's
/// 2 KiB of page grants, module objects and certificates), 9,166 B for the
/// first install of an image (an 8 KiB elision map, its memo key and the
/// flash pages it burns) and 784 B for a second install of it, which
/// shares the first one's certificate and map. Installing and running the
/// slice that resolves the turbo image keeps 791,472 B on the first clone
/// (one whole decoded image and its memo key) and 792 B on the second,
/// which runs from that image; a private decode per node would keep about
/// 25 KB there. With private flash a node and a clone each keep over
/// 131,072 B.
const NODE_BOUND: usize = 24 * 1024;
const CLONE_BOUND: usize = 20 * 1024;
const INSTALL_BOUND: usize = 14 * 1024;
const SHARED_INSTALL_BOUND: usize = 2 * 1024;
const DECODE_BOUND: usize = 1160 * 1024;
const SHARED_RUN_BOUND: usize = 2 * 1024;

/// Bound on what the converged soak fleet, without the blackbox, gains
/// over [`SOAK_ROUNDS`]; this test measured 0 B on x86-64. Its nodes hear
/// about 1,150 re-adverts in that time, so a 56-byte causal record per
/// delivery would keep about 64 KB.
const SOAK_BOUND: usize = 4 * 1024;

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
    let surge = || {
        loader::load_module(&modules::surge_fixed(3, 1), &proto.layout, Protection::Umpu, None)
            .expect("surge assembles")
    };
    let loaded = surge();
    let ((), per_install) = kept(|| clone.install_module(loaded));
    let mut second = proto.clone();
    let loaded = surge();
    let ((), shared_install) = kept(|| second.install_module(loaded));

    // Install plus the slice that resolves the turbo image, on two more
    // clones: the first decodes the new flash image, the second runs from
    // it. (Both find the certificate and map the installs above made.)
    let install_and_run = |sys: &mut SosSystem| {
        let loaded = surge();
        kept(|| {
            sys.install_module(loaded);
            sys.run_slice(1_000_000).expect("the init slice runs");
        })
        .1
    };
    let (mut third, mut fourth) = (proto.clone(), proto.clone());
    let decoded = install_and_run(&mut third);
    let shared_run = install_and_run(&mut fourth);

    let mut soak = converged_soak_fleet(None);
    let ((), soaked) = kept(|| (0..SOAK_ROUNDS).for_each(|_| soak_round(&mut soak)));

    eprintln!(
        "live heap: {per_node} B/node, {per_clone} B/clone, {per_install} B/install, \
         {shared_install} B/second install, {decoded} B/install and run, \
         {shared_run} B/second install and run, {soaked} B over the soak"
    );
    assert!(per_node <= NODE_BOUND, "{per_node} B per fleet node (bound {NODE_BOUND})");
    assert!(per_clone <= CLONE_BOUND, "{per_clone} B per system clone (bound {CLONE_BOUND})");
    assert!(per_install <= INSTALL_BOUND, "{per_install} B per install (bound {INSTALL_BOUND})");
    assert!(
        shared_install <= SHARED_INSTALL_BOUND,
        "{shared_install} B for a second install of one image (bound {SHARED_INSTALL_BOUND})"
    );
    assert!(decoded <= DECODE_BOUND, "{decoded} B per install and run (bound {DECODE_BOUND})");
    assert!(
        shared_run <= SHARED_RUN_BOUND,
        "{shared_run} B for a second install and run of one image (bound {SHARED_RUN_BOUND})"
    );
    assert!(soaked <= SOAK_BOUND, "{soaked} B gained over the soak (bound {SOAK_BOUND})");
    assert!(soak.causal_logs().is_empty(), "a fleet without the blackbox kept causal logs");

    // The same soak with the blackbox logs every delivery, to a node or
    // to the seeder, as one receive record.
    let mut soak = converged_soak_fleet(Some(BlackboxConfig::default()));
    (0..SOAK_ROUNDS).for_each(|_| soak_round(&mut soak));
    let logs = soak.causal_logs();
    assert_eq!(logs.len(), 64 + 1, "one log per node and the seeder's");
    let recvs = logs.iter().flat_map(|l| &l.records).filter(|r| r.kind == CausalKind::Recv);
    assert_eq!(recvs.count() as u64, soak.radio_stats().1, "one receive record per delivery");
}
