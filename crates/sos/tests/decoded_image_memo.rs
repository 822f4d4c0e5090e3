//! One decoded image per flash image: turbo systems whose flash and
//! elision state are equal run from the same `Arc`'d decoded image, which
//! the first of them to run after its install decodes. The memo keys an
//! image on every flash word and on the elision map it baked in, so a
//! different module in the same slot, or the same flash without the map,
//! gets an image of its own; and it holds images weakly, so an image goes
//! with the last system that runs from it. A slot's elision bit skips its
//! store's memory-map check, so an image shared across elision maps would
//! switch protection off for a store its system never proved.
//!
//! The file holds one test, so no other test in the binary can hold an
//! image this one expects to decode or to see freed.

use mini_sos::{loader, modules, ModuleSource, Protection, SosSystem};
use std::sync::Arc;

fn scheduler_app(a: &mut avr_asm::Asm, api: &mini_sos::KernelApi) {
    api.run_scheduler(a);
    a.brk();
}

/// A booted UMPU prototype with prove and turbo.
fn prototype() -> SosSystem {
    let mut proto = SosSystem::build(
        Protection::Umpu,
        &[modules::blink(0), modules::tree_routing(1)],
        scheduler_app,
    )
    .expect("system builds");
    proto.boot().expect("system boots");
    proto.set_prove(true);
    proto.set_turbo(true);
    proto
}

/// A clone of `proto` that installed `source` and ran the slice that
/// delivers its init message.
fn installed(proto: &SosSystem, source: &ModuleSource) -> SosSystem {
    let mut sys = proto.clone();
    let loaded =
        loader::load_module(source, &sys.layout, Protection::Umpu, None).expect("module assembles");
    sys.install_module(loaded);
    assert!(sys.turbo_image().is_none(), "an install resolves no image before the next run");
    sys.run_slice(1_000_000).expect("the init slice runs");
    sys
}

/// The image `sys` runs from.
fn image(sys: &SosSystem) -> Arc<harbor_turbo::DecodedImage> {
    Arc::clone(sys.turbo_image().expect("a turbo system that ran holds an image"))
}

#[test]
fn one_flash_image_one_decoded_image() {
    let proto = prototype();
    let blocks = |sys: &SosSystem| sys.turbo_stats().expect("turbo is on").blocks_built;
    let surge = modules::surge_fixed(3, 1);
    let (a, b) = (installed(&proto, &surge), installed(&proto, &surge));
    let shared = image(&a);
    assert!(Arc::ptr_eq(&shared, &image(&b)), "one flash image decoded twice");
    assert!(!Arc::ptr_eq(&shared, &image(&proto)), "the install kept the prototype's image");
    assert_eq!(
        blocks(&a) + blocks(&b),
        2 * blocks(&proto) + 256,
        "the two installs decoded one whole image between them"
    );
    for sys in [&a, &b] {
        let stats = sys.turbo_stats().expect("turbo is on");
        assert_eq!(stats.invalidations, 1, "one resync per install");
        assert!(sys.stores_elided() > 0, "the certified init stores took the elided path");
    }

    // Another module in the same slot decodes another image.
    let other = installed(&proto, &modules::stress_store(3));
    assert!(!Arc::ptr_eq(&shared, &image(&other)), "two modules in domain 3 share an image");

    // The same flash without the elision map: its own image, and no store
    // skips its memory-map check.
    let mut unproved = proto.clone();
    unproved.set_prove(false);
    let unproved = installed(&unproved, &surge);
    assert_eq!(
        unproved.flash_words(0, 0x1_0000),
        a.flash_words(0, 0x1_0000),
        "the prove-off clone burned the same flash"
    );
    assert_eq!(unproved.stores_elided(), 0, "a store skipped its check without a certificate");
    assert!(!Arc::ptr_eq(&shared, &image(&unproved)), "an image ran under another elision map");
    assert_eq!(unproved.cycles(), a.cycles(), "elision changed the machine");

    // The image goes with the last system that runs from it.
    let weak = Arc::downgrade(&shared);
    drop((shared, a));
    assert!(weak.upgrade().is_some(), "freed while a system still runs from it");
    drop(b);
    assert!(weak.upgrade().is_none(), "an image outlived every system running from it");
}
