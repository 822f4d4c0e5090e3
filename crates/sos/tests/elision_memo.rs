//! One certificate and one elision map per image: systems that install
//! the same module hold the same `Arc<StoreCertificate>`, certified once,
//! and systems that hold the same certificates publish the same
//! `Arc<ElisionMap>`, so the nodes of a fleet that installed one image
//! share one 8 KiB map. The memos compare by value, so a different image
//! in the same domain gets a certificate and a map of its own, and they
//! hold their values weakly, so a map goes with the last system that
//! publishes it.
//!
//! The file holds one test, so no other test in the binary can hold a map
//! this one expects to be freed.

use harbor_flow::StoreCertificate;
use mini_sos::{loader, modules, ModuleSource, Protection, SosSystem, ENGINES};
use std::sync::Arc;
use umpu::ElisionMap;

fn scheduler_app(a: &mut avr_asm::Asm, api: &mini_sos::KernelApi) {
    api.run_scheduler(a);
    a.brk();
}

/// The map `sys` publishes, if any.
fn map(sys: &SosSystem) -> Option<Arc<ElisionMap>> {
    sys.umpu_env().expect("UMPU build").elision_map().cloned()
}

/// The certificate `sys` holds for domain 3, if any.
fn cert(sys: &SosSystem) -> Option<Arc<StoreCertificate>> {
    let (certs, _) = sys.store_certificates();
    certs.iter().find(|(dom, _)| dom.index() == 3).map(|(_, c)| Arc::clone(c))
}

#[test]
fn one_image_one_elision_map() {
    for (turbo, prove) in ENGINES {
        let on = format!("turbo={turbo} prove={prove}");
        let mut proto = SosSystem::build(
            Protection::Umpu,
            &[modules::blink(0), modules::tree_routing(1)],
            scheduler_app,
        )
        .expect("system builds");
        proto.boot().expect("system boots");
        proto.set_prove(prove);
        proto.set_turbo(turbo);
        let install = |source: &ModuleSource| {
            let mut sys = proto.clone();
            let loaded = loader::load_module(source, &sys.layout, Protection::Umpu, None)
                .expect("module assembles");
            sys.install_module(loaded);
            sys
        };
        let (a, b) = (install(&modules::surge_fixed(3, 1)), install(&modules::surge_fixed(3, 1)));
        let other = install(&modules::stress_store(3));
        match (cert(&a), cert(&b), cert(&other)) {
            (Some(ca), Some(cb), Some(co)) if prove => {
                assert!(Arc::ptr_eq(&ca, &cb), "{on}: one module certified twice");
                assert!(
                    !Arc::ptr_eq(&ca, &co),
                    "{on}: two modules in domain 3 share a certificate"
                );
                assert_ne!(ca.digest, co.digest, "{on}: two modules certify the same stores");
            }
            (None, None, None) if !prove => {}
            (a, b, o) => panic!("{on}: certificates held {:?}", [a, b, o].map(|c| c.is_some())),
        }
        match (map(&a), map(&b), map(&other)) {
            (Some(ma), Some(mb), Some(mo)) if prove => {
                assert!(Arc::ptr_eq(&ma, &mb), "{on}: one image published two maps");
                assert!(!Arc::ptr_eq(&ma, &mo), "{on}: two images in domain 3 share a map");
                assert_ne!(*ma, *mo, "{on}: two images certify the same stores");
                let weak = Arc::downgrade(&ma);
                drop((ma, mb, a, b));
                assert!(weak.upgrade().is_none(), "{on}: a map outlived every system using it");
            }
            (None, None, None) if !prove => {}
            (a, b, o) => panic!("{on}: maps published {:?}", [a, b, o].map(|m| m.is_some())),
        }
    }
}
