//! The loader's admission gate: a module whose *certified* worst-case
//! stack demand exceeds the policy's safe-stack allotment is rejected at
//! load time with a typed error — before a single instruction of it runs —
//! instead of faulting at some arbitrary call depth in the field.

use harbor::DomainId;
use harbor_flow::CfgVerifier;
use mini_sos::kernel::MSG_TIMER;
use mini_sos::loader::load_module_with_policy;
use mini_sos::{modules, LoadError, LoadPolicy, Protection, SosLayout, SosSystem, ENGINES};

fn scheduler_app(a: &mut avr_asm::Asm, api: &mini_sos::KernelApi) {
    api.run_scheduler(a);
    a.brk();
}

#[test]
fn module_exceeding_allotment_is_rejected_with_typed_error() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let mut sys = SosSystem::build(Protection::Sfi, &[], scheduler_app).unwrap();
        sys.set_prove(prove);
        sys.set_turbo(turbo);
        sys.boot().unwrap();
        // Every SFI module needs at least its 5-byte inbound cross-domain
        // frame plus a 2-byte save-ret frame: a 6-byte allotment admits nothing.
        sys.set_load_policy(Some(LoadPolicy::with_allotment(6)));

        let err = sys.load_module(&modules::blink(0)).unwrap_err();
        match err {
            LoadError::StackBound { name, certified, allotment } => {
                assert_eq!(name, "blink", "{engine}");
                assert_eq!(allotment, 6, "{engine}");
                assert!(
                    certified > 6,
                    "{engine}: certified bound {certified} must exceed the allotment"
                );
            }
            other => panic!("{engine}: expected StackBound, got: {other}"),
        }
        assert!(sys.modules.is_empty(), "{engine}: rejected module must not be installed");
    }
}

#[test]
fn generous_allotment_admits_and_module_runs() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let mut sys = SosSystem::build(Protection::Sfi, &[], scheduler_app).unwrap();
        sys.set_prove(prove);
        sys.set_turbo(turbo);
        sys.boot().unwrap();
        sys.set_load_policy(Some(LoadPolicy::with_allotment(64)));

        sys.load_module(&modules::blink(0)).expect("blink fits a 64-byte allotment");
        assert_eq!(sys.modules.len(), 1, "{engine}: blink admitted");

        // The admitted module actually runs: deliver init + one timer tick.
        sys.steer(sys.symbol("ker_boot_done") + 1);
        sys.run_to_break(10_000_000).unwrap();
        sys.post(DomainId::num(0), MSG_TIMER);
        sys.steer(sys.symbol("ker_boot_done") + 1);
        sys.run_to_break(10_000_000).unwrap();
        let state = sys.layout.state_addr(0);
        assert!(sys.sram(state) > 0, "{engine}: blink counted at least one tick");
    }
}

#[test]
fn policy_is_inert_outside_sfi() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in [Protection::None, Protection::Umpu] {
            let mut sys = SosSystem::build(p, &[], scheduler_app).unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.set_load_policy(Some(LoadPolicy::with_allotment(1)));
            sys.load_module(&modules::blink(0))
                .unwrap_or_else(|e| panic!("{p:?} {engine}: gate must not apply: {e}"));
        }
    }
}

#[test]
fn build_time_loader_honors_the_policy_too() {
    let layout = SosLayout::default_layout();
    let rt = harbor_sfi::SfiRuntime::build(layout.prot, layout.runtime_origin);
    let tiny = LoadPolicy::with_allotment(6);
    let err = load_module_with_policy(
        &modules::blink(0),
        &layout,
        Protection::Sfi,
        Some(&rt),
        Some(&tiny),
    )
    .unwrap_err();
    assert!(matches!(err, LoadError::StackBound { .. }));

    let roomy = LoadPolicy::with_allotment(128);
    load_module_with_policy(&modules::blink(0), &layout, Protection::Sfi, Some(&rt), Some(&roomy))
        .expect("blink admits under a roomy policy");
}

/// Every in-tree module, rewritten for SFI, passes the deep verifier and
/// lints clean with a finite certificate — the in-tree complement of the
/// `lint-modules` binary's corpus (this crate can reach the real loader;
/// the binary cannot depend on it without a cycle).
#[test]
fn in_tree_modules_deep_verify_and_lint_clean() {
    let layout = SosLayout::default_layout();
    let rt = harbor_sfi::SfiRuntime::build(layout.prot, layout.runtime_origin);
    let verifier = CfgVerifier::for_runtime(&rt);

    let sources = [
        modules::blink(0),
        modules::tree_routing(3),
        modules::surge(1, 3),
        modules::surge_fixed(1, 3),
        modules::producer(2, 4),
        modules::consumer(4, 2),
    ];
    for src in &sources {
        let loaded =
            load_module_with_policy(src, &layout, Protection::Sfi, Some(&rt), None).unwrap();
        let analysis = verifier
            .analyze(loaded.object.words(), loaded.object.origin(), &loaded.entry_addrs)
            .unwrap_or_else(|e| panic!("{}: deep verify failed: {e}", loaded.name));
        assert!(
            analysis.lints.is_empty(),
            "{}: unexpected lints: {:?}",
            loaded.name,
            analysis.lints
        );
        let cert = analysis.certificate;
        assert!(!cert.saturated, "{}: certificate must be finite", loaded.name);
        assert!(
            cert.safe_stack_bytes <= verifier.safe_stack_capacity(),
            "{}: certified demand {}B exceeds the safe-stack region",
            loaded.name,
            cert.safe_stack_bytes
        );
    }
}
