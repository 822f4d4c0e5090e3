//! Differential test of the base station's admission gate.
//!
//! `harbor_helm::verify_image` reconstructs each image's CFG once and runs
//! the store certificate, the load policy's store gate, the linear and deep
//! checks and the stack certificate over it, with the SFI run-time and its
//! verifier tables taken from a process-wide memo. The reference below
//! composes the same public primitives the multi-pass way: a fresh
//! run-time per call, and every pass rebuilding its own CFG in the loader's
//! policy order. Both must return the same `Admission`, or refusals whose
//! rendered text is identical, on the in-tree modules and on seeded
//! mutants drawn the way the `admit_verify` benchmark draws them.
//!
//! `HARBOR_SEED=n cargo test --test admission_identity` replays another
//! mutant draw.

mod common;

use common::seed;
use harbor_fleet::ModuleImage;
use harbor_flow::{certify_module_stores, CfgVerifier};
use harbor_helm::{verify_image, Admission, AdmitError};
use harbor_sfi::{SfiRuntime, VerifyError};
use mini_sos::loader::load_module_with_policy;
use mini_sos::{modules, LoadError, LoadPolicy, Protection, SosLayout};
use rand::{Rng, SeedableRng, StdRng};

/// Seeded mutants on top of the 21 base images.
const MUTANTS: usize = 2_100;

/// Default seed; `HARBOR_SEED` overrides it.
const SEED: u64 = 0xad_31_75;

/// The policies SFI images are admitted under: the benchmark's, plus an
/// eliding one (raw stores go through the store gate) and one without the
/// deep verifier.
fn sfi_policies() -> [LoadPolicy; 3] {
    let base = LoadPolicy::with_allotment(128);
    [base, base.with_elision(), LoadPolicy { deep_verify: false, ..base }]
}

/// The loader's policy gate, composed pass by pass: raw stores, the
/// re-derived store certificate, the linear then deep verifier, the stack
/// certificate — each pass building its own CFG.
fn reference_policy(
    policy: &LoadPolicy,
    image: &ModuleImage,
    verifier: CfgVerifier,
    seg: (u16, u16),
) -> Result<(), LoadError> {
    let (words, origin, entries) = (&image.words, image.origin, &image.entry_addrs);
    let mut verifier = verifier;
    let raw = harbor_sfi::raw_stores(words, origin, verifier.config());
    if !raw.is_empty() {
        if !policy.elide_certified {
            return Err(LoadError::Verify(VerifyError::RawStore { addr: raw[0] }));
        }
        let derived = verifier
            .certify_stores(words, origin, entries, seg.0, seg.1)
            .map_err(LoadError::Verify)?;
        for &addr in &raw {
            if !derived.certified(addr) {
                return Err(LoadError::Verify(VerifyError::RawStore { addr }));
            }
        }
        verifier = verifier.allowing_raw_stores(raw.into_iter().collect());
    }
    if policy.deep_verify {
        harbor_sfi::verify(words, origin, verifier.config()).map_err(LoadError::Verify)?;
        verifier.verify(words, origin, entries).map_err(LoadError::Verify)?;
    }
    let cert = verifier.certify(words, origin, entries).map_err(LoadError::Verify)?;
    if cert.saturated || cert.safe_stack_bytes > policy.safe_stack_allotment {
        return Err(LoadError::StackBound {
            name: image.name.clone(),
            certified: cert.safe_stack_bytes,
            allotment: policy.safe_stack_allotment,
        });
    }
    Ok(())
}

/// Multi-pass admission from public primitives.
fn reference_admission(
    image: &ModuleImage,
    layout: &SosLayout,
    protection: Protection,
    policy: Option<LoadPolicy>,
) -> Result<Admission, AdmitError> {
    let seg = (layout.state_addr(image.domain), layout.state_len());
    let (words, origin, entries) = (&image.words, image.origin, &image.entry_addrs);
    let unverifiable = |e: VerifyError| AdmitError::Unverifiable(e.to_string());
    let cert = match protection {
        Protection::Sfi => {
            let rt = SfiRuntime::build(layout.prot, layout.runtime_origin);
            let cert = CfgVerifier::for_runtime(&rt)
                .certify_stores(words, origin, entries, seg.0, seg.1)
                .map_err(unverifiable)?;
            if let Some(policy) = policy {
                reference_policy(&policy, image, CfgVerifier::for_runtime(&rt), seg)
                    .map_err(|e| AdmitError::Policy(e.to_string()))?;
            }
            cert
        }
        _ => certify_module_stores(words, origin, entries, seg.0, seg.1).map_err(unverifiable)?,
    };
    Ok(Admission {
        digest: cert.digest,
        certified_stores: cert.certified_stores,
        total_stores: cert.total_stores,
    })
}

/// Admits `image` both ways under every policy its build takes and
/// asserts identical outcomes. Returns how many admissions it compared.
fn assert_identical(image: &ModuleImage, layout: &SosLayout, protection: Protection) -> usize {
    let policies: Vec<Option<LoadPolicy>> = match protection {
        Protection::Sfi => sfi_policies().into_iter().map(Some).collect(),
        _ => vec![None],
    };
    for &policy in &policies {
        let got = verify_image(image, layout, protection, policy).map_err(|e| e.to_string());
        let want =
            reference_admission(image, layout, protection, policy).map_err(|e| e.to_string());
        assert_eq!(got, want, "{} ({protection:?}, {policy:?})", image.name);
    }
    policies.len()
}

#[test]
fn one_pass_admission_matches_the_multi_pass_reference() {
    let layout = SosLayout::default_layout();
    let sources = || {
        [
            modules::blink(0),
            modules::tree_routing(1),
            modules::stress_store(2),
            modules::surge(3, 1),
            modules::surge_fixed(4, 1),
            modules::producer(5, 6),
            modules::consumer(6, 5),
        ]
    };
    let mut bases = Vec::new();
    for protection in [Protection::Umpu, Protection::Sfi] {
        for src in sources() {
            let image = ModuleImage::assemble(&src, &layout, protection).expect("assembles");
            bases.push((protection, image.to_bytes(), image));
        }
    }
    let rt = SfiRuntime::shared(layout.prot, layout.runtime_origin);
    let eliding = sfi_policies()[1];
    for src in sources() {
        let m = load_module_with_policy(&src, &layout, Protection::Sfi, Some(&rt), Some(&eliding))
            .expect("sandboxes with elision");
        let image = ModuleImage {
            name: m.name.to_string(),
            domain: m.domain.index(),
            origin: m.object.origin(),
            words: m.object.words().to_vec(),
            entry_addrs: m.entry_addrs,
        };
        bases.push((Protection::Sfi, image.to_bytes(), image));
    }

    let mut compared = 0;
    for (protection, _, image) in &bases {
        verify_image(image, &layout, *protection, None).expect("every base admits");
        compared += assert_identical(image, &layout, *protection);
    }
    // The first eliding base keeps certified raw stores.
    let elided = &bases[14].2;
    assert!(
        verify_image(elided, &layout, Protection::Sfi, Some(sfi_policies()[0])).is_err(),
        "raw stores are refused without elision"
    );
    verify_image(elided, &layout, Protection::Sfi, Some(eliding)).expect("and admitted with it");

    // Mutants as `admit_verify` draws them: one wire bit flipped (the
    // decoder refuses almost all of these before admission), or one to
    // four words substituted after decode (the verifiers' refusal paths).
    let mut rng = StdRng::seed_from_u64(seed(SEED));
    let (mut flipped, mut substituted) = (0, 0);
    for i in 0..MUTANTS {
        let (protection, bytes, image) = &bases[i % bases.len()];
        let image = if rng.gen_range(0u8..3) == 0 {
            flipped += 1;
            let mut bytes = bytes.clone();
            let bit = rng.gen_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            match ModuleImage::from_bytes(&bytes) {
                Ok(image) => image,
                Err(_) => continue,
            }
        } else {
            substituted += 1;
            let mut image = image.clone();
            for _ in 0..rng.gen_range(1u8..5) {
                let at = rng.gen_range(0..image.words.len());
                image.words[at] = rng.gen();
            }
            image
        };
        compared += assert_identical(&image, &layout, *protection);
    }
    assert_eq!(flipped + substituted, MUTANTS);
    assert!(substituted >= 1_300, "only {substituted} substituted mutants");
    assert!(compared >= 21 + 2 * 1_300, "only {compared} admissions compared");
}
