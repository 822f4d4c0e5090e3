//! Image admission: the gate an image must clear before the fleet sees a
//! single advert.
//!
//! Admission reuses the `harbor-flow` deep store verifier — the same
//! analysis `harbor-prove` runs node-side — so a structurally unsound
//! image is refused at the base station without spending any radio
//! rounds. Under SFI the fleet's [`LoadPolicy`] is also rehearsed
//! host-side, mirroring exactly what every node's loader will enforce:
//! an image the policy would reject on-node never enters the ladder.
//!
//! Admission is one pass: the verifier comes from the process-wide memo
//! ([`CfgVerifier::shared`]), and each image's CFG is reconstructed once
//! and shared by the store certificate, the policy's store gate, the
//! linear and deep checks and the stack certificate.

use std::fmt;

use harbor_fleet::ModuleImage;
use harbor_flow::{certify_module_stores, CfgVerifier};
use mini_sos::loader::check_policy_cfg;
use mini_sos::{LoadPolicy, Protection, SosLayout};

/// Evidence that an image cleared the admission gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Store-certificate digest (stable across runs for the same image).
    pub digest: u64,
    /// Stores statically proven in-segment.
    pub certified_stores: u32,
    /// Total store instructions analysed.
    pub total_stores: u32,
}

/// Why an image or campaign was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The fleet has no tower attached — helm has no health signal to
    /// close the loop with.
    NoTower,
    /// A rollout is already active; one campaign at a time.
    RolloutActive(u16),
    /// The deep verifier could not certify the image.
    Unverifiable(String),
    /// The fleet's load policy would reject the image node-side.
    Policy(String),
    /// A cohort the ladder targets is already unhealthy — rolling an
    /// image into a burning cohort would blame the image for the fire.
    UnhealthyCohort(u32),
    /// The plan's stage ladder grants no cohorts.
    EmptyPlan,
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::NoTower => write!(f, "fleet has no tower attached"),
            AdmitError::RolloutActive(id) => write!(f, "rollout {id} already active"),
            AdmitError::Unverifiable(e) => write!(f, "deep verify failed: {e}"),
            AdmitError::Policy(e) => write!(f, "load policy rejects image: {e}"),
            AdmitError::UnhealthyCohort(c) => write!(f, "cohort {c} unhealthy before rollout"),
            AdmitError::EmptyPlan => write!(f, "stage ladder grants no cohorts"),
        }
    }
}

/// Runs the host-side admission pass: deep-verify the image's stores
/// against its state segment, and (under SFI with a policy) rehearse the
/// node loader's policy check.
pub fn verify_image(
    image: &ModuleImage,
    layout: &SosLayout,
    protection: Protection,
    policy: Option<LoadPolicy>,
) -> Result<Admission, AdmitError> {
    let dom = image.domain;
    let seg = (layout.state_addr(dom), layout.state_len());
    // SFI wire images were rewritten at assembly; their stores must be
    // certified by the stub-role-aware verifier. Plain images use the
    // raw admission pass.
    let (words, entries) = (&image.words, &image.entry_addrs);
    let unverifiable = |e: harbor_sfi::VerifyError| AdmitError::Unverifiable(e.to_string());
    let cert = match protection {
        Protection::Sfi => {
            let verifier = CfgVerifier::shared(layout.prot, layout.runtime_origin);
            let cfg = verifier.cfg(words, image.origin, entries).map_err(unverifiable)?;
            let cert = verifier.certify_cfg_stores(&cfg, seg.0, seg.1);
            if let Some(policy) = policy {
                check_policy_cfg(&policy, &image.name, words, entries, &cfg, &verifier, || {
                    cert.clone()
                })
                .map_err(|e| AdmitError::Policy(e.to_string()))?;
            }
            cert
        }
        _ => certify_module_stores(words, image.origin, entries, seg.0, seg.1)
            .map_err(unverifiable)?,
    };
    Ok(Admission {
        digest: cert.digest,
        certified_stores: cert.certified_stores,
        total_stores: cert.total_stores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_sos::modules;

    fn assemble(src: &mini_sos::ModuleSource, prot: Protection) -> ModuleImage {
        ModuleImage::assemble(src, &SosLayout::default_layout(), prot).expect("assembles")
    }

    #[test]
    fn blink_admits_under_both_builds() {
        let layout = SosLayout::default_layout();
        for prot in [Protection::Umpu, Protection::Sfi] {
            let image = assemble(&modules::blink(0), prot);
            let adm = verify_image(&image, &layout, prot, None).expect("blink admits");
            assert!(adm.total_stores >= adm.certified_stores);
        }
    }

    #[test]
    fn admission_is_deterministic() {
        let layout = SosLayout::default_layout();
        let image = assemble(&modules::surge(4, 2), Protection::Umpu);
        let a = verify_image(&image, &layout, Protection::Umpu, None).expect("surge admits");
        let b = verify_image(&image, &layout, Protection::Umpu, None).expect("surge admits");
        assert_eq!(a, b, "same image, same certificate");
    }

    #[test]
    fn policy_rehearsal_runs_under_sfi() {
        let layout = SosLayout::default_layout();
        let image = assemble(&modules::tree_routing(1), Protection::Sfi);
        let policy = LoadPolicy::with_allotment(u16::MAX);
        let adm = verify_image(&image, &layout, Protection::Sfi, Some(policy));
        assert!(adm.is_ok(), "tree_routing clears the default policy: {adm:?}");
    }

    #[test]
    fn policy_refusal_names_the_module() {
        let layout = SosLayout::default_layout();
        let image = assemble(&modules::tree_routing(1), Protection::Sfi);
        let policy = LoadPolicy::with_allotment(1);
        let err = verify_image(&image, &layout, Protection::Sfi, Some(policy))
            .expect_err("no module fits a one-byte safe-stack allotment");
        assert!(matches!(err, AdmitError::Policy(_)), "{err:?}");
        assert!(err.to_string().contains("module `tree_routing`"), "{err}");
    }

    #[test]
    fn errors_render() {
        assert_eq!(AdmitError::EmptyPlan.to_string(), "stage ladder grants no cohorts");
        assert!(AdmitError::RolloutActive(3).to_string().contains('3'));
    }
}
