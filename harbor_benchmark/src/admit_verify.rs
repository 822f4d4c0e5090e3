//! `admit_verify`: the base station's trust boundary, with no fleet and no
//! guest execution.
//!
//! The seven in-tree modules are assembled as UMPU and SFI wire images;
//! each op decodes one image (`ModuleImage::from_bytes`) and runs the
//! admission verifier on it (`harbor_helm::verify_image`; SFI images under
//! a `LoadPolicy`, so the stack-bound rehearsal runs too). Images go
//! round-robin over the 14 bases, mutated by the seed: a quarter
//! untouched, a quarter with one wire bit flipped (decoder and checksum
//! path), half with 1–4 random words substituted after decode (verifier
//! rejection paths). This isolates the image, flow and sfi layers that
//! admission, prove re-certification and fuzzing share; fleet or engine
//! changes must leave it unchanged.
//!
//! Failures: panics, and untouched images refused. Checks: every
//! untouched image admits with its base's certificate digest, and every
//! flipped bit is refused by the decoder.

use crate::run::{Run, Size};
use harbor_bench::report::{machine_hash, machine_hash_words};
use harbor_fleet::ModuleImage;
use harbor_helm::{verify_image, Admission, AdmitError};
use mini_sos::{modules, LoadPolicy, ModuleSource, Protection, SosLayout};
use rand::{Rng, SeedableRng, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// 16,384 images (~0.7 s) per episode; the fleet node count is unused.
pub const SIZE: Size = Size { nodes: 0, ops: 16_384 };

/// Safe-stack allotment of the SFI admission policy: roomy enough for
/// every untouched module.
const SFI_ALLOTMENT: u16 = 128;

fn sources() -> [ModuleSource; 7] {
    [
        modules::blink(0),
        modules::tree_routing(1),
        modules::stress_store(2),
        modules::surge(3, 1),
        modules::surge_fixed(4, 1),
        modules::producer(5, 6),
        modules::consumer(6, 5),
    ]
}

/// One assembled wire image and what admitting it yields.
struct Base {
    protection: Protection,
    image: ModuleImage,
    bytes: Vec<u8>,
    admission: Admission,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    Untouched,
    FlippedBit,
    Substituted,
}

struct Input {
    base: usize,
    mutation: Mutation,
    bytes: Vec<u8>,
}

enum Outcome {
    Accepted(Admission),
    Undecodable,
    Refused(AdmitError),
    Panicked,
}

fn policy(protection: Protection) -> Option<LoadPolicy> {
    (protection == Protection::Sfi).then(|| LoadPolicy::with_allotment(SFI_ALLOTMENT))
}

fn assemble_bases(layout: &SosLayout) -> Vec<Base> {
    let mut bases = Vec::new();
    for protection in [Protection::Umpu, Protection::Sfi] {
        for src in sources() {
            let image = ModuleImage::assemble(&src, layout, protection).expect("module assembles");
            let admission = verify_image(&image, layout, protection, policy(protection))
                .unwrap_or_else(|e| panic!("{} ({protection:?}) must admit: {e}", image.name));
            bases.push(Base { protection, bytes: image.to_bytes(), image, admission });
        }
    }
    bases
}

/// The episode's inputs, drawn from `seed` (not timed).
fn generate(bases: &[Base], seed: u64, n: u64) -> Vec<Input> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as usize)
        .map(|i| {
            let base = i % bases.len();
            let (mutation, bytes) = match rng.gen_range(0u8..4) {
                0 => (Mutation::Untouched, bases[base].bytes.clone()),
                1 => {
                    let mut bytes = bases[base].bytes.clone();
                    let bit = rng.gen_range(0..bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    (Mutation::FlippedBit, bytes)
                }
                _ => {
                    let mut image = bases[base].image.clone();
                    for _ in 0..rng.gen_range(1u8..5) {
                        let at = rng.gen_range(0..image.words.len());
                        image.words[at] = rng.gen();
                    }
                    (Mutation::Substituted, image.to_bytes())
                }
            };
            Input { base, mutation, bytes }
        })
        .collect()
}

/// Split timers of the traced episodes.
#[derive(Default)]
struct Split {
    decode_ns: u64,
    verify_ns: [u64; 2],
}

/// Runs the workload.
pub fn run(run: &mut Run, size: Size) {
    let layout = SosLayout::default_layout();
    let mut split = Split::default();
    while let Some(k) = run.next_episode() {
        let traced = run.traced();
        let bases = run.setup(|| assemble_bases(&layout));
        let inputs = generate(&bases, run.seed.wrapping_add(k), size.ops);
        // Sized up front so the trail adds nothing to memory growth.
        let mut trail = Vec::with_capacity(if k == 0 { 2 * inputs.len() } else { 0 });
        let mut counts = [0u64; 3];
        for input in &inputs {
            if run.expired() {
                break;
            }
            let base = &bases[input.base];
            let outcome = run.op(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    let t = traced.then(Instant::now);
                    let Ok(image) = ModuleImage::from_bytes(&input.bytes) else {
                        return Outcome::Undecodable;
                    };
                    let t = t.map(|t| {
                        split.decode_ns += t.elapsed().as_nanos() as u64;
                        Instant::now()
                    });
                    let verdict =
                        verify_image(&image, &layout, base.protection, policy(base.protection));
                    if let Some(t) = t {
                        let slot = usize::from(base.protection == Protection::Sfi);
                        split.verify_ns[slot] += t.elapsed().as_nanos() as u64;
                    }
                    match verdict {
                        Ok(admission) => Outcome::Accepted(admission),
                        Err(e) => Outcome::Refused(e),
                    }
                }))
                .unwrap_or(Outcome::Panicked)
            });
            run.attempted += 1;
            let code = match &outcome {
                Outcome::Accepted(_) => 0,
                Outcome::Undecodable => 1,
                Outcome::Refused(_) => 2,
                Outcome::Panicked => 3,
            };
            if k == 0 {
                // The outcome sequence, certificate digests and refusal
                // reasons included, is episode 0's machine identity.
                let detail = match &outcome {
                    Outcome::Accepted(a) => a.digest,
                    Outcome::Refused(e) => machine_hash(e.to_string().as_bytes()),
                    _ => 0,
                };
                trail.extend([code, detail]);
                if code < 3 {
                    counts[code as usize] += 1;
                }
            }
            match (input.mutation, &outcome) {
                (_, Outcome::Panicked) => run.failed += 1,
                (Mutation::Untouched, Outcome::Accepted(a)) => {
                    run.check(*a == base.admission, || {
                        format!("untouched {} admitted with another certificate", base.image.name)
                    });
                }
                (Mutation::Untouched, _) => run.failed += 1,
                (Mutation::FlippedBit, Outcome::Undecodable) | (Mutation::Substituted, _) => {}
                (Mutation::FlippedBit, _) => {
                    run.check(false, || format!("a flipped bit in {} decoded", base.image.name));
                }
            }
        }
        run.end_ops();
        if k == 0 {
            let names = ["admit.accepted", "admit.rejected_decode", "admit.rejected_verify"];
            for (name, n) in names.iter().zip(counts) {
                run.layers.set(name, n as f64);
            }
            run.pin("outcomes", machine_hash_words(&trail));
        }
    }
    let shares = [
        ("image.decode_pct", split.decode_ns),
        ("admit.verify_umpu_pct", split.verify_ns[0]),
        ("admit.verify_sfi_pct", split.verify_ns[1]),
    ];
    for (name, ns) in shares {
        let share = run.traced_share(ns);
        run.layers.set(name, share);
    }
}
