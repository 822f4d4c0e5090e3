//! Targeted tests of the store-safety dataflow pass: what it certifies,
//! what it must refuse, and that its output is deterministic.

use avr_asm::Asm;
use avr_core::isa::{IwPair, Ptr, PtrMode, Reg};
use harbor_flow::dataflow::certify_module_stores;

const ORIGIN: u32 = 0x1000;
const SEG: u16 = 0x0300;
const SEG_LEN: u16 = 32;

fn cert_of(asm: Asm) -> harbor_flow::StoreCertificate {
    let obj = asm.assemble(ORIGIN).expect("test module assembles");
    certify_module_stores(obj.words(), ORIGIN, &[ORIGIN], SEG, SEG_LEN).expect("image decodes")
}

/// Word address of the `n`-th store-shaped instruction in the image.
fn store_addrs(words: &[u16], origin: u32) -> Vec<u32> {
    use avr_core::isa::{decode, Instr};
    let mut out = Vec::new();
    let mut idx = 0usize;
    while idx < words.len() {
        let addr = origin + idx as u32;
        let i = decode(words[idx], words.get(idx + 1).copied()).expect("decodes");
        if matches!(i, Instr::St { .. } | Instr::Std { .. } | Instr::Sts { .. }) {
            out.push(addr);
        }
        idx += i.words() as usize;
    }
    out
}

#[test]
fn constant_sts_inside_segment_is_certified() {
    let mut a = Asm::new();
    a.ldi(Reg::R16, 1);
    a.sts(SEG + 4, Reg::R16);
    a.ret();
    let c = cert_of(a);
    assert_eq!((c.total_stores, c.certified_stores), (1, 1));
}

#[test]
fn constant_sts_outside_segment_is_refused() {
    let mut a = Asm::new();
    a.ldi(Reg::R16, 1);
    a.sts(SEG + SEG_LEN, Reg::R16); // first byte past the segment
    a.sts(SEG - 1, Reg::R16); // last byte before it
    a.ret();
    let c = cert_of(a);
    assert_eq!((c.total_stores, c.certified_stores), (2, 0));
}

#[test]
fn ldi_pair_store_is_certified_and_loaded_pointer_is_not() {
    let mut a = Asm::new();
    // X ← immediate segment address: certifiable.
    a.ldi(Reg::R26, (SEG & 0xff) as u8);
    a.ldi(Reg::R27, (SEG >> 8) as u8);
    a.st(Ptr::X, PtrMode::Plain, Reg::R16);
    // X ← loaded from RAM: unknowable.
    a.lds(Reg::R26, SEG);
    a.lds(Reg::R27, SEG + 1);
    a.st(Ptr::X, PtrMode::Plain, Reg::R16);
    a.ret();
    let obj = a.assemble(ORIGIN).unwrap();
    let c = certify_module_stores(obj.words(), ORIGIN, &[ORIGIN], SEG, SEG_LEN).unwrap();
    let stores = store_addrs(obj.words(), ORIGIN);
    assert_eq!(stores.len(), 2);
    assert!(c.certified(stores[0]), "immediate pointer store is proven");
    assert!(!c.certified(stores[1]), "loaded pointer store is not");
    assert_eq!((c.total_stores, c.certified_stores), (2, 1));
}

#[test]
fn adiw_and_subi_chains_stay_inside_the_interval() {
    let mut a = Asm::new();
    // X = SEG + 8; X += 4 (adiw); still inside.
    a.ldi(Reg::R26, ((SEG + 8) & 0xff) as u8);
    a.ldi(Reg::R27, (SEG >> 8) as u8);
    a.adiw(IwPair::X, 4);
    a.st(Ptr::X, PtrMode::Plain, Reg::R16);
    // subi low byte by 40 — would cross below the segment: refused.
    a.subi(Reg::R26, 40);
    a.st(Ptr::X, PtrMode::Plain, Reg::R16);
    a.ret();
    let obj = a.assemble(ORIGIN).unwrap();
    let c = certify_module_stores(obj.words(), ORIGIN, &[ORIGIN], SEG, SEG_LEN).unwrap();
    let stores = store_addrs(obj.words(), ORIGIN);
    assert!(c.certified(stores[0]), "adiw-adjusted pointer inside the segment");
    assert!(!c.certified(stores[1]), "subi moved the pointer below the segment");
}

#[test]
fn movw_propagates_the_pointer() {
    let mut a = Asm::new();
    a.ldi(Reg::R30, (SEG & 0xff) as u8);
    a.ldi(Reg::R31, (SEG >> 8) as u8);
    a.movw(Reg::R26, Reg::R30); // X ← Z
    a.st(Ptr::X, PtrMode::Plain, Reg::R16);
    a.ret();
    let c = cert_of(a);
    assert_eq!((c.total_stores, c.certified_stores), (1, 1));
}

#[test]
fn displaced_store_is_certified_only_within_bounds() {
    let mut a = Asm::new();
    a.ldi(Reg::R28, (SEG & 0xff) as u8);
    a.ldi(Reg::R29, (SEG >> 8) as u8);
    a.std(Ptr::Y, 5, Reg::R16); // SEG+5: inside
    a.std(Ptr::Y, (SEG_LEN) as u8, Reg::R16); // SEG+len: one past
    a.ret();
    let obj = a.assemble(ORIGIN).unwrap();
    let c = certify_module_stores(obj.words(), ORIGIN, &[ORIGIN], SEG, SEG_LEN).unwrap();
    let stores = store_addrs(obj.words(), ORIGIN);
    assert!(c.certified(stores[0]));
    assert!(!c.certified(stores[1]));
}

#[test]
fn post_increment_stores_are_never_certified() {
    let mut a = Asm::new();
    a.ldi(Reg::R26, (SEG & 0xff) as u8);
    a.ldi(Reg::R27, (SEG >> 8) as u8);
    a.st(Ptr::X, PtrMode::PostInc, Reg::R16);
    a.ret();
    let c = cert_of(a);
    assert_eq!((c.total_stores, c.certified_stores), (1, 0));
}

#[test]
fn external_call_havocs_the_pointer() {
    let mut a = Asm::new();
    a.ldi(Reg::R26, (SEG & 0xff) as u8);
    a.ldi(Reg::R27, (SEG >> 8) as u8);
    a.call_abs(0x0010); // out-of-module call: clobbers everything
    a.st(Ptr::X, PtrMode::Plain, Reg::R16);
    a.ret();
    let c = cert_of(a);
    assert_eq!((c.total_stores, c.certified_stores), (1, 0));
}

#[test]
fn internal_call_summary_preserves_untouched_registers() {
    // helper writes only r18; the X pointer survives the call and the
    // store after it stays certified.
    let mut a = Asm::new();
    let helper = a.label("helper");
    a.ldi(Reg::R26, (SEG & 0xff) as u8);
    a.ldi(Reg::R27, (SEG >> 8) as u8);
    a.rcall(helper);
    a.st(Ptr::X, PtrMode::Plain, Reg::R16);
    a.ret();
    a.bind(helper);
    a.ldi(Reg::R18, 7);
    a.ret();
    let c = cert_of(a);
    assert_eq!((c.total_stores, c.certified_stores), (1, 1));
}

#[test]
fn internal_call_summary_havocs_written_pointer() {
    // helper rewrites r27 from RAM — the store after the call must not be
    // certified even though the call is intra-module.
    let mut a = Asm::new();
    let helper = a.label("helper");
    a.ldi(Reg::R26, (SEG & 0xff) as u8);
    a.ldi(Reg::R27, (SEG >> 8) as u8);
    a.rcall(helper);
    a.st(Ptr::X, PtrMode::Plain, Reg::R16);
    a.ret();
    a.bind(helper);
    a.lds(Reg::R27, SEG);
    a.ret();
    let c = cert_of(a);
    assert_eq!((c.total_stores, c.certified_stores), (1, 0));
}

#[test]
fn joined_paths_keep_only_the_common_proof() {
    // Both branches set X inside the segment → certified after the join.
    let mut a = Asm::new();
    let other = a.label("other");
    let join = a.label("join");
    a.ldi(Reg::R27, (SEG >> 8) as u8);
    a.sbrc(Reg::R24, 0);
    a.rjmp(other);
    a.ldi(Reg::R26, (SEG & 0xff) as u8);
    a.rjmp(join);
    a.bind(other);
    a.ldi(Reg::R26, ((SEG + 10) & 0xff) as u8);
    a.bind(join);
    a.st(Ptr::X, PtrMode::Plain, Reg::R16);
    a.ret();
    let c = cert_of(a);
    assert_eq!((c.total_stores, c.certified_stores), (1, 1));
}

#[test]
fn joined_paths_refuse_when_one_side_escapes() {
    // One branch points X outside the segment: the join must refuse.
    let mut a = Asm::new();
    let other = a.label("other");
    let join = a.label("join");
    a.ldi(Reg::R27, (SEG >> 8) as u8);
    a.sbrc(Reg::R24, 0);
    a.rjmp(other);
    a.ldi(Reg::R26, (SEG & 0xff) as u8);
    a.rjmp(join);
    a.bind(other);
    a.ldi(Reg::R26, ((SEG + SEG_LEN) & 0xff) as u8); // one past the end
    a.bind(join);
    a.st(Ptr::X, PtrMode::Plain, Reg::R16);
    a.ret();
    let c = cert_of(a);
    assert_eq!((c.total_stores, c.certified_stores), (1, 0));
}

#[test]
fn frame_relative_pointer_is_tracked_but_never_certified() {
    // Y ← SP (in r28, SPL / in r29, SPH): Frame provenance, refused even
    // though nothing further disturbs the registers.
    let mut a = Asm::new();
    a.in_(Reg::R28, 0x3d);
    a.in_(Reg::R29, 0x3e);
    a.std(Ptr::Y, 1, Reg::R16);
    a.ret();
    let c = cert_of(a);
    assert_eq!((c.total_stores, c.certified_stores), (1, 0));
}

#[test]
fn push_is_never_counted_or_certified() {
    let mut a = Asm::new();
    a.push(Reg::R16);
    a.pop(Reg::R16);
    a.ret();
    let c = cert_of(a);
    assert_eq!((c.total_stores, c.certified_stores), (0, 0));
}

#[test]
fn certificate_is_deterministic() {
    let build = || {
        let mut a = Asm::new();
        a.ldi(Reg::R16, 1);
        a.sts(SEG, Reg::R16);
        a.ldi(Reg::R26, (SEG & 0xff) as u8);
        a.ldi(Reg::R27, (SEG >> 8) as u8);
        a.st(Ptr::X, PtrMode::Plain, Reg::R16);
        a.lds(Reg::R26, SEG);
        a.st(Ptr::X, PtrMode::Plain, Reg::R16);
        a.ret();
        a
    };
    let a = cert_of(build());
    let b = cert_of(build());
    assert_eq!(a, b);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.certified_pcs(), b.certified_pcs());
}

#[test]
fn loop_with_counted_pointer_advance_is_refused() {
    // X walks forward each iteration — the fixpoint join must widen the
    // pointer and refuse, even though the first iteration is in bounds.
    let mut a = Asm::new();
    let l = a.label("l");
    a.ldi(Reg::R26, (SEG & 0xff) as u8);
    a.ldi(Reg::R27, (SEG >> 8) as u8);
    a.ldi(Reg::R16, 200);
    a.bind(l);
    a.st(Ptr::X, PtrMode::Plain, Reg::R17);
    a.adiw(IwPair::X, 1);
    a.dec(Reg::R16);
    a.brne(l);
    a.ret();
    let c = cert_of(a);
    assert_eq!((c.total_stores, c.certified_stores), (1, 0));
}

/// `(digest, certified_stores, total_stores)` of one certificate.
fn pin(c: &harbor_flow::StoreCertificate) -> (u64, u32, u32) {
    (c.digest, c.certified_stores, c.total_stores)
}

/// The certificates of the in-tree modules, pinned bit for bit: any change
/// to the lattice, the transfer functions or the fixpoint that moves a
/// certified PC of these images fails here. Each module is certified three
/// ways: the original image under UMPU (`certify_module_stores`), the SFI
/// rewrite (every store became a stub call, so this pins the stub-aware
/// CFG over a store-free image), and the SFI rewrite under an eliding
/// policy, whose certified stores stay raw between stub calls.
#[test]
fn in_tree_module_certificates_are_pinned() {
    use harbor_flow::CfgVerifier;
    use harbor_sfi::SfiRuntime;
    use mini_sos::loader::{load_module, load_module_with_policy};
    use mini_sos::{modules, LoadPolicy, Protection, SosLayout};

    type Pin = (u64, u32, u32);
    #[rustfmt::skip]
    let expected: [(&str, Pin, Pin, Pin); 7] = [
        ("blink", (0x9418594de420af3a, 2, 2), (0x5665a34361eda0a4, 0, 0), (0x8775d4181dd824d2, 2, 2)),
        ("tree_routing", (0x3237fc7bb4fb6afc, 2, 2), (0xba98a9556d237ec9, 0, 0), (0xcebd8117e6369767, 2, 2)),
        ("stress_store", (0x8ddf8243bed53012, 17, 17), (0x98fa564a040a5625, 0, 0), (0x701998a823e26dd6, 17, 17)),
        ("surge", (0xbdbb1516a908ad2c, 4, 5), (0xaf99459729f5fc5f, 0, 0), (0xaaef19d9976ff682, 4, 4)),
        ("surge_fixed", (0xb50b33b453024bb7, 4, 5), (0x637ab93ae1afa286, 0, 0), (0xd92b43980b8a46fb, 4, 4)),
        ("producer", (0xe9005fac07d2e1df, 3, 4), (0x052d0caae323df1f, 0, 0), (0x5ccc7a5bc2ec516c, 3, 3)),
        ("consumer", (0x3cbf1f96544bae19, 3, 3), (0x37ee865a085c5f64, 0, 0), (0xbc18941edb260f77, 3, 3)),
    ];
    let sources = [
        modules::blink(0),
        modules::tree_routing(1),
        modules::stress_store(2),
        modules::surge(3, 1),
        modules::surge_fixed(4, 1),
        modules::producer(5, 6),
        modules::consumer(6, 5),
    ];
    let layout = SosLayout::default_layout();
    let rt = SfiRuntime::build(layout.prot, layout.runtime_origin);
    let verifier = CfgVerifier::for_runtime(&rt);
    let eliding = LoadPolicy::with_allotment(u16::MAX).with_elision();
    for (src, &(name, umpu, sfi, elided)) in sources.iter().zip(&expected) {
        assert_eq!(src.name, name);
        let dom = src.domain.index();
        let (base, len) = (layout.state_addr(dom), layout.state_len());
        let m = load_module(src, &layout, Protection::Umpu, None).expect("loads");
        let (words, origin) = (m.object.words(), m.object.origin());
        let c = certify_module_stores(words, origin, &m.entry_addrs, base, len).expect("decodes");
        assert_eq!(pin(&c), umpu, "{name} (UMPU)");
        for (policy, want, what) in [(None, sfi, "SFI"), (Some(&eliding), elided, "SFI, eliding")] {
            let m = load_module_with_policy(src, &layout, Protection::Sfi, Some(&rt), policy)
                .expect("sandboxes");
            let (words, origin) = (m.object.words(), m.object.origin());
            let c =
                verifier.certify_stores(words, origin, &m.entry_addrs, base, len).expect("decodes");
            assert_eq!(pin(&c), want, "{name} ({what})");
        }
    }
}

/// Emits one random instruction (or pointer set-up pair) from the idioms
/// the dataflow models: pointers from immediates near the segment, pointer
/// arithmetic, stores in every mode, loops and forward branches to
/// `marks`, a local call to `f`, an external call, loads and stack-pointer
/// reads.
fn random_op(a: &mut Asm, rng: &mut rand::StdRng, marks: &[avr_asm::Label], f: avr_asm::Label) {
    use rand::Rng;
    let ptrs = [Ptr::X, Ptr::Y, Ptr::Z];
    let pairs = [IwPair::X, IwPair::Y, IwPair::Z];
    let ptr = ptrs[rng.gen_range(0..3)];
    let byte = if rng.gen_range(0u8..2) == 0 { ptr.lo() } else { ptr.hi() };
    match rng.gen_range(0u8..16) {
        0 | 1 => {
            a.ldi(ptr.lo(), (SEG as u8).wrapping_add(rng.gen_range(0u8..40)));
            a.ldi(ptr.hi(), (SEG >> 8) as u8);
        }
        2 => {
            let modes = [PtrMode::Plain, PtrMode::Plain, PtrMode::PostInc, PtrMode::PreDec];
            a.st(ptr, modes[rng.gen_range(0..4)], Reg::R16);
        }
        3 => a.std(ptrs[rng.gen_range(1..3)], rng.gen_range(0u8..40), Reg::R16),
        4 => a.adiw(pairs[rng.gen_range(0..3)], rng.gen_range(0u8..24)),
        5 => a.sbiw(pairs[rng.gen_range(0..3)], rng.gen_range(0u8..24)),
        6 => a.movw(ptr.lo(), ptrs[rng.gen_range(0..3)].lo()),
        7 => a.inc(byte),
        8 => a.dec(byte),
        9 => match rng.gen_range(0u8..3) {
            0 => a.subi(byte, rng.gen_range(0u8..16)),
            1 => a.andi(byte, rng.gen()),
            _ => a.ori(byte, rng.gen()),
        },
        10 => a.brne(marks[rng.gen_range(0..marks.len())]),
        11 => a.rcall(f),
        12 => a.lds(byte, SEG),
        13 => a.sts(SEG + rng.gen_range(0u16..40), Reg::R16),
        14 => match rng.gen_range(0u8..3) {
            0 => a.call_abs(0x0040),
            1 => a.in_(byte, 0x3d),
            _ => a.ldi(byte, rng.gen()),
        },
        _ => a.st(ptr, PtrMode::Plain, Reg::R17),
    }
}

/// A random program: a main body with three loop/branch marks bound along
/// it, then a local function `f` (which may call itself).
fn random_program(rng: &mut rand::StdRng) -> Asm {
    use rand::Rng;
    let mut a = Asm::new();
    let f = a.label("f");
    let marks: Vec<avr_asm::Label> = (0..3).map(|i| a.label(&format!("m{i}"))).collect();
    let len = rng.gen_range(6usize..24);
    for i in 0..len {
        if i % (len / 3) == 0 && i / (len / 3) < marks.len() {
            a.bind(marks[i / (len / 3)]);
        }
        random_op(&mut a, rng, &marks, f);
    }
    a.ret();
    a.bind(f);
    for _ in 0..rng.gen_range(0u8..6) {
        random_op(&mut a, rng, &marks, f);
    }
    a.ret();
    a
}

/// The in-tree images' certificates do not depend on joins, loops, call
/// summaries or stub roles (dropping any of them leaves the pins above in
/// place), so the fixpoint itself is pinned over seeded random programs
/// built from the idioms the lattice models ([`random_op`]). Each program
/// is certified as an original image (`certify_module_stores`) and, after
/// an eliding SFI rewrite that keeps its certified stores raw between stub
/// calls, by `CfgVerifier::certify_stores`. Every outcome folds into one
/// FNV-1a hash per analysis, recorded like the pins above.
#[test]
fn random_program_certificates_are_pinned() {
    use rand::{SeedableRng, StdRng};

    fn eat(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn eat_cert(h: &mut u64, c: &harbor_flow::StoreCertificate) {
        eat(h, c.digest);
        eat(h, ((c.certified_stores as u64) << 32) | c.total_stores as u64);
    }

    let rt = harbor_sfi::SfiRuntime::build(harbor_sfi::SfiLayout::default_layout(), 0x0040);
    let verifier = harbor_flow::CfgVerifier::for_runtime(&rt);
    let mut hashes = [0xcbf2_9ce4_8422_2325u64; 2];
    let (mut pointer_stores, mut rewritten) = (0, 0);
    let mut rng = StdRng::seed_from_u64(0xce27);
    for _ in 0..1_000 {
        let obj = random_program(&mut rng).assemble(ORIGIN).expect("program assembles");
        let c = certify_module_stores(obj.words(), ORIGIN, &[ORIGIN], SEG, SEG_LEN)
            .expect("program decodes");
        eat_cert(&mut hashes[0], &c);
        let stores = store_addrs(obj.words(), ORIGIN);
        let sts = |pc: &&u32| {
            let at = (**pc - ORIGIN) as usize;
            matches!(
                avr_core::isa::decode(obj.words()[at], obj.words().get(at + 1).copied()),
                Ok(avr_core::isa::Instr::Sts { .. })
            )
        };
        pointer_stores += stores.iter().filter(|pc| c.certified(**pc) && !sts(pc)).count();

        let elide = c.certified_pcs().into_iter().collect();
        match harbor_sfi::rewrite_with_elision(obj.words(), ORIGIN, &[ORIGIN], ORIGIN, &rt, &elide)
        {
            Ok(rw) => {
                rewritten += 1;
                let words = rw.object.words();
                let entry = rw.translated(ORIGIN);
                let c = verifier
                    .certify_stores(words, ORIGIN, &[entry], SEG, SEG_LEN)
                    .expect("rewrite decodes");
                eat_cert(&mut hashes[1], &c);
            }
            Err(e) => e.to_string().bytes().for_each(|b| eat(&mut hashes[1], b as u64)),
        }
    }
    assert!(pointer_stores >= 100, "only {pointer_stores} certified pointer stores");
    assert!(rewritten >= 600, "only {rewritten} programs rewrite");
    assert_eq!(hashes, [0x7b02_663a_e76f_c68f, 0x01ce_75a1_e27f_b3f5], "original, SFI eliding");
}
