//! Edge cases of the kernel allocator and message queue: exhaustion,
//! double free, bad pointers, queue wrap-around and overflow.

use avr_core::isa::Reg;
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{modules, JtEntry, Protection, SosSystem, ENGINES};

const OUT: u16 = 0x01ee;
const ALL: [Protection; 3] = [Protection::None, Protection::Umpu, Protection::Sfi];

#[test]
fn malloc_exhaustion_returns_null() {
    // 248 allocatable blocks; a 200-byte request takes 26 blocks, so the
    // 10th must fail (9 × 26 = 234, 240 > 248 − nothing? 248−234 = 14 < 26).
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in ALL {
            let mut sys = SosSystem::build(p, &[], |a, api| {
                let lp = a.label("fill");
                // Counters in call-saved low registers (the kernel ABI clobbers
                // r18..r27).
                a.ldi(Reg::R16, 10);
                a.mov(Reg::R8, Reg::R16); // attempts
                a.clr(Reg::R9); // successes
                a.bind(lp);
                a.ldi(Reg::R24, 200);
                a.ldi(Reg::R22, 2);
                api.call_kernel(a, JtEntry::Malloc);
                // null?
                a.mov(Reg::R16, Reg::R24);
                a.or(Reg::R16, Reg::R25);
                let skip = a.label("skip_count");
                a.breq(skip);
                a.inc(Reg::R9);
                a.bind(skip);
                a.dec(Reg::R8);
                a.brne(lp);
                a.sts(OUT, Reg::R9);
                // Record the final (failing) pointer too.
                a.sts(OUT + 1, Reg::R24);
                a.sts(OUT + 2, Reg::R25);
                a.brk();
            })
            .unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.run_to_break(10_000_000).unwrap();
            assert_eq!(sys.sram(OUT), 9, "{p:?} {engine}: exactly 9 of 10 allocations fit");
            assert_eq!(sys.sram16(OUT + 1), 0, "{p:?} {engine}: exhausted malloc returns null");
        }
    }
}

#[test]
fn double_free_and_wild_pointers_are_rejected() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in ALL {
            let mut sys = SosSystem::build(p, &[], |a, api| {
                // a = malloc(8, 2); free(a) -> 0; free(a) again -> 0xff;
                // free(0x0500 wild) -> 0xff; free(heap-2 out of range) -> 0xff.
                a.ldi(Reg::R24, 8);
                a.ldi(Reg::R22, 2);
                api.call_kernel(a, JtEntry::Malloc);
                a.sts(OUT, Reg::R24);
                a.sts(OUT + 1, Reg::R25);
                a.lds(Reg::R24, OUT);
                a.lds(Reg::R25, OUT + 1);
                api.call_kernel(a, JtEntry::Free);
                a.sts(OUT + 2, Reg::R24); // 0
                a.lds(Reg::R24, OUT);
                a.lds(Reg::R25, OUT + 1);
                api.call_kernel(a, JtEntry::Free);
                a.sts(OUT + 3, Reg::R24); // 0xff (double free)
                a.ldi(Reg::R24, 0x00);
                a.ldi(Reg::R25, 0x05); // 0x0500: in-heap but never allocated
                api.call_kernel(a, JtEntry::Free);
                a.sts(OUT + 4, Reg::R24); // 0xff
                a.ldi(Reg::R24, 0x10);
                a.ldi(Reg::R25, 0x00); // 0x0010: far below the heap
                api.call_kernel(a, JtEntry::Free);
                a.sts(OUT + 5, Reg::R24); // 0xff
                a.brk();
            })
            .unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.run_to_break(10_000_000).unwrap();
            assert_eq!(sys.sram(OUT + 2), 0x00, "{p:?} {engine}: first free succeeds");
            assert_eq!(sys.sram(OUT + 3), 0xff, "{p:?} {engine}: double free rejected");
            assert_eq!(sys.sram(OUT + 4), 0xff, "{p:?} {engine}: never-allocated pointer rejected");
            assert_eq!(sys.sram(OUT + 5), 0xff, "{p:?} {engine}: out-of-heap pointer rejected");
        }
    }
}

#[test]
fn change_own_of_freed_memory_is_rejected() {
    // The use-after-free resurrection found by the differential property:
    // change_own on a freed pointer must fail, even for the kernel.
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in [Protection::Umpu, Protection::Sfi] {
            let mut sys = SosSystem::build(p, &[], |a, api| {
                a.ldi(Reg::R24, 8);
                a.ldi(Reg::R22, 1);
                api.call_kernel(a, JtEntry::Malloc);
                a.sts(OUT, Reg::R24);
                a.sts(OUT + 1, Reg::R25);
                a.lds(Reg::R24, OUT);
                a.lds(Reg::R25, OUT + 1);
                api.call_kernel(a, JtEntry::Free);
                a.lds(Reg::R24, OUT);
                a.lds(Reg::R25, OUT + 1);
                a.ldi(Reg::R22, 3);
                api.call_kernel(a, JtEntry::ChangeOwn);
                a.sts(OUT + 2, Reg::R24);
                a.brk();
            })
            .unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.run_to_break(10_000_000).unwrap();
            assert_eq!(sys.sram(OUT + 2), 0xff, "{p:?} {engine}: stale change_own rejected");
            // And the memory map still shows the block as free.
            let base = sys.layout.prot.mem_map_base;
            assert_eq!(sys.sram(base) & 0x0f, 0x0f, "{p:?} {engine}: first block reads free");
        }
    }
}

#[test]
fn message_queue_wraps_and_reports_overflow() {
    // Fill the 15 usable entries from inside the machine, confirm the 16th
    // post reports full, then drain and go around the ring again.
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let mut sys = SosSystem::build(Protection::Umpu, &[modules::blink(0)], |a, api| {
            let lp = a.label("post_loop");
            a.ldi(Reg::R18, 15); // the queue holds capacity-1 = 15
            a.bind(lp);
            a.ldi(Reg::R24, 0);
            a.ldi(Reg::R22, MSG_TIMER);
            api.call_kernel(a, JtEntry::Post);
            a.dec(Reg::R18);
            a.brne(lp);
            // One more must report full.
            a.ldi(Reg::R24, 0);
            a.ldi(Reg::R22, MSG_TIMER);
            api.call_kernel(a, JtEntry::Post);
            a.sts(OUT, Reg::R24);
            // Drain everything, then post/drain once more (wrap-around).
            api.run_scheduler(a);
            a.ldi(Reg::R24, 0);
            a.ldi(Reg::R22, MSG_TIMER);
            api.call_kernel(a, JtEntry::Post);
            a.sts(OUT + 1, Reg::R24);
            api.run_scheduler(a);
            a.brk();
        })
        .unwrap();
        sys.set_prove(prove);
        sys.set_turbo(turbo);
        sys.boot().unwrap();
        // Consume the boot-time init message capacity: drain it first by hand.
        // (boot posted 1 init message; the app then posts 15 → 16 total would
        // overflow, so pre-drain via the scheduler by steering.)
        // Simpler: pop the init message off host-side.
        let head = sys.sram(sys.layout.q_head);
        sys.write_sram(sys.layout.q_head, (head + 1) & 0x0f);
        sys.run_to_break(10_000_000).unwrap();
        assert_eq!(sys.sram(OUT), 0xff, "{engine}: 16th post reports queue full");
        assert_eq!(sys.sram(OUT + 1), 0, "{engine}: post after drain succeeds (wrapped)");
        // 15 + 1 timer messages were delivered in total.
        assert_eq!(sys.sram(sys.layout.state_addr(0)), 16, "{engine}: every message delivered");
    }
}
