//! SOS's buffer-handoff pattern — the workload `change_own` exists for:
//! a producer allocates and fills a buffer, transfers ownership to the
//! consumer, and posts it a message. After the transfer the *producer* is
//! the one locked out: protection domains follow the data.

use avr_core::isa::{Ptr, PtrMode, Reg};
use avr_core::Fault;
use harbor::{fault_code, DomainId};
use mini_sos::kernel::MSG_TIMER;
use mini_sos::{JtEntry, ModuleSource, Protection, SosSystem, ENGINES};

const PRODUCER: u8 = 1;
const CONSUMER: u8 = 4;

/// Producer (dom 1): on its timer message, malloc(8) → fill → change_own to
/// the consumer → publish the pointer in its state → post the consumer.
/// With `poison_after_handoff`, it then writes the buffer once more — which
/// must fault under protection.
fn producer(poison_after_handoff: bool) -> ModuleSource {
    ModuleSource {
        name: "producer",
        domain: DomainId::num(PRODUCER),
        entries: vec!["prod_handler"],
        build: Box::new(move |a, ctx| {
            let state = ctx.state_addr; // [0..2] published buffer ptr
            let done = a.label("prod_done");
            a.here("prod_handler");
            a.cpi(Reg::R24, MSG_TIMER);
            a.brne(done);
            // buf = malloc(8, self)
            a.ldi(Reg::R24, 8);
            a.ldi(Reg::R22, PRODUCER);
            ctx.call_kernel(a, JtEntry::Malloc);
            a.sts(state, Reg::R24);
            a.sts(state + 1, Reg::R25);
            // *buf = 0x5a (we own it — allowed)
            a.mov(Reg::R26, Reg::R24);
            a.mov(Reg::R27, Reg::R25);
            a.ldi(Reg::R16, 0x5a);
            a.st(Ptr::X, PtrMode::Plain, Reg::R16);
            // change_own(buf, consumer)
            a.lds(Reg::R24, state);
            a.lds(Reg::R25, state + 1);
            a.ldi(Reg::R22, CONSUMER);
            ctx.call_kernel(a, JtEntry::ChangeOwn);
            if poison_after_handoff {
                // The bug under test: writing after the handoff.
                a.lds(Reg::R26, state);
                a.lds(Reg::R27, state + 1);
                a.ldi(Reg::R16, 0xbd);
                a.st(Ptr::X, PtrMode::Plain, Reg::R16);
            }
            // post(consumer, TIMER)
            a.ldi(Reg::R24, CONSUMER);
            a.ldi(Reg::R22, MSG_TIMER);
            ctx.call_kernel(a, JtEntry::Post);
            a.bind(done);
            a.ret();
        }),
    }
}

/// Consumer (dom 4): reads the published pointer from the producer's state
/// (reads are unrestricted), doubles the sample *in place* (it owns the
/// buffer now), records it, and frees the buffer (it is the owner).
fn consumer(producer_state: u16) -> ModuleSource {
    ModuleSource {
        name: "consumer",
        domain: DomainId::num(CONSUMER),
        entries: vec!["cons_handler"],
        build: Box::new(move |a, ctx| {
            let state = ctx.state_addr; // [0] sample, [1] free status
            let done = a.label("cons_done");
            a.here("cons_handler");
            a.cpi(Reg::R24, MSG_TIMER);
            a.brne(done);
            a.lds(Reg::R26, producer_state);
            a.lds(Reg::R27, producer_state + 1);
            a.ld(Reg::R16, Ptr::X, PtrMode::Plain);
            a.lsl(Reg::R16);
            a.st(Ptr::X, PtrMode::Plain, Reg::R16); // we own it now
            a.sts(state, Reg::R16);
            // free(buf) — we are the owner after the handoff.
            a.lds(Reg::R24, producer_state);
            a.lds(Reg::R25, producer_state + 1);
            ctx.call_kernel(a, JtEntry::Free);
            a.sts(state + 1, Reg::R24);
            a.bind(done);
            a.ret();
        }),
    }
}

/// The producer/consumer pair under `p` on one `(turbo, prove)` engine of
/// [`ENGINES`], booted, with the producer's timer message queued.
fn build(p: Protection, (turbo, prove): (bool, bool), poison: bool) -> SosSystem {
    let layout = mini_sos::SosLayout::default_layout();
    let mods = [producer(poison), consumer(layout.state_addr(PRODUCER))];
    let mut sys = SosSystem::build(p, &mods, |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .expect("builds");
    sys.set_prove(prove);
    sys.set_turbo(turbo);
    sys.boot().expect("boot");
    sys.post(DomainId::num(PRODUCER), MSG_TIMER);
    sys
}

#[test]
fn handoff_works_under_every_build() {
    for engine @ (turbo, prove) in ENGINES {
        for p in [Protection::None, Protection::Umpu, Protection::Sfi] {
            let on = format!("{p:?} turbo={turbo} prove={prove}");
            let mut sys = build(p, engine, false);
            sys.run_to_break(10_000_000).unwrap_or_else(|e| panic!("{on}: {e}"));
            let cons_state = sys.layout.state_addr(CONSUMER);
            assert_eq!(sys.sram(cons_state), 0xb4, "{on}: consumer doubled 0x5a in place");
            assert_eq!(sys.sram(cons_state + 1), 0, "{on}: consumer's free accepted");
        }
    }
}

#[test]
fn producer_writing_after_handoff_is_caught() {
    for engine @ (turbo, prove) in ENGINES {
        for p in [Protection::Umpu, Protection::Sfi] {
            let on = format!("{p:?} turbo={turbo} prove={prove}");
            let mut sys = build(p, engine, true);
            let err = sys.run_to_break(10_000_000).unwrap_err();
            match err {
                Fault::Env(e) => assert_eq!(e.code, fault_code::MEM_MAP, "{on}"),
                other => panic!("{on}: expected protection fault, got {other:?}"),
            }
            // The poison byte never landed.
            let buf = sys.sram16(sys.layout.state_addr(PRODUCER));
            assert_eq!(sys.sram(buf), 0x5a, "{on}: buffer contents intact");
        }
        // On the stock AVR, the stale write lands silently.
        let mut sys = build(Protection::None, engine, true);
        sys.run_to_break(10_000_000).unwrap();
        let cons_state = sys.layout.state_addr(CONSUMER);
        // The consumer read the *poisoned* value: 0xbd doubled = 0x7a (mod 256).
        assert_eq!(
            sys.sram(cons_state),
            0x7a,
            "turbo={turbo} prove={prove}: silent corruption propagated downstream"
        );
    }
}
