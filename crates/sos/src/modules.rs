//! The demo modules: Blink, Tree Routing and Surge — including the paper's
//! war-story bug (Surge uses an unchecked cross-domain error return as a
//! buffer offset).

use crate::kernel::{JtEntry, MSG_INIT};
use crate::loader::ModuleSource;
use avr_core::isa::{Ptr, PtrMode, Reg};
use harbor::DomainId;

const R18: Reg = Reg::R18;
const R19: Reg = Reg::R19;
const R20: Reg = Reg::R20;
const R22: Reg = Reg::R22;
const R24: Reg = Reg::R24;
const R25: Reg = Reg::R25;
const R26: Reg = Reg::R26;
const R27: Reg = Reg::R27;

/// "LED" port the blink module toggles (outside the UMPU register file).
pub const LED_PORT: u8 = 0x18;

/// Blink: the hello-world module. Keeps a counter in its static state and
/// mirrors it to the LED port on every timer message.
pub fn blink(dom: u8) -> ModuleSource {
    ModuleSource {
        name: "blink",
        domain: DomainId::num(dom),
        entries: vec!["blink_handler"],
        build: Box::new(|a, ctx| {
            let state = ctx.state_addr;
            let timer = a.label("blink_timer");
            a.here("blink_handler");
            a.cpi(R24, MSG_INIT);
            a.brne(timer);
            a.clr(R18);
            a.sts(state, R18);
            a.ret();
            a.bind(timer);
            a.lds(R18, state);
            a.inc(R18);
            a.sts(state, R18);
            a.out(LED_PORT, R18);
            a.ret();
        }),
    }
}

/// Tree Routing: exports `get_parent` (entry 1). Until its init message
/// arrives it reports failure (`0xff`) — and when the module is absent
/// entirely, the jump-table error stub produces the same `0xff`, modelling
/// SOS's failed dynamic linking.
pub fn tree_routing(dom: u8) -> ModuleSource {
    ModuleSource {
        name: "tree_routing",
        domain: DomainId::num(dom),
        entries: vec!["tree_handler", "tree_get_parent"],
        build: Box::new(|a, ctx| {
            let state = ctx.state_addr; // [0] parent, [1] initialised
            let done = a.label("tree_done");
            let not_init = a.label("tree_ni");
            a.here("tree_handler");
            a.cpi(R24, MSG_INIT);
            a.brne(done);
            a.ldi(R18, 2); // parent offset in the sample buffer
            a.sts(state, R18);
            a.ldi(R18, 1);
            a.sts(state + 1, R18);
            a.bind(done);
            a.ret();

            a.here("tree_get_parent");
            a.lds(R24, state + 1);
            a.tst(R24);
            a.breq(not_init);
            a.lds(R24, state);
            a.ret();
            a.bind(not_init);
            a.ldi(R24, 0xff);
            a.ret();
        }),
    }
}

/// Surge: the data-collection module with the deployment bug Harbor caught.
///
/// On init it mallocs a 16-byte sample buffer. On every timer message it
/// asks Tree Routing for the parent offset and stores the new sample at
/// `buffer[offset]` — **without checking the error return**. When Tree
/// Routing is missing (loaded after Surge, or not at all), the cross-domain
/// call yields `0xff` and the store lands ~255 bytes past the buffer:
/// silent memory corruption on a stock AVR, a protection fault under
/// Harbor.
pub fn surge(dom: u8, tree_dom: u8) -> ModuleSource {
    ModuleSource {
        name: "surge",
        domain: DomainId::num(dom),
        entries: vec!["surge_handler"],
        build: Box::new(move |a, ctx| {
            let state = ctx.state_addr; // [0..2] buffer ptr, [2] counter
            let own_dom = ctx.domain.index();
            let timer = a.label("surge_timer");
            a.here("surge_handler");
            a.cpi(R24, MSG_INIT);
            a.brne(timer);
            // buffer = ker_malloc(16, own domain)
            a.ldi(R24, 16);
            a.ldi(R22, own_dom);
            ctx.call_kernel(a, JtEntry::Malloc);
            a.sts(state, R24);
            a.sts(state + 1, R25);
            a.clr(R18);
            a.sts(state + 2, R18);
            a.ret();

            a.bind(timer);
            // offset = tree_get_parent()   ← THE BUG: r24 may be the error
            // code 0xff, and nothing checks it.
            ctx.call_module(a, DomainId::num(tree_dom), 1);
            a.mov(R20, R24);
            // counter++
            a.lds(R18, state + 2);
            a.inc(R18);
            a.sts(state + 2, R18);
            // buffer[offset] = counter
            a.lds(R26, state);
            a.lds(R27, state + 1);
            a.add(R26, R20);
            a.clr(R19);
            a.adc(R27, R19);
            a.st(Ptr::X, PtrMode::Plain, R18);
            a.ret();
        }),
    }
}

/// A *fixed* Surge that checks the error return — used by the ablation
/// bench and as the repaired version of the war story.
pub fn surge_fixed(dom: u8, tree_dom: u8) -> ModuleSource {
    ModuleSource {
        name: "surge_fixed",
        domain: DomainId::num(dom),
        entries: vec!["surge_handler"],
        build: Box::new(move |a, ctx| {
            let state = ctx.state_addr;
            let own_dom = ctx.domain.index();
            let timer = a.label("surge_timer");
            let drop = a.label("surge_drop");
            a.here("surge_handler");
            a.cpi(R24, MSG_INIT);
            a.brne(timer);
            a.ldi(R24, 16);
            a.ldi(R22, own_dom);
            ctx.call_kernel(a, JtEntry::Malloc);
            a.sts(state, R24);
            a.sts(state + 1, R25);
            a.clr(R18);
            a.sts(state + 2, R18);
            a.ret();
            a.bind(timer);
            ctx.call_module(a, DomainId::num(tree_dom), 1);
            a.cpi(R24, 16);
            a.brsh(drop); // offset out of range: drop the sample
            a.mov(R20, R24);
            a.lds(R18, state + 2);
            a.inc(R18);
            a.sts(state + 2, R18);
            a.lds(R26, state);
            a.lds(R27, state + 1);
            a.add(R26, R20);
            a.clr(R19);
            a.adc(R27, R19);
            a.st(Ptr::X, PtrMode::Plain, R18);
            a.bind(drop);
            a.ret();
        }),
    }
}

/// Store-stress: a module whose timer handler hammers the first half of its
/// static state segment with direct `sts` writes — 16 unrolled stores per
/// pass (the unroll is capped by the backward-branch range), 16 passes per
/// message. Every store targets a constant address inside the module's own
/// segment, so the `harbor-flow` dataflow pass certifies all of them — the
/// store-dominated workload whose 17 of 17 certified stores
/// `harbor_prove`'s tests pin, and on which `tests/observer_identity.rs`
/// runs elision under turbo.
pub fn stress_store(dom: u8) -> ModuleSource {
    ModuleSource {
        name: "stress_store",
        domain: DomainId::num(dom),
        entries: vec!["stress_handler"],
        build: Box::new(|a, ctx| {
            let state = ctx.state_addr;
            let unroll = ctx.layout.state_len().min(16);
            let timer = a.label("stress_timer");
            let pass = a.label("stress_pass");
            a.here("stress_handler");
            a.cpi(R24, MSG_INIT);
            a.brne(timer);
            a.clr(R18);
            a.sts(state, R18);
            a.ret();
            a.bind(timer);
            a.lds(R18, state);
            a.inc(R18);
            a.ldi(R19, 16);
            a.bind(pass);
            for i in 0..unroll {
                a.sts(state + i, R18);
            }
            a.dec(R19);
            a.brne(pass);
            a.ret();
        }),
    }
}

/// Producer half of the SOS buffer-handoff pipeline: on each timer message
/// it mallocs an 8-byte buffer, writes a sample, transfers ownership to
/// `consumer_dom` via `change_own`, publishes the pointer in its state and
/// posts the consumer.
pub fn producer(dom: u8, consumer_dom: u8) -> ModuleSource {
    ModuleSource {
        name: "producer",
        domain: DomainId::num(dom),
        entries: vec!["producer_handler"],
        build: Box::new(move |a, ctx| {
            let state = ctx.state_addr; // [0..2] published ptr, [2] seq
            let own = ctx.domain.index();
            let done = a.label("producer_done");
            a.here("producer_handler");
            a.cpi(R24, MSG_INIT);
            a.breq(done);
            // buf = malloc(8, self)
            a.ldi(R24, 8);
            a.ldi(R22, own);
            ctx.call_kernel(a, JtEntry::Malloc);
            a.sts(state, R24);
            a.sts(state + 1, R25);
            // *buf = ++seq
            a.lds(R18, state + 2);
            a.inc(R18);
            a.sts(state + 2, R18);
            a.mov(R26, R24);
            a.mov(R27, R25);
            a.st(avr_core::isa::Ptr::X, PtrMode::Plain, R18);
            // change_own(buf, consumer); post(consumer, TIMER)
            a.lds(R24, state);
            a.lds(R25, state + 1);
            a.ldi(R22, consumer_dom);
            ctx.call_kernel(a, JtEntry::ChangeOwn);
            a.ldi(R24, consumer_dom);
            a.ldi(R22, crate::kernel::MSG_TIMER);
            ctx.call_kernel(a, JtEntry::Post);
            a.bind(done);
            a.ret();
        }),
    }
}

/// Consumer half of the pipeline: reads the published pointer from the
/// producer's state, accumulates the sample, and frees the buffer it now
/// owns.
pub fn consumer(dom: u8, producer_dom: u8) -> ModuleSource {
    ModuleSource {
        name: "consumer",
        domain: DomainId::num(dom),
        entries: vec!["consumer_handler"],
        build: Box::new(move |a, ctx| {
            let state = ctx.state_addr; // [0] acc, [1] count, [2] last free status
            let producer_state = ctx.layout.state_addr(producer_dom);
            let done = a.label("consumer_done");
            a.here("consumer_handler");
            a.cpi(R24, MSG_INIT);
            a.breq(done);
            a.lds(R26, producer_state);
            a.lds(R27, producer_state + 1);
            a.ld(R18, avr_core::isa::Ptr::X, PtrMode::Plain);
            a.lds(R19, state);
            a.add(R19, R18);
            a.sts(state, R19);
            a.lds(R19, state + 1);
            a.inc(R19);
            a.sts(state + 1, R19);
            // free(buf) — we own it after the handoff.
            a.lds(R24, producer_state);
            a.lds(R25, producer_state + 1);
            ctx.call_kernel(a, JtEntry::Free);
            a.sts(state + 2, R24);
            a.bind(done);
            a.ret();
        }),
    }
}
