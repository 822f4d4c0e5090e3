//! Timer-interrupt tests: the hardware timer drives the blink module
//! through the ISR → message queue → scheduler pipeline, under all three
//! protection builds. Under UMPU, an interrupt that preempts a *user*
//! domain is a hardware domain switch: the handler runs trusted and `RETI`
//! restores the interrupted domain and stack bound exactly.

use avr_core::isa::Reg;
use harbor::DomainId;
use mini_sos::{modules, ModuleSource, Protection, SosSystem, ENGINES};

/// Driver app: enable interrupts and pump the scheduler until blink has
/// counted `target` ticks, then break.
fn pump_until(target: u8) -> impl FnOnce(&mut avr_asm::Asm, &mini_sos::KernelApi) {
    move |a, api| {
        let state = api.layout.state_addr(0);
        let idle = a.label("idle");
        a.sei();
        a.bind(idle);
        api.run_scheduler(a);
        a.lds(Reg::R16, state);
        a.cpi(Reg::R16, target);
        a.brlo(idle);
        a.cli();
        a.brk();
    }
}

#[test]
fn timer_interrupt_drives_blink_in_all_builds() {
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        for p in [Protection::None, Protection::Umpu, Protection::Sfi] {
            let mut sys = SosSystem::build(p, &[modules::blink(0)], pump_until(5)).unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.enable_timer(500, DomainId::num(0));
            sys.run_to_break(2_000_000).unwrap_or_else(|e| panic!("{p:?} {engine}: {e}"));
            let count = sys.sram(sys.layout.state_addr(0));
            assert!(count >= 5, "{p:?} {engine}: blink saw {count} ticks");
        }
    }
}

#[test]
fn interrupt_preempting_a_user_domain_restores_it_exactly() {
    // A module that runs a long busy loop; the timer preempts it mid-loop.
    // The loop's register state must survive the interrupt, and the
    // module's final store must still pass the protection checks (i.e. the
    // active domain and stack bound were restored by RETI).
    fn spinner(dom: u8) -> ModuleSource {
        ModuleSource {
            name: "spinner",
            domain: DomainId::num(dom),
            entries: vec!["spin_handler"],
            build: Box::new(|a, ctx| {
                let state = ctx.state_addr;
                let done = a.label("spin_done");
                let lp = a.label("spin_loop");
                a.here("spin_handler");
                a.cpi(Reg::R24, mini_sos::MSG_INIT);
                a.breq(done);
                // ~3000 cycles of spinning: several timer fires land here.
                a.ldi(Reg::R18, 0);
                a.ldi(Reg::R19, 0);
                a.bind(lp);
                a.inc(Reg::R18);
                a.brne(lp);
                a.inc(Reg::R19);
                a.cpi(Reg::R19, 4);
                a.brne(lp);
                // The registers must have survived every preemption.
                a.sts(state, Reg::R19); // = 4
                a.sts(state + 1, Reg::R18); // = 0
                a.bind(done);
                a.ret();
            }),
        }
    }

    for (turbo, prove) in ENGINES {
        for p in [Protection::Umpu, Protection::Sfi] {
            let on = format!("{p:?} turbo={turbo} prove={prove}");
            let mods = [modules::blink(0), spinner(2)];
            let mut sys = SosSystem::build(p, &mods, |a, api| {
                a.sei();
                api.run_scheduler(a);
                a.cli();
                a.brk();
            })
            .unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.enable_timer(700, DomainId::num(0));
            sys.post(DomainId::num(2), mini_sos::kernel::MSG_TIMER); // start the spinner
            sys.run_to_break(10_000_000).unwrap_or_else(|e| panic!("{on}: {e}"));

            let spin_state = sys.layout.state_addr(2);
            assert_eq!(sys.sram(spin_state), 4, "{on}: spinner finished its loop intact");
            assert_eq!(sys.sram(spin_state + 1), 0, "{on}: inner counter wrapped cleanly");
            let blink = sys.sram(sys.layout.state_addr(0));
            assert!(blink >= 3, "{on}: the timer really preempted (blink = {blink})");
        }
    }
}

#[test]
fn umpu_interrupt_frames_balance() {
    // After the workload, the UMPU safe stack must be empty and the
    // tracker back in the trusted domain — every interrupt frame popped.
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let mut sys =
            SosSystem::build(Protection::Umpu, &[modules::blink(0)], pump_until(8)).unwrap();
        sys.set_prove(prove);
        sys.set_turbo(turbo);
        sys.boot().unwrap();
        sys.enable_timer(300, DomainId::num(0));
        sys.run_to_break(5_000_000).unwrap();
        let env = sys.umpu_env().unwrap();
        assert_eq!(env.safe_stack.used_bytes(), 0, "{engine}: all frames popped");
        assert!(env.tracker.current.is_trusted(), "{engine}: back in the trusted domain");
    }
}

#[test]
fn tickless_sleep_duty_cycle_ordering() {
    // SLEEP between timer wakes: protection overhead shows up as a larger
    // duty cycle for the same workload, with None < UMPU < SFI.
    for (turbo, prove) in ENGINES {
        let engine = format!("turbo={turbo} prove={prove}");
        let mut duty = Vec::new();
        for p in [Protection::None, Protection::Umpu, Protection::Sfi] {
            let mut sys = SosSystem::build(p, &[modules::blink(0)], |a, api| {
                let state = api.layout.state_addr(0);
                let idle = a.label("idle");
                a.sei();
                a.bind(idle);
                a.sleep();
                api.run_scheduler(a);
                a.lds(Reg::R16, state);
                a.cpi(Reg::R16, 8);
                a.brlo(idle);
                a.cli();
                a.brk();
            })
            .unwrap();
            sys.set_prove(prove);
            sys.set_turbo(turbo);
            sys.boot().unwrap();
            sys.enable_timer(4000, DomainId::num(0));
            sys.run_to_break(50_000_000).unwrap_or_else(|e| panic!("{p:?} {engine}: {e}"));
            let total = sys.cycles();
            let active = total - sys.idle_cycles();
            duty.push((p, active as f64 / total as f64));
            assert!(sys.idle_cycles() > total / 2, "{p:?} {engine}: mostly asleep");
        }
        assert!(duty[0].1 < duty[1].1, "{engine}: UMPU duty > unprotected: {duty:?}");
        assert!(duty[1].1 < duty[2].1, "{engine}: SFI duty > UMPU: {duty:?}");
    }
}
