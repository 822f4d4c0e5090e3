//! The engine is chosen in code, never by the process environment: with the
//! variables that once switched it set, a freshly built system and a fleet
//! from the default config still run the reference interpreter. The test has
//! a file (and so a process) of its own because it sets variables.

use harbor_fleet::{Fleet, FleetConfig};
use mini_sos::{modules, Protection, SosSystem};

#[test]
fn the_environment_cannot_pick_the_engine() {
    std::env::set_var("HARBOR_TURBO", "1");
    std::env::set_var("HARBOR_PROVE", "1");

    let sys = SosSystem::build(Protection::Umpu, &[modules::blink(0)], |a, api| {
        api.run_scheduler(a);
        a.brk();
    })
    .expect("system builds");
    assert!(!sys.turbo_enabled(), "a fresh system runs without turbo");
    assert!(!sys.prove_enabled(), "a fresh system runs without prove");

    let fleet = Fleet::new(&FleetConfig::default(), &[modules::blink(0)]).expect("fleet builds");
    for i in 0..fleet.len() {
        let sys = &fleet.node(i).sys;
        assert!(!sys.turbo_enabled(), "node {i} runs without turbo");
        assert!(!sys.prove_enabled(), "node {i} runs without prove");
    }
}
