//! Minimal shared flag parsing for the `harbor-*` binaries.
//!
//! Every CLI in this workspace takes the same shape of command line —
//! boolean flags (`--check`, `--json`), a few valued flags
//! (`--trace <id>`), and free arguments (dump files) — and each binary
//! used to hand-roll its own `args.iter().any(...)` scan. This module is
//! the one copy, included per-binary with `mod cli;` (or
//! `#[path] mod cli;` from crates that cannot depend on `harbor-fleet`),
//! deliberately not a library export: it is CLI plumbing, not API.

// Included by several binaries, none of which uses every helper.
#![allow(dead_code)]

/// The run's master seed: `HARBOR_SEED` if set (so a failing gate replays
/// with `HARBOR_SEED=n`), `default` otherwise.
///
/// # Panics
///
/// Panics if `HARBOR_SEED` is set but is not a `u64`.
pub fn seed(default: u64) -> u64 {
    match std::env::var("HARBOR_SEED") {
        Ok(v) => v.parse().expect("HARBOR_SEED must be a u64"),
        Err(_) => default,
    }
}

/// Parsed command line: the arguments after the program name.
pub struct Cli {
    args: Vec<String>,
}

impl Cli {
    /// Parses the process's command line.
    pub fn parse() -> Cli {
        Cli { args: std::env::args().skip(1).collect() }
    }

    /// Whether boolean flag `name` (e.g. `"--json"`) is present.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The operand of valued flag `name` (e.g. `--trace <id>`), if the
    /// flag is present and has one.
    pub fn value(&self, name: &str) -> Option<&str> {
        let pos = self.args.iter().position(|a| a == name)?;
        self.args.get(pos + 1).map(String::as_str)
    }

    /// Whether valued flag `name` is present but missing its operand.
    pub fn value_missing(&self, name: &str) -> bool {
        self.flag(name) && self.value(name).is_none()
    }

    /// Free (non-flag) arguments, skipping the operands of the listed
    /// valued flags.
    pub fn free(&self, valued: &[&str]) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip = false;
        for a in &self.args {
            if skip {
                skip = false;
                continue;
            }
            if valued.contains(&a.as_str()) {
                skip = true;
                continue;
            }
            if !a.starts_with("--") {
                out.push(a.as_str());
            }
        }
        out
    }
}
