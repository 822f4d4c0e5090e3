//! Minimal shared flag parsing for the `harbor-*` viewer binaries.
//!
//! Every viewer in this workspace takes the same shape of command line —
//! boolean flags (`--json`), a few valued flags (`--trace <id>`,
//! `--nodes N`), and free arguments (dump files). This module is the one
//! parser, included per-binary with `mod cli;` (or `#[path] mod cli;`
//! from crates that cannot depend on `harbor-fleet`), deliberately not a
//! library export: it is CLI plumbing, not API. The viewers only render;
//! the invariants of their scenarios are `cargo test`'s.

// Included by several binaries, none of which uses every helper.
#![allow(dead_code)]

/// The run's master seed: `HARBOR_SEED` if set (so a run replays with
/// `HARBOR_SEED=n`), `default` otherwise.
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

/// The flags one viewer takes, and the usage line it prints for any
/// other. A flag the viewer does not know is an error, so a command line
/// written for a mode the viewer no longer has (a removed `--check`, say)
/// fails instead of silently running the demo.
pub struct Spec {
    /// Printed, after the problem, when a command line is refused.
    pub usage: &'static str,
    /// Boolean flags, e.g. `"--json"`.
    pub flags: &'static [&'static str],
    /// Flags followed by one operand, e.g. `"--trace"`.
    pub valued: &'static [&'static str],
}

impl Spec {
    /// Parses the process's command line. A refused one (see
    /// [`Spec::check`]) prints the problem and the usage line to stderr
    /// and exits with status 2.
    pub fn parse(&self) -> Cli {
        self.check(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
            eprintln!("{e}\n{}", self.usage);
            std::process::exit(2)
        })
    }

    /// Checks `args`, the arguments after the program name: every
    /// argument that starts with `-` must be one of the spec's flags, and
    /// every valued flag needs its operand, which is taken as given even
    /// if it starts with `-`.
    ///
    /// # Errors
    ///
    /// Names the first argument that breaks the rule.
    pub fn check(&self, args: Vec<String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut rest = args.into_iter();
        while let Some(a) = rest.next() {
            if self.valued.contains(&a.as_str()) {
                let Some(operand) = rest.next() else {
                    return Err(format!("{a} needs an operand"));
                };
                cli.values.push((a, operand));
            } else if self.flags.contains(&a.as_str()) {
                cli.flags.push(a);
            } else if a.starts_with('-') {
                return Err(format!("unknown flag {a}"));
            } else {
                cli.free.push(a);
            }
        }
        Ok(cli)
    }
}

/// A checked command line, split into flags, valued flags with their
/// operands, and free arguments.
#[derive(Default)]
pub struct Cli {
    flags: Vec<String>,
    values: Vec<(String, String)>,
    free: Vec<String>,
}

impl Cli {
    /// Whether boolean flag `name` (e.g. `"--json"`) is present.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The operand of valued flag `name` (e.g. `--trace <id>`), if the
    /// flag is present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(f, _)| f == name).map(|(_, v)| v.as_str())
    }

    /// Free (non-flag) arguments, in order.
    pub fn free(&self) -> Vec<&str> {
        self.free.iter().map(String::as_str).collect()
    }
}

/// Asserts that `spec` takes each `documented` command line (the ones its
/// docs show) and refuses a removed check mode's flags (`--check`, `-D`),
/// a misspelt flag and every valued flag without its operand.
#[cfg(test)]
pub fn assert_takes_only(spec: &Spec, documented: &[&[&str]]) {
    let args = |line: &[&str]| line.iter().map(|a| a.to_string()).collect::<Vec<_>>();
    for line in documented {
        if let Err(e) = spec.check(args(line)) {
            panic!("{line:?} refused: {e}");
        }
    }
    for line in [&["--check"][..], &["-D"], &["--json", "--jsno"]] {
        assert!(spec.check(args(line)).is_err(), "{line:?} accepted");
    }
    for flag in spec.valued {
        assert!(spec.check(args(&[flag])).is_err(), "{flag} accepted without an operand");
    }
}
