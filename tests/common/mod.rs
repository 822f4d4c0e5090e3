//! Helpers shared by the root test suites.

/// The suite's seed: `HARBOR_SEED` if set, so a failing run replays with
/// `HARBOR_SEED=n cargo test`, and `default` otherwise.
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
