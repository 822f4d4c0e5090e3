//! Machine-identity pins: episode 0's digests at full size on the default
//! seed. Host time moves from commit to commit; these must not, unless a
//! change alters the modelled machines or the workloads on purpose.
//! Traced and untraced runs check the same pins, so tracing is shown to be
//! observational.

/// `(workload, digest name, value)`. `telemetry` is the FNV-1a of
/// `FleetTelemetry::comparable_json`, `helm_log_*` of each rollout's
/// `Helm::log_json`, `outcomes` of the admission outcome sequence.
pub const PINS: &[(&str, &str, u64)] = &[
    ("busy_fleet", "telemetry", 0x7eb2_a3d1_c85c_bc06),
    ("busy_fleet", "instructions", 334_496_256),
    ("busy_fleet", "cycles", 616_139_264),
    ("ota_soak", "telemetry", 0x82d9_081d_96b9_63cd),
    ("ota_soak", "instructions", 25_314_304),
    ("ota_soak", "cycles", 48_683_008),
    ("helm_canary", "telemetry", 0xee3d_7c37_9813_bff7),
    ("helm_canary", "instructions", 5_500_898),
    ("helm_canary", "cycles", 10_839_108),
    ("helm_canary", "helm_log_healthy", 0xbbd9_f7c7_5be8_82a3),
    ("helm_canary", "helm_log_crashloop", 0x61d6_53cf_645c_4f12),
    ("admit_verify", "outcomes", 0xfce8_63ce_351b_5d26),
];

/// The pinned value of `what` for `workload`, if any.
pub fn lookup(workload: &str, what: &str) -> Option<u64> {
    PINS.iter().find(|(w, n, _)| *w == workload && *n == what).map(|p| p.2)
}
