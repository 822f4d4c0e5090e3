//! The measurement harness every workload drives.
//!
//! A run is a closed loop: one op starts when the previous one returns,
//! all on one thread of this process. Ops are grouped into *episodes*;
//! each episode sets its system up afresh from `seed + k`, runs a fixed
//! number of ops, then has its outputs checked. Episode 0 also times the
//! set-up, [`SETUPS`] times over, and always runs to completion, so its
//! deterministic counts and the default seed's pins exist on every run;
//! later episodes run while the op-time budget lasts and stop mid-episode
//! when it is spent.
//!
//! Host time on a shared machine drifts by tens of percent over minutes,
//! in ways no run length averages out. So ops are also grouped into
//! *chunks* of about [`CHUNK`] op time, and right before each chunk (and
//! each set-up) the harness times a fixed calibration kernel. A chunk's
//! times are scaled by the kernel's quiet reference time over its measured
//! time, which cancels slow-downs that hit the kernel and the workload
//! alike; a low order statistic over chunks then drops the chunks that a
//! burst of contention hit harder. Reported times therefore read in units
//! of a quiet reference host ([`CAL_REF_NS`]), and each run prints its raw
//! calibration time.
//!
//! With tracing on, even episodes are traced and odd ones are not, so one
//! run yields both the per-layer split and the tracing overhead.

use crate::host;
use crate::metrics::{result_json, Layers, Metric, END_TO_END, PER_LAYER};
use crate::pins;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The seed when `--seed` is not given; the pins hold for it.
pub const DEFAULT_SEED: u64 = 0x4852_4252;

/// Op time gathered into one chunk before the chunk closes.
const CHUNK: Duration = Duration::from_millis(250);

/// Iterations of the calibration kernel (about 3 ms).
const CAL_ITERS: u64 = 1 << 21;

/// The calibration kernel's time on the reference host (an Intel Xeon VM
/// with 2 vCPUs, Linux x86-64) when quiet.
const CAL_REF_NS: f64 = 3.0e6;

/// The order statistic over chunks that estimates a quiet host's cost.
const QUIET_QUANTILE: f64 = 0.1;

/// Timed set-ups per run (odd, so the median is one of them).
const SETUPS: usize = 11;

/// Episode 0's op index at which the memory-growth baseline is sampled
/// (past any warm-up allocation).
const RSS_MARK_OP: u64 = 100;

/// The fixed work of one episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Fleet node count (unused by fleet-less workloads).
    pub nodes: usize,
    /// Ops per episode, in the workload's own unit.
    pub ops: u64,
}

/// What a finished run prints.
pub struct Outcome {
    /// `workload metric value unit` lines, preceded by `#` context lines.
    pub lines: Vec<String>,
    /// The result object, printed last.
    pub json: String,
    /// Every correctness violation found (empty = correct).
    pub violations: Vec<String>,
}

/// The ops of one chunk: every latency, scaled to the reference host.
#[derive(Debug, Default)]
struct Chunk {
    scale: f64,
    time: Duration,
    lat_ns: Vec<u64>,
}

impl Chunk {
    /// Mean scaled op time.
    fn op_ns(&self) -> f64 {
        self.time.as_nanos() as f64 * self.scale / self.lat_ns.len() as f64
    }
}

/// One workload run in progress.
pub struct Run {
    /// Workload name, for messages and pins.
    pub workload: &'static str,
    /// Workload seed; episode `k` derives its inputs from `seed + k`.
    pub seed: u64,
    /// Ops failed and attempted, in the workload's unit.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Per-layer values (reported by traced runs).
    pub layers: Layers,
    trace: bool,
    check_pins: bool,
    budget: Duration,
    start: (Instant, Duration),
    episode: Option<u64>,
    episode_ops: u64,
    open: Option<Chunk>,
    /// Closed chunks, untraced and traced.
    chunks: [Vec<Chunk>; 2],
    /// Measured op time, untraced and traced.
    time: [Duration; 2],
    setups: Vec<u64>,
    cal_ns: Vec<u64>,
    rss_mark: Option<u64>,
    peak_rss_kb: u64,
    notes: Vec<String>,
    violations: Vec<String>,
}

impl Run {
    /// A run measuring for `seconds` of op time. `check_pins` compares the
    /// machine-identity digests against [`pins::PINS`] (only meaningful at
    /// full size on [`DEFAULT_SEED`]).
    pub fn new(
        workload: &'static str,
        seed: u64,
        seconds: f64,
        trace: bool,
        check_pins: bool,
    ) -> Run {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut run = Run {
            workload,
            seed,
            attempted: 0,
            failed: 0,
            layers: Layers::default(),
            trace,
            check_pins,
            budget: Duration::from_secs_f64(seconds),
            start: (Instant::now(), host::cpu_time()),
            episode: None,
            episode_ops: 0,
            open: None,
            chunks: Default::default(),
            time: [Duration::ZERO; 2],
            setups: Vec::new(),
            cal_ns: Vec::new(),
            rss_mark: None,
            peak_rss_kb: 0,
            notes: Vec::new(),
            violations: Vec::new(),
        };
        run.layers.set("host.nproc", nproc as f64);
        run.layers.set("host.loadavg_start", host::loadavg());
        run
    }

    fn measured(&self) -> Duration {
        self.time[0] + self.time[1]
    }

    /// Starts the next episode and returns its index, or `None` once the
    /// budget is spent (episode 0 always starts).
    pub fn next_episode(&mut self) -> Option<u64> {
        let k = self.episode.map_or(0, |k| k + 1);
        if k > 0 && self.measured() >= self.budget {
            return None;
        }
        self.episode = Some(k);
        self.episode_ops = 0;
        Some(k)
    }

    /// Whether the current episode runs with tracing on.
    pub fn traced(&self) -> bool {
        self.trace && self.episode.unwrap_or(0).is_multiple_of(2)
    }

    /// Whether the current episode must stop: the budget is spent and the
    /// episode is not episode 0.
    pub fn expired(&self) -> bool {
        self.episode.unwrap_or(0) > 0 && self.measured() >= self.budget
    }

    /// Times the calibration kernel and returns the factor that scales
    /// host time to the reference host.
    fn calibrate(&mut self) -> f64 {
        let t = Instant::now();
        kernel(CAL_ITERS);
        let ns = t.elapsed().as_nanos() as u64;
        self.cal_ns.push(ns);
        CAL_REF_NS / ns.max(1) as f64
    }

    /// Builds the episode's system. Episode 0 builds it [`SETUPS`] times
    /// in a row, timing each build as a `setup_s` sample and keeping the
    /// last; later episodes build once, untimed. Every sample thus starts
    /// from the same allocator state — the previous build just dropped —
    /// whereas memory a finished episode frees would make the next build
    /// several times cheaper.
    pub fn setup<T>(&mut self, f: impl Fn() -> T) -> T {
        if self.episode != Some(0) {
            return f();
        }
        let mut built = None;
        for _ in 0..SETUPS {
            drop(built.take());
            let scale = self.calibrate();
            let t = Instant::now();
            built = Some(f());
            self.setups.push((t.elapsed().as_nanos() as f64 * scale) as u64);
        }
        built.expect("at least one set-up")
    }

    /// Times one op.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.open.is_none() {
            let scale = self.calibrate();
            self.open = Some(Chunk { scale, ..Chunk::default() });
        }
        let t = Instant::now();
        let r = f();
        let took = t.elapsed();
        self.time[usize::from(self.traced())] += took;
        let chunk = self.open.as_mut().expect("chunk open");
        chunk.time += took;
        chunk.lat_ns.push((took.as_nanos() as f64 * chunk.scale) as u64);
        if chunk.time >= CHUNK {
            self.close_chunk();
        }
        self.episode_ops += 1;
        if self.episode == Some(0) && self.episode_ops == RSS_MARK_OP {
            self.rss_mark = Some(host::peak_rss_kb());
        }
        r
    }

    fn close_chunk(&mut self) {
        if let Some(mut chunk) = self.open.take() {
            chunk.lat_ns.sort_unstable();
            self.chunks[usize::from(self.traced())].push(chunk);
        }
    }

    /// Ends the episode's op loop; returns the ops it ran.
    pub fn end_ops(&mut self) -> u64 {
        self.close_chunk();
        if self.episode == Some(0) {
            // Memory is read after episode 0's fixed work, so it does not
            // grow with the number of episodes a faster commit fits in.
            let peak = host::peak_rss_kb();
            self.peak_rss_kb = peak;
            if let Some(mark) = self.rss_mark {
                let kops = (self.episode_ops - RSS_MARK_OP) as f64 / 1e3;
                let growth = peak.saturating_sub(mark) as f64;
                self.layers.set("mem.rss_growth_kb_per_kop", ratio(growth, kops));
            }
        }
        self.episode_ops
    }

    /// `ns` of traced-episode time as a share of the traced episodes'
    /// measured op time, in percent.
    pub fn traced_share(&self, ns: u64) -> f64 {
        ratio(ns as f64 * 100.0, self.time[1].as_nanos() as f64)
    }

    /// Op time over the whole run, both trace modes, scaled to the
    /// reference host.
    pub fn scaled_secs(&self) -> f64 {
        self.chunks.iter().flatten().map(|c| c.time.as_secs_f64() * c.scale).sum()
    }

    /// Records a correctness violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(format!("{}: {}", self.workload, what()));
        }
    }

    /// A `#` context line in the output.
    pub fn note(&mut self, line: String) {
        self.notes.push(format!("# {} {line}", self.workload));
    }

    /// Prints a machine-identity digest and, when pins are checked,
    /// compares it with the pinned value.
    pub fn pin(&mut self, what: &'static str, value: u64) {
        self.note(format!("pin {what} {value:#x}"));
        if self.check_pins {
            let pinned = pins::lookup(self.workload, what);
            self.check(pinned == Some(value), || match pinned {
                Some(p) => format!("{what} {value:#x} differs from the pinned {p:#x}"),
                None => format!("{what} {value:#x} has no pin"),
            });
        }
    }

    /// Computes the reported metrics and renders the output.
    pub fn finish(mut self) -> Outcome {
        let ops: usize = self.chunks.iter().flatten().map(|c| c.lat_ns.len()).sum();
        self.check(ops > 0 && self.attempted > 0, || "no op ran to a verdict".to_string());
        let untraced = counted(&self.chunks[0]);
        let values: Vec<(Metric, f64)> = if self.trace {
            let traced = counted(&self.chunks[1]);
            let (t, u) = (quiet_cost(&traced, Chunk::op_ns), quiet_cost(&untraced, Chunk::op_ns));
            let overhead = if t > 0 && u > 0 { (t as f64 / u as f64 - 1.0) * 100.0 } else { 0.0 };
            let cpu = host::cpu_time().saturating_sub(self.start.1).as_secs_f64();
            let util = ratio(cpu * 100.0, self.start.0.elapsed().as_secs_f64());
            let p99 = quiet_cost(&untraced, |c| percentile(&c.lat_ns, 0.99) as f64);
            self.layers.set("op_p99_us", p99 as f64 / 1e3);
            self.layers.set("trace.overhead_pct", overhead);
            self.layers.set("host.cpu_util_pct", util);
            self.layers.set("host.loadavg_end", host::loadavg());
            PER_LAYER.iter().map(|m| (*m, self.layers.get(m.name))).collect()
        } else {
            let e2e = [
                ratio(1e9, quiet_cost(&untraced, Chunk::op_ns) as f64),
                quiet_cost(&untraced, |c| percentile(&c.lat_ns, 0.5) as f64) as f64 / 1e3,
                self.peak_rss_kb as f64 / 1024.0,
                percentile_of(&self.setups, 0.5) as f64 / 1e9,
            ];
            END_TO_END.iter().copied().zip(e2e).collect()
        };
        let per_chunk: Vec<u64> = untraced.iter().map(|c| c.lat_ns.len() as u64).collect();
        let mut lines = std::mem::take(&mut self.notes);
        lines.push(format!(
            "# {} {} episodes, {ops} ops, {:.3} s measured, {} chunks, median {} ops per \
             untraced chunk, calibration p50 {:.3} ms",
            self.workload,
            self.episode.map_or(0, |k| k + 1),
            self.measured().as_secs_f64(),
            self.chunks.iter().map(Vec::len).sum::<usize>(),
            percentile_of(&per_chunk, 0.5),
            percentile_of(&self.cal_ns, 0.5) as f64 / 1e6,
        ));
        lines.extend(
            values.iter().map(|(m, v)| format!("{} {} {v} {}", self.workload, m.name, m.unit)),
        );
        let json = result_json(self.violations.is_empty(), self.attempted, self.failed, &values);
        Outcome { lines, json, violations: self.violations }
    }
}

/// The calibration kernel: a dependent chain of integer mixing, kept
/// opaque to the optimiser so its work cannot be folded away.
fn kernel(iters: u64) -> u64 {
    let mut x = black_box(0x1234_5678_9abc_def0u64);
    for i in 0..black_box(iters) {
        x = x.rotate_left(7) ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = x.wrapping_add(x >> 3);
    }
    black_box(x)
}

/// The chunks that count: episode tails shorter than a quarter of
/// [`CHUNK`] are too noisy, unless nothing longer ran.
fn counted(chunks: &[Chunk]) -> Vec<&Chunk> {
    let long: Vec<&Chunk> = chunks.iter().filter(|c| c.time >= CHUNK / 4).collect();
    if long.is_empty() {
        chunks.iter().collect()
    } else {
        long
    }
}

/// The [`QUIET_QUANTILE`] over chunks of a scaled per-op cost, in ns: the
/// cost on a quiet host, robust to the chunks a burst of contention slowed.
fn quiet_cost(chunks: &[&Chunk], cost: impl Fn(&Chunk) -> f64) -> u64 {
    let mut v: Vec<u64> = chunks.iter().map(|c| cost(c) as u64).collect();
    v.sort_unstable();
    percentile(&v, QUIET_QUANTILE)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`); 0 for
/// an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile of an unsorted slice (sorts a copy).
pub fn percentile_of(values: &[u64], q: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, q)
}
