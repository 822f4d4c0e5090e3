//! Process-level host measurements through the C library std already
//! links: CPU time and peak resident set from `getrusage`, and the load
//! average from `getloadavg`. The `struct rusage` layout is Linux's.

use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    // ru_ixrss .. ru_nivcsw, unused here.
    _rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn getloadavg(loadavg: *mut f64, nelem: c_int) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

fn rusage() -> Rusage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with Linux's layout,
    // and RUSAGE_SELF is a valid `who`, so the call writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru
}

fn duration(t: &Timeval) -> Duration {
    Duration::from_secs(t.tv_sec as u64) + Duration::from_micros(t.tv_usec as u64)
}

/// User plus system CPU time of this process, every thread included.
pub fn cpu_time() -> Duration {
    let ru = rusage();
    duration(&ru.ru_utime) + duration(&ru.ru_stime)
}

/// Peak resident set of this process so far, in KiB.
pub fn peak_rss_kb() -> u64 {
    rusage().ru_maxrss as u64
}

/// The one-minute load average, or 0 where the host does not report one.
pub fn loadavg() -> f64 {
    let mut avg = 0.0f64;
    // SAFETY: `avg` is a live, writable f64 and at most one sample is
    // requested, so the call writes only inside it.
    let n = unsafe { getloadavg(&mut avg, 1) };
    if n == 1 {
        avg
    } else {
        0.0
    }
}
