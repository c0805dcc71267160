//! Process resource usage through `getrusage(2)`: CPU time of every
//! thread of the process (client and server share it) and its peak
//! resident set.

use std::time::Duration;

/// `struct rusage` of Linux: two `timeval`s, then fourteen `long`s of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn usage() -> Rusage {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for the
    // duration of the call.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

fn timeval(tv: [i64; 2]) -> Duration {
    Duration::from_secs(tv[0] as u64) + Duration::from_micros(tv[1] as u64)
}

/// User plus system CPU time the process has used so far.
pub fn cpu_time() -> Duration {
    let usage = usage();
    timeval(usage.utime) + timeval(usage.stime)
}

/// Peak resident set of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    usage().maxrss as f64 / 1024.0
}
