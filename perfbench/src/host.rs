//! Process resource readings: CPU time, peak resident set and context
//! switches from `getrusage`, the thread count from `/proc/self/status`.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// One `getrusage(RUSAGE_SELF)` reading.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Involuntary context switches.
    pub nivcsw: i64,
}

/// Read this process's resource usage.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` for 64-bit Linux
    // (the layout above), and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
        // ru_maxrss is in KiB on Linux.
        peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
        nivcsw: ru.ru_nivcsw,
    }
}

/// Threads in this process, from `/proc/self/status`.
pub fn threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}
