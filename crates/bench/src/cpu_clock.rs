//! Per-thread CPU time for host-speed comparisons.
//!
//! Wall clock on a shared machine counts every interval in which the
//! host ran something else (another process, or a steal by the
//! hypervisor), and two configurations timed back to back catch
//! different amounts of it. A thread's CPU clock leaves those intervals
//! out, so overhead guards time each run with it.

/// Seconds of CPU time the calling thread has run
/// (`CLOCK_THREAD_CPUTIME_ID`). Only differences between two readings
/// on one thread are meaningful.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_secs() -> f64 {
    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    const THREAD_CPUTIME: i32 = 3;
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and `clock_gettime` only writes into it.
    let rc = unsafe { clock_gettime(THREAD_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Seconds since the first call: elsewhere the thread CPU clock is not
/// read, and wall clock stands in for it.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_secs() -> f64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START.get_or_init(std::time::Instant::now).elapsed().as_secs_f64()
}

/// Runs `f`, returning its result and the calling thread's CPU seconds
/// it took.
pub fn time_cpu<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = thread_cpu_secs();
    let r = f();
    (r, thread_cpu_secs() - t0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let n = std::hint::black_box(2_000_000u64);
        let (sum, secs) = time_cpu(|| (0..n).fold(0u64, |a, x| a ^ x.wrapping_mul(x)));
        assert!(secs > 0.0, "{sum}");
    }
}
