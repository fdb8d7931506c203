//! Machine context recorded beside every run, so a run taken while a
//! shared host was contended is visible next to its numbers.

/// CPU and load figures read at the start of a run.
#[derive(Debug, Clone, Copy)]
pub struct HostStart {
    /// Available parallelism.
    nproc: usize,
    /// 1-minute load average at start (`-1` when unreadable).
    load1: f64,
    steal: u64,
    iowait: u64,
}

impl HostStart {
    /// Reads the context now.
    pub fn read() -> HostStart {
        let (iowait, steal) = stat_jiffies().unwrap_or((0, 0));
        HostStart {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            load1: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
                .unwrap_or(-1.0),
            steal,
            iowait,
        }
    }

    /// One line: `nproc`, load at start, and the steal and iowait
    /// jiffies (all CPUs) that accrued since [`HostStart::read`].
    pub fn describe(&self) -> String {
        let (iowait, steal) = stat_jiffies().unwrap_or((self.iowait, self.steal));
        format!(
            "host: nproc={} load1_at_start={:.2} steal_jiffies={} iowait_jiffies={}",
            self.nproc,
            self.load1,
            steal.saturating_sub(self.steal),
            iowait.saturating_sub(self.iowait)
        )
    }
}

/// `(iowait, steal)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn stat_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some((*f.get(4)?, *f.get(7)?))
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux CPU clocks and /proc: build it on 64-bit Linux");

/// A CPU-time clock: the time one thread has run, leaving out intervals
/// in which the host ran something else (another process, or a steal by
/// the hypervisor). On a shared machine those intervals are most of the
/// noise, so every operation is timed with these clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuClock(i32);

impl CpuClock {
    /// The calling thread's clock (`CLOCK_THREAD_CPUTIME_ID`).
    pub const THIS_THREAD: CpuClock = CpuClock(3);

    /// The clock of another thread of this process, by kernel thread id:
    /// the clock id `pthread_getcpuclockid` would return for it
    /// (`MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)`).
    pub fn of_thread(tid: i32) -> CpuClock {
        CpuClock((!tid << 3) | 6)
    }

    /// Microseconds this clock's thread has run.
    pub fn us(self) -> f64 {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux). `clock_gettime` only writes into it,
        // and reports an unknown or dead thread's clock as an error.
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        assert_eq!(
            rc, 0,
            "clock_gettime({}) failed: the thread is gone",
            self.0
        );
        ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
    }
}

/// CPU time the calling thread has run, µs.
pub fn thread_cpu_us() -> f64 {
    CpuClock::THIS_THREAD.us()
}

/// Kernel thread ids of this process's threads other than the main one.
pub fn other_threads() -> Vec<i32> {
    let main = std::process::id() as i32;
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .filter(|&tid| tid != main)
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() -> u64 {
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        x
    }

    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let t0 = thread_cpu_us();
        let x = spin();
        assert!(thread_cpu_us() > t0, "{x}");
    }

    #[test]
    fn another_threads_clock_is_readable_by_id() {
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            spin();
            tx.send(()).expect("main thread waits");
            done_rx.recv().expect("main thread signals");
        });
        rx.recv().expect("worker spun");
        // The worker has spun for a while: its clock reads more than the
        // few microseconds a bare spawn costs.
        let spun = other_threads()
            .into_iter()
            .map(|t| CpuClock::of_thread(t).us())
            .fold(0.0, f64::max);
        assert!(spun > 100.0, "{spun}");
        done_tx.send(()).expect("worker waits");
        worker.join().expect("worker exits");
    }
}
