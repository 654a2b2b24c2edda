//! The host block recorded with every result, and process CPU time.

use std::time::Duration;

/// What a result depends on beyond the code: core count, ISA, build.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub cores: usize,
    pub avx2: bool,
    pub fma: bool,
    pub avx512f: bool,
    pub profile: &'static str,
    pub rustc: &'static str,
}

impl Host {
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        let (avx2, fma, avx512f) = (
            is_x86_feature_detected!("avx2"),
            is_x86_feature_detected!("fma"),
            is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, fma, avx512f) = (false, false, false);
        Host {
            cores: cores(),
            avx2,
            fma,
            avx512f,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: env!("STEPBENCH_RUSTC"),
        }
    }

    /// Compact shape string; two results are comparable only when their
    /// shapes are equal.
    pub fn shape(&self) -> String {
        format!(
            "cores={} avx2={} fma={} avx512f={} profile={} rustc={}",
            self.cores, self.avx2, self.fma, self.avx512f, self.profile, self.rustc
        )
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Process CPU time (user + system, all threads, including exited ones),
/// read from the kernel's per-process CPU clock at nanosecond resolution;
/// `None` where that clock is unavailable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.sec as u64, ts.nsec as u32))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu() -> Option<Duration> {
    None
}

/// Ticks the hypervisor stole from this machine's CPUs and all ticks,
/// from the `cpu` line of `/proc/stat`; `None` where unavailable.
pub fn steal_ticks() -> Option<(u64, u64)> {
    parse_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// `(steal, total)` from a `/proc/stat` text.
pub fn parse_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_steal_from_proc_stat() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 18 0 0\n";
        assert_eq!(parse_steal(stat), Some((35, 1000)));
        assert_eq!(parse_steal("intr 1 2 3"), None);
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let a = process_cpu().expect("process CPU clock");
        let mut x = 0u64;
        while process_cpu().unwrap() < a + Duration::from_millis(5) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }

    #[test]
    fn host_shape_names_every_field() {
        let h = Host::detect();
        let s = h.shape();
        assert!(h.cores >= 1);
        for key in ["cores=", "avx2=", "fma=", "avx512f=", "profile=", "rustc="] {
            assert!(s.contains(key), "{s}");
        }
    }
}
