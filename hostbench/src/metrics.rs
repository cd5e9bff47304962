//! Metric formulas and the process counters they read.

/// Fig. 12 emulation error: |measured − target| ÷ target × 100.
pub fn emu_error_pct(measured_ns: f64, target_ns: f64) -> f64 {
    (measured_ns - target_ns).abs() / target_ns * 100.0
}

/// Kernel share of process CPU: stime ÷ (utime + stime); 0 without CPU.
pub fn sys_share(user_ticks: u64, sys_ticks: u64) -> f64 {
    let total = user_ticks + sys_ticks;
    if total == 0 {
        0.0
    } else {
        sys_ticks as f64 / total as f64
    }
}

/// Share of wall time the process had no thread on a core:
/// 1 − process CPU ÷ wall, floored at 0 (several threads can be on CPU at
/// once, though the engine keeps one runnable at a time).
pub fn idle_share(process_cpu_ns: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        (1.0 - process_cpu_ns as f64 / wall_ns as f64).max(0.0)
    }
}

/// Process CPU not spent inside request spans, per offered request. The
/// request share is the sampled mean span times the requests executed.
pub fn dispatch_ns_per_req(
    process_cpu_ns: u64,
    mean_request_ns: f64,
    executed: u64,
    offered: u64,
) -> f64 {
    if offered == 0 {
        return 0.0;
    }
    let inside = mean_request_ns * executed as f64;
    (process_cpu_ns as f64 - inside).max(0.0) / offered as f64
}

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Process CPU counters at one instant, or their change over a region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cpu {
    /// Process on-CPU ns.
    pub process_ns: u64,
    /// User clock ticks.
    pub user_ticks: u64,
    /// System clock ticks.
    pub sys_ticks: u64,
}

impl Cpu {
    /// The counters now.
    pub fn now() -> Cpu {
        let (user_ticks, sys_ticks) = cpu_ticks();
        Cpu {
            process_ns: process_cpu_ns(),
            user_ticks,
            sys_ticks,
        }
    }

    /// The change from `earlier` to `self`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            process_ns: self.process_ns.saturating_sub(earlier.process_ns),
            user_ticks: self.user_ticks.saturating_sub(earlier.user_ticks),
            sys_ticks: self.sys_ticks.saturating_sub(earlier.sys_ticks),
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: Cpu) -> Cpu {
        Cpu {
            process_ns: self.process_ns + other.process_ns,
            user_ticks: self.user_ticks + other.user_ticks,
            sys_ticks: self.sys_ticks + other.sys_ticks,
        }
    }
}

/// User and system CPU of this process in clock ticks (`/proc/self/stat`
/// fields 14 and 15).
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; fields restart after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so field n sits at index n - 3.
    let field = |n: usize| fields[n - 3].parse::<u64>().expect("numeric stat field");
    (field(14), field(15))
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn read_clock(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and `clock` is a clock id the kernel
    // defines; clock_gettime writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// On-CPU ns of the calling host thread (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_ns() -> u64 {
    read_clock(3)
}

/// On-CPU ns of the whole process (`CLOCK_PROCESS_CPUTIME_ID`).
fn process_cpu_ns() -> u64 {
    read_clock(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emu_error_is_symmetric_relative_distance() {
        assert!((emu_error_pct(170.69, 169.0) - 1.0).abs() < 1e-9);
        assert!((emu_error_pct(167.31, 169.0) - 1.0).abs() < 1e-9);
        assert_eq!(emu_error_pct(169.0, 169.0), 0.0);
    }

    #[test]
    fn sys_share_is_kernel_over_total() {
        assert_eq!(sys_share(85, 15), 0.15);
        assert_eq!(sys_share(0, 0), 0.0);
        assert_eq!(sys_share(0, 7), 1.0);
    }

    #[test]
    fn idle_share_is_wall_not_on_cpu() {
        assert!((idle_share(1_320, 1_900) - (1.0 - 1_320.0 / 1_900.0)).abs() < 1e-12);
        assert_eq!(idle_share(2_000, 1_000), 0.0);
        assert_eq!(idle_share(5, 0), 0.0);
    }

    #[test]
    fn dispatch_subtracts_estimated_request_cpu() {
        // 1 s of CPU, 100 k executed requests at 4 µs each inside spans,
        // 98 k offered: (1e9 - 4e8) / 98e3 ns per offered request.
        let d = dispatch_ns_per_req(1_000_000_000, 4_000.0, 100_000, 98_000);
        assert!((d - 6e8 / 98e3).abs() < 1e-6);
        assert_eq!(dispatch_ns_per_req(10, 100.0, 1, 1), 0.0);
        assert_eq!(dispatch_ns_per_req(10, 1.0, 1, 0), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        let (user, sys) = cpu_ticks();
        assert!(user + sys < u64::MAX / 2);
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_ns() > 0);
        assert!(thread_cpu_ns() > 0);
    }
}
