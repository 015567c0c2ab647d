//! Host-side clocks: process CPU time, wall time, hypervisor steal and
//! peak resident memory. Everything here is noisy by nature; the exact
//! counters live elsewhere.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU consumed by every thread of the
/// process, exited ones included, at nanosecond resolution. It counts
/// time on a CPU, so neither run-queue waits nor hypervisor steal enter.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU seconds so far.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` of the layout the
    // 64-bit Linux C library expects, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Steal seconds, summed over CPUs, since boot (`/proc/stat`, 8th field
/// of the `cpu` line, in 1/100 s). `None` where the file is missing.
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_steal_ticks(&stat).map(|t| t as f64 / 100.0)
}

fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set (`VmHWM`) in MB. `None` where `/proc` is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 * 1024.0 / 1e6)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One instant on the wall and CPU clocks. (Steal is read apart from
/// these: it costs a file read, which allocates.)
#[derive(Clone, Copy)]
pub struct Stamp {
    pub wall: Instant,
    pub cpu: f64,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    pub fn cpu_since(&self, earlier: &Stamp) -> f64 {
        self.cpu - earlier.cpu
    }

    pub fn wall_since(&self, earlier: &Stamp) -> f64 {
        self.wall.duration_since(earlier.wall).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_formats() {
        let stat = "cpu  10 20 30 40 50 60 70 8123 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(8123));
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t   20480 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_steal_ticks("nothing"), None);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > a);
    }
}
