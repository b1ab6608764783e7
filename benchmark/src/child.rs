//! Child processes with their resource usage: `wait4` gives the CPU
//! time and peak RSS of exactly one child (and the descendants it waited
//! for), which `std::process` does not expose.

use std::process::{Child, Command};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark harness reads Linux LP64 `struct rusage` and /proc");

/// `struct rusage` on Linux LP64: two `timeval`s, then fourteen longs of
/// which only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

impl Rusage {
    fn cpu_s(&self) -> f64 {
        (self.utime[0] + self.stime[0]) as f64 + (self.utime[1] + self.stime[1]) as f64 * 1e-6
    }
}

/// What one finished child cost.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// Spawn to exit, host seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of the child and its waited-for
    /// descendants.
    pub cpu_s: f64,
    /// Largest resident set among them, MiB.
    pub peak_rss_mb: f64,
    /// Exit code; `None` when a signal ended the child.
    pub exit_code: Option<i32>,
}

/// A spawned child and its start time.
pub struct Running {
    pub child: Child,
    start: Instant,
}

pub fn spawn(cmd: &mut Command) -> std::io::Result<Running> {
    let start = Instant::now();
    Ok(Running {
        child: cmd.spawn()?,
        start,
    })
}

impl Running {
    /// Block until the child exits and collect its usage. The child is
    /// reaped here, so the `Child` handle must not be waited on again
    /// (dropping it is fine: `std` neither waits nor kills on drop).
    pub fn wait(self) -> std::io::Result<Usage> {
        let mut status = 0i32;
        let mut ru = Rusage::default();
        // SAFETY: `status` and `ru` are live, writable and of the sizes
        // wait4(2) expects on Linux LP64 (checked by the cfg above); the
        // pid is a child of this process that nobody else waits for.
        let got = unsafe { wait4(self.child.id() as i32, &mut status, 0, &mut ru) };
        if got < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let exited = status & 0x7f == 0;
        Ok(Usage {
            wall_s: self.start.elapsed().as_secs_f64(),
            cpu_s: ru.cpu_s(),
            peak_rss_mb: ru.maxrss as f64 / 1024.0,
            exit_code: exited.then_some((status >> 8) & 0xff),
        })
    }
}

/// User + system CPU seconds this process (all threads) has used.
pub fn self_cpu_s() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage`; 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    ru.cpu_s()
}

/// Current resident set of this process in MiB (`VmRSS`).
pub fn self_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
