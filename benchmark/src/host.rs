//! The host and noise record printed with every run: what the numbers
//! were measured on, and how busy the box was around them.

use std::path::Path;
use std::process::Command;

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// 1-minute load average, or `NaN` where `/proc/loadavg` is unreadable.
pub fn load_1min() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// `nproc`, CPU model, `rustc -V` and the git commit, one line.
pub fn describe(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown cpu".to_string());
    let rustc = first_line_of(Command::new("rustc").arg("-V")).unwrap_or_else(|| "rustc ?".into());
    let commit = first_line_of(
        Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .current_dir(root),
    )
    .unwrap_or_else(|| "no git commit".into());
    format!("{nproc} cpus | {cpu} | {rustc} | {commit}")
}
