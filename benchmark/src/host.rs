//! What the benchmark reads from the host: the fingerprint stamped on
//! every result file, and the process's own CPU time and peak memory.

use std::fs;
use std::process::Command;
use std::time::Duration;

use crate::json::Json;

/// The machine and toolchain a number came from. A rate is never read
/// without the core count of the host that produced it.
pub fn fingerprint() -> Json {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(tool_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// First line of a tool's stdout, or "unknown" (no such tool, or — for
/// git — a checkout that is not a repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// User + system CPU time of the whole process — every thread, live or
/// already joined — from `/proc/self/stat` (clock ticks of 10 ms).
pub fn process_cpu() -> Duration {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks: u64 = fields
        .by_ref()
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    // USER_HZ is 100 on every Linux ABI.
    Duration::from_millis(ticks * 10)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
