//! Host facts recorded with every result, the process's peak memory,
//! and the environment scrub that keeps runs hermetic.

use std::path::Path;
use std::process::Command;

/// Environment-variable prefixes that change what the program under
/// test does (engine, width adaptation, tracing, pool size, persistent
/// cache). The benchmark removes any it inherits before the first
/// `Device` exists.
pub const SCRUBBED_PREFIXES: [&str; 5] =
    ["DPVK_ENGINE", "DPVK_ADAPT", "DPVK_TRACE", "DPVK_POOL_WORKERS", "DPVK_CACHE"];

/// Remove every inherited variable named by [`SCRUBBED_PREFIXES`];
/// returns the names removed. Must run before any other thread starts.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| SCRUBBED_PREFIXES.iter().any(|p| k.starts_with(p)))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Host parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving the directory; `unknown` outside a git checkout.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None => head,
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
