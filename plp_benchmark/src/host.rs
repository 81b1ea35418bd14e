//! Provenance: what machine and what code produced a report. A number
//! without these cannot be compared with the next one.

use std::process::Command;

use serde_json::{json, Value};

/// Hardware threads available to this process (1 when unknown). Every
/// report that depends on threads carries this, and every workload caps its
/// thread counts by it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process in MB — the peak resident set, which is why
/// each workload runs in a process of its own.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then_some(())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Digest of this executable's bytes (`"unknown"` if it cannot be read): a
/// traced run only compares itself with an untraced report of the same
/// build, and the driver's checkouts carry no git commit to tell by.
pub fn binary_digest() -> String {
    let Some(bytes) = std::env::current_exe()
        .ok()
        .and_then(|path| std::fs::read(path).ok())
    else {
        return "unknown".to_string();
    };
    let mut d = crate::inputs::Digest::default();
    d.word(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        d.word(u64::from_le_bytes(word));
    }
    format!("{:016x}", d.value())
}

/// The host fingerprint every report carries. `git_commit` is `"none"`
/// outside a git checkout (the driver's checkouts are not repositories).
pub fn fingerprint() -> Value {
    json!({
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "rustc": first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        "git_commit": std::path::Path::new(".git")
            .exists()
            .then(|| first_line("git", &["rev-parse", "HEAD"]))
            .flatten()
            .unwrap_or_else(|| "none".to_string()),
        "binary": binary_digest(),
        "kernel_scheme_version": plp_core::checkpoint::KERNEL_SCHEME_VERSION,
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
    })
}
