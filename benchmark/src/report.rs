//! Result lines: provenance stamps, metric lines and the final summary.

use clanbft_crypto::Digest;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Where a result came from.
pub struct Provenance {
    /// Git revision of the checkout (`none` outside a git work tree).
    pub rev: String,
    /// Digest of the sources built (identifies checkouts without git).
    pub src: String,
    /// Logical CPUs of the host.
    pub nproc: usize,
    /// CPU model of the host.
    pub cpu: String,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
}

fn read(path: &Path) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Resolves `HEAD` by reading `.git` directly (no `git` process).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = read(&git.join("HEAD"))?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Some(rev) = read(&git.join(name)) {
        return Some(rev.trim().to_string());
    }
    read(&git.join("packed-refs"))?
        .lines()
        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            files_under(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// SHA-256 over the workspace sources and this benchmark's sources, in
/// path order; the first 16 hex digits.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "benchmark/src"] {
        files_under(&root.join(dir), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock", "benchmark/Cargo.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            all.extend_from_slice(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            all.push(0);
            all.extend_from_slice(&bytes);
        }
    }
    Digest::of(&all).to_hex()[..16].to_string()
}

fn cpu_model() -> String {
    read(Path::new("/proc/cpuinfo"))
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Provenance {
    /// Collects the stamp for a run started from the checkout root `root`.
    pub fn collect(root: &Path, workload: &str, seed: u64, traced: bool) -> Provenance {
        Provenance {
            rev: git_rev(root).unwrap_or_else(|| "none".to_string()),
            src: source_digest(root),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            workload: workload.to_string(),
            seed,
            traced,
        }
    }

    fn fields(&self) -> String {
        format!(
            "\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"rev\":\"{}\",\"src\":\"{}\",\"nproc\":{},\"cpu\":\"{}\"",
            self.workload,
            self.seed,
            self.traced,
            escape(&self.rev),
            self.src,
            self.nproc,
            escape(&self.cpu)
        )
    }

    /// One stamped metric line.
    pub fn metric_line(&self, name: &str, value: f64, unit: &str) -> String {
        format!(
            "{{\"metric\":\"{name}\",\"value\":{},\"unit\":\"{unit}\",{}}}",
            number(value),
            self.fields()
        )
    }

    /// One stamped free-form note (sample counts, failures, load shape).
    pub fn note_line(&self, key: &str, text: &str) -> String {
        format!("{{\"{key}\":\"{}\",{}}}", escape(text), self.fields())
    }
}

/// JSON string escaping for the few characters that can occur here.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The final line: `correct`, `attempted`, `failed` and the metrics.
pub fn summary_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// The process's peak resident set in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = read(Path::new("/proc/self/status"))?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
