//! Shared helpers for the figure-reproduction benches.
//!
//! Every bench target in this crate regenerates one table or figure from the
//! paper's evaluation and prints the same rows/series the paper reports.
//! Run them with `cargo bench -p clanbft-bench` (all) or
//! `cargo bench -p clanbft-bench --bench fig5_throughput_latency` (one).
//!
//! Scale control: figure benches default to a reduced sweep that finishes in
//! minutes; set `CLANBFT_FULL=1` for the paper's full parameter grid.
//!
//! Tracing: set `CLANBFT_TRACE=path` to attach a telemetry recorder to every
//! data point and append the NDJSON event stream to `path`.

use clanbft_profiler as prof;
use clanbft_sim::{ExperimentSpec, Proto, RunMetrics};
use clanbft_telemetry::{encode_profile, Telemetry};
use std::io::Write;

pub mod timing;

/// Every bench binary built on this crate counts allocations per profiler
/// scope. A final binary can hold exactly one global allocator, so this
/// lives here (bench-only leaf) and never in the simulation libraries.
#[global_allocator]
static COUNTING_ALLOC: prof::CountingAlloc = prof::CountingAlloc;

/// The profile destination, if `CLANBFT_PROFILE=path` was set.
pub fn profile_path() -> Option<String> {
    std::env::var("CLANBFT_PROFILE")
        .ok()
        .filter(|p| !p.is_empty())
}

/// Turns the hot-path profiler on when `CLANBFT_PROFILE=path` is set,
/// discarding any stale scope data. Returns whether profiling is on.
pub fn init_profiling() -> bool {
    let on = profile_path().is_some();
    if on {
        prof::reset();
        prof::enable();
    }
    on
}

/// Drains the accumulated profile and appends it to `CLANBFT_PROFILE` as
/// NDJSON (`clanbft-inspect profile` input) plus a flamegraph
/// collapsed-stack file at `<path>.collapsed`. No-op when `CLANBFT_PROFILE`
/// is unset.
pub fn finish_profiling(label: &str) {
    let Some(path) = profile_path() else { return };
    let report = prof::take_report();
    prof::disable();
    append_ndjson(&path, &encode_profile(&report, label));
    append_ndjson(&format!("{path}.collapsed"), &report.to_collapsed());
    println!(
        "profile: {} scopes -> {path} (+ .collapsed)",
        report.scopes.len()
    );
}

/// True when the full (paper-scale) sweep was requested.
pub fn full_scale() -> bool {
    std::env::var("CLANBFT_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The NDJSON trace destination, if `CLANBFT_TRACE=path` was set.
pub fn trace_path() -> Option<String> {
    std::env::var("CLANBFT_TRACE")
        .ok()
        .filter(|p| !p.is_empty())
}

/// Appends one NDJSON chunk to `path`, creating the file — and any missing
/// parent directories — on first use. Note cargo runs bench binaries with
/// the *package* directory as cwd, so prefer absolute `CLANBFT_PROFILE` /
/// `CLANBFT_TRACE` paths; a relative path lands under `crates/bench/`.
pub fn append_ndjson(path: &str, chunk: &str) {
    let res = std::path::Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
        })
        .and_then(|mut f| f.write_all(chunk.as_bytes()));
    if let Err(e) = res {
        eprintln!("warning: could not append trace to {path}: {e}");
    }
}

/// Runs one throughput/latency data point with bench-standard settings.
///
/// With `CLANBFT_TRACE=path` set, the run is instrumented and its protocol
/// event stream is appended to `path` as NDJSON.
pub fn run_point(proto: Proto, n: usize, txs_per_proposal: u32, rounds: u64) -> RunMetrics {
    let mut spec = ExperimentSpec::new(proto, n, txs_per_proposal);
    spec.rounds = rounds;
    spec.warmup_rounds = 2;
    spec.cooldown_rounds = 2;
    match trace_path() {
        None => spec.run(),
        Some(path) => {
            let (telemetry, recorder) = Telemetry::mem();
            let metrics = spec.run_with(telemetry);
            append_ndjson(&path, &recorder.to_ndjson());
            metrics
        }
    }
}

/// Runs one data point with per-node durable storage (WAL + checkpoints,
/// real fsyncs) under a scratch directory, and fills the WAL durability
/// columns (`wal_fsync_p50_us` / `wal_fsync_p99_us` / `wal_bytes_per_commit`)
/// from the run's own telemetry. The scratch tree is removed afterwards.
pub fn run_durable_point(proto: Proto, n: usize, txs_per_proposal: u32, rounds: u64) -> RunMetrics {
    let dir = std::env::temp_dir().join(format!(
        "clanbft-bench-durable-{}-{n}-{txs_per_proposal}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = ExperimentSpec::new(proto, n, txs_per_proposal);
    spec.rounds = rounds;
    spec.warmup_rounds = 2;
    spec.cooldown_rounds = 2;
    spec.storage_root = Some(dir.clone());
    let (metrics, recorder) = spec.run_recorded();
    if let Some(path) = trace_path() {
        append_ndjson(&path, &recorder.to_ndjson());
    }
    let _ = std::fs::remove_dir_all(&dir);
    metrics
}

/// Formats one throughput/latency row the way the paper's plots read.
pub fn fmt_point(label: &str, txs: u32, m: &RunMetrics) -> String {
    format!(
        "{label:<34} txs/proposal={txs:<5} throughput={:>8.1} kTPS   latency={:>8.1} ms   (p99 {:>8.1} ms, {} txs)",
        m.throughput_tps / 1e3,
        m.avg_latency.as_millis_f64(),
        m.p99_latency.as_millis_f64(),
        m.committed_txs
    )
}

#[cfg(test)]
mod tests {
    use super::{append_ndjson, run_durable_point};
    use clanbft_sim::Proto;

    /// The durable point must actually pay (and measure) the WAL tax: real
    /// fsyncs recorded into the histogram, bytes amortised per commit.
    #[test]
    fn durable_point_fills_wal_columns() {
        let m = run_durable_point(Proto::SingleClan { clan_size: 4 }, 8, 50, 6);
        assert!(m.committed_txs > 0, "durable run committed nothing");
        assert!(m.wal_fsync_p99_us > 0, "no fsync latency recorded: {m:?}");
        assert!(m.wal_fsync_p99_us >= m.wal_fsync_p50_us);
        assert!(
            m.wal_bytes_per_commit > 0,
            "no WAL bytes amortised per commit: {m:?}"
        );
    }

    /// A profile destination whose parent directory does not exist yet must
    /// still be written (regression: the fig5 sweep silently dropped its
    /// CLANBFT_PROFILE output because the target directory was missing).
    #[test]
    fn append_ndjson_creates_missing_parent_dirs() {
        let dir = std::env::temp_dir().join(format!(
            "clanbft-append-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("out.ndjson");
        let path = path.to_str().expect("utf-8 temp path");
        append_ndjson(path, "{\"a\":1}\n");
        append_ndjson(path, "{\"b\":2}\n");
        let got = std::fs::read_to_string(path).expect("file written");
        assert_eq!(got, "{\"a\":1}\n{\"b\":2}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
