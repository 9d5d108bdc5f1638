//! Perf smoke: the profiler's end-to-end checkout and the CI perf gate.
//!
//! ```text
//! cargo run --release -p clanbft-sim --example perf_smoke -- [out_dir] [--write-baseline]
//! ```
//!
//! Runs one pinned single-clan workload (n = 12, clan 6, 10 rounds,
//! seed 11, 200 txs/proposal) three ways — profiler disabled, timing-only
//! (`enable_timing_only`), and twice fully enabled — and asserts the
//! contract the instrumentation claims:
//!
//! 1. Profiling never changes the run: committed transactions and simulator
//!    event counts are identical across every mode.
//! 2. The profile is real: ≥ 8 distinct pipeline stages across ≥ 5
//!    instrumented subsystems, with allocation attribution (this binary
//!    installs [`clanbft_profiler::CountingAlloc`]); the timing-only run
//!    attributes none.
//! 3. Scope *counts* are deterministic: both full runs produce the same
//!    (path, calls) vector. Times vary; the tree shape must not.
//! 4. Timing-only overhead stays under `CLANBFT_PERF_TOL_PCT` (default
//!    25% — generous for noisy CI; quiet-host measurements sit under 5%)
//!    and full allocation accounting under twice that. See DESIGN.md
//!    "Performance observability" for measured numbers.
//!
//! Artifacts land in `out_dir` (default `target/perf-smoke`):
//! `profile_a.ndjson`, `profile_b.ndjson` (+ `.collapsed`), `summary.json`.
//! The CI gate then renders `profile_a.ndjson` with `clanbft-inspect
//! profile` and diffs a→b for its `verdict:` line.
//!
//! The committed baseline `crates/bench/BENCH_perf_baseline.json` pins the
//! deterministic facts exactly (committed txs, sim events, distinct
//! scopes) and the wall time loosely (candidate must stay within
//! `CLANBFT_PERF_TOL`× the recorded wall, default 8×). Refresh it with
//! `--write-baseline` after an intentional change.

use clanbft_profiler as prof;
use clanbft_sim::{ExperimentSpec, Proto, RunMetrics};
use clanbft_telemetry::{encode_profile, parse_obj, JsonObj};
use std::collections::BTreeSet;
use std::time::Instant;

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

const N: usize = 12;
const CLAN: usize = 6;
const ROUNDS: u64 = 10;
const SEED: u64 = 11;
const TXS: u32 = 200;

/// Workload knobs, overridable for overhead measurements at other scales
/// (`CLANBFT_PERF_N`, `_CLAN`, `_ROUNDS`, `_TXS`). Overridden runs skip the
/// committed baseline entirely — its pinned facts only hold for the default
/// workload.
struct Workload {
    n: usize,
    clan: usize,
    rounds: u64,
    txs: u32,
    overridden: bool,
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

fn workload() -> Workload {
    let n = env_u64("CLANBFT_PERF_N");
    let clan = env_u64("CLANBFT_PERF_CLAN");
    let rounds = env_u64("CLANBFT_PERF_ROUNDS");
    let txs = env_u64("CLANBFT_PERF_TXS");
    Workload {
        n: n.map_or(N, |v| v as usize),
        clan: clan.map_or(CLAN, |v| v as usize),
        rounds: rounds.unwrap_or(ROUNDS),
        txs: txs.map_or(TXS, |v| v as u32),
        overridden: n.is_some() || clan.is_some() || rounds.is_some() || txs.is_some(),
    }
}

fn baseline_path() -> String {
    format!(
        "{}/../bench/BENCH_perf_baseline.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn run_once(w: &Workload) -> RunMetrics {
    let mut spec = ExperimentSpec::new(Proto::SingleClan { clan_size: w.clan }, w.n, w.txs);
    spec.rounds = w.rounds;
    spec.warmup_rounds = 2;
    spec.cooldown_rounds = 2;
    spec.seed = SEED;
    spec.run()
}

/// `(wall microseconds, metrics, report)` for one enabled run. Timing-only
/// mode skips allocation accounting — the cheapest enabled configuration.
fn run_profiled(w: &Workload, timing_only: bool) -> (u64, RunMetrics, prof::Report) {
    prof::reset();
    if timing_only {
        prof::enable_timing_only();
    } else {
        prof::enable();
    }
    let t = Instant::now();
    let m = run_once(w);
    let wall = t.elapsed().as_micros() as u64;
    let report = prof::take_report();
    prof::disable();
    (wall, m, report)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn fail(msg: &str) -> ! {
    eprintln!("perf_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let out_dir = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "target/perf-smoke".to_string());
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| fail(&format!("mkdir {out_dir}: {e}")));
    let wl = workload();

    // Disabled runs: the first warms caches (page-ins, lazy statics), the
    // best of the rest is the overhead baseline.
    prof::disable();
    prof::reset();
    let mut disabled_wall = u64::MAX;
    let mut disabled_metrics = None;
    for i in 0..3 {
        let t = Instant::now();
        let m = run_once(&wl);
        let w = t.elapsed().as_micros() as u64;
        if i > 0 {
            disabled_wall = disabled_wall.min(w);
        }
        disabled_metrics = Some(m);
    }
    let disabled_metrics = disabled_metrics.expect("three runs completed");
    if !prof::take_report().scopes.is_empty() {
        fail("disabled profiler accumulated scope data");
    }

    let (timing_wall, timing_metrics, timing_report) = run_profiled(&wl, true);
    let (wall_a, metrics_a, report_a) = run_profiled(&wl, false);
    let (wall_b, metrics_b, report_b) = run_profiled(&wl, false);
    let enabled_wall = wall_a.min(wall_b);
    if timing_report.scopes.iter().any(|s| s.alloc_count > 0) {
        fail("timing-only run attributed allocations");
    }

    // 1. Profiling must not perturb the simulation.
    for (label, m) in [
        ("timing-only", &timing_metrics),
        ("a", &metrics_a),
        ("b", &metrics_b),
    ] {
        if m.committed_txs != disabled_metrics.committed_txs {
            fail(&format!(
                "enabled run {label} committed {} txs, disabled committed {}",
                m.committed_txs, disabled_metrics.committed_txs
            ));
        }
        if m.sim_events != disabled_metrics.sim_events {
            fail(&format!(
                "enabled run {label} handled {} events, disabled handled {}",
                m.sim_events, disabled_metrics.sim_events
            ));
        }
    }

    // 2. Coverage: distinct stages and distinct instrumented subsystems.
    let names: BTreeSet<&str> = report_a.scopes.iter().map(|s| s.name.as_str()).collect();
    let subsystems: BTreeSet<&str> = names
        .iter()
        .map(|n| n.split('.').next().unwrap_or(n))
        .collect();
    if names.len() < 8 {
        fail(&format!(
            "only {} distinct stages profiled: {names:?}",
            names.len()
        ));
    }
    if subsystems.len() < 5 {
        fail(&format!(
            "only {} subsystems covered: {subsystems:?}",
            subsystems.len()
        ));
    }
    let total_allocs: u64 = report_a.scopes.iter().map(|s| s.alloc_count).sum();
    if total_allocs == 0 {
        fail("no allocations attributed despite the counting allocator");
    }

    // 3. Determinism of the tree shape.
    if report_a.counts() != report_b.counts() {
        fail(&format!(
            "scope counts differ between same-seed runs:\n a: {:?}\n b: {:?}",
            report_a.counts(),
            report_b.counts()
        ));
    }

    // 4. Overhead bound. Timing-only is the headline number (DESIGN.md
    // quotes <5% on a quiet host); full allocation accounting costs more
    // and both must stay under the generous CI tolerance.
    let pct = |wall: u64| {
        if disabled_wall > 0 {
            (wall as f64 - disabled_wall as f64) / disabled_wall as f64 * 100.0
        } else {
            0.0
        }
    };
    let overhead_timing_pct = pct(timing_wall);
    let overhead_pct = pct(enabled_wall);
    let tol_pct = env_f64("CLANBFT_PERF_TOL_PCT", 25.0);
    if overhead_timing_pct > tol_pct {
        fail(&format!(
            "timing-only profiler overhead {overhead_timing_pct:.1}% exceeds {tol_pct:.0}% \
             (disabled {disabled_wall} us, timing-only {timing_wall} us)"
        ));
    }
    if overhead_pct > 2.0 * tol_pct {
        fail(&format!(
            "full profiler overhead {overhead_pct:.1}% exceeds {:.0}% \
             (disabled {disabled_wall} us, enabled {enabled_wall} us)",
            2.0 * tol_pct
        ));
    }

    // Artifacts.
    let write = |name: &str, content: &str| {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, content).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
    };
    write(
        "profile_a.ndjson",
        &encode_profile(&report_a, "perf_smoke/a"),
    );
    write(
        "profile_b.ndjson",
        &encode_profile(&report_b, "perf_smoke/b"),
    );
    write("profile_a.collapsed", &report_a.to_collapsed());
    let summary = JsonObj::new()
        .str("bench", "perf_smoke")
        .u64("n", wl.n as u64)
        .u64("clan", wl.clan as u64)
        .u64("rounds", wl.rounds)
        .u64("seed", SEED)
        .u64("committed_txs", disabled_metrics.committed_txs)
        .u64("sim_events", disabled_metrics.sim_events)
        .u64("distinct_scopes", names.len() as u64)
        .u64("subsystems", subsystems.len() as u64)
        .u64("disabled_wall_us", disabled_wall)
        .u64("timing_wall_us", timing_wall)
        .u64("enabled_wall_us", enabled_wall)
        .f64(
            "overhead_timing_pct",
            (overhead_timing_pct * 10.0).round() / 10.0,
        )
        .f64("overhead_pct", (overhead_pct * 10.0).round() / 10.0)
        .f64("sim_events_per_sec", metrics_a.sim_events_per_sec)
        .f64("wall_us_per_sim_sec", metrics_a.wall_us_per_sim_sec)
        .finish();
    write("summary.json", &format!("{summary}\n"));

    println!(
        "perf_smoke: {} committed txs, {} sim events",
        disabled_metrics.committed_txs, disabled_metrics.sim_events
    );
    println!(
        "perf_smoke: {} stages / {} subsystems, {} allocations attributed",
        names.len(),
        subsystems.len(),
        total_allocs
    );
    println!(
        "perf_smoke: wall disabled {disabled_wall} us, timing-only {timing_wall} us \
         ({overhead_timing_pct:+.1}%), full {enabled_wall} us ({overhead_pct:+.1}%), \
         tolerance {tol_pct:.0}%"
    );
    println!("perf_smoke: artifacts -> {out_dir}");

    // Baseline gate. An overridden workload is a one-off measurement — the
    // committed baseline's pinned facts do not apply to it.
    if wl.overridden {
        println!("perf_smoke: workload overridden by env; baseline skipped");
        return;
    }
    let bpath = baseline_path();
    if write_baseline {
        std::fs::write(&bpath, format!("{summary}\n"))
            .unwrap_or_else(|e| fail(&format!("write {bpath}: {e}")));
        println!("perf_smoke: baseline refreshed -> {bpath}");
        return;
    }
    match std::fs::read_to_string(&bpath) {
        Err(_) => println!("perf_smoke: no baseline at {bpath} (run --write-baseline to pin one)"),
        Ok(text) => {
            let line = text.lines().next().unwrap_or("");
            let base = parse_obj(line).unwrap_or_else(|e| fail(&format!("parsing {bpath}: {e}")));
            let base_u64 = |key: &str| {
                base.u64(key)
                    .unwrap_or_else(|e| fail(&format!("baseline {bpath}: {e}")))
            };
            // Deterministic facts must match exactly.
            for key in ["committed_txs", "sim_events", "distinct_scopes"] {
                let want = base_u64(key);
                let got = match key {
                    "committed_txs" => disabled_metrics.committed_txs,
                    "sim_events" => disabled_metrics.sim_events,
                    _ => names.len() as u64,
                };
                if got != want {
                    fail(&format!("{key}: baseline {want}, this run {got} (deterministic field; investigate before --write-baseline)"));
                }
            }
            // Wall time is host-dependent: gate only on a generous factor.
            let tol = env_f64("CLANBFT_PERF_TOL", 8.0);
            let base_wall = base_u64("enabled_wall_us").max(1);
            let limit = (base_wall as f64 * tol) as u64;
            if enabled_wall > limit {
                fail(&format!(
                    "enabled wall {enabled_wall} us exceeds {tol}x baseline ({base_wall} us)"
                ));
            }
            println!(
                "perf_smoke: baseline OK (wall {enabled_wall} us vs {base_wall} us recorded, {tol}x tolerance)"
            );
        }
    }
}
