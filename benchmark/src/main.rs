//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Untraced (`--trace 0`) it prints every
//! end-to-end metric; traced (`--trace 1`) every per-layer metric. The
//! last stdout line is the JSON summary; every line before it that starts
//! with `{` is a provenance-stamped metric or note. The exit code is 0 when
//! every correctness check passed, 1 when one failed (the summary then
//! reports the run as fully failed) and 2 on a usage error.

use clanbft_benchmark::calibrate::Calibrator;
use clanbft_benchmark::gate;
use clanbft_benchmark::ledger::{self, HostRuns};
use clanbft_benchmark::outcome::SimMetrics;
use clanbft_benchmark::report::{peak_rss_mb, summary_line, Provenance};
use clanbft_benchmark::run::{self, Rep};
use clanbft_benchmark::stats::median;
use clanbft_benchmark::workload::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups timed per untraced run, before any repetition.
const SETUPS: usize = 31;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or(format!(
                    "unknown workload {value}; known: {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace takes 0 or 1".to_string()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// Repeats `rep` while another repetition of the last one's length still
/// fits in the budget (at least once).
fn repeat<T>(budget: Duration, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(rep());
        if start.elapsed() + t.elapsed() > budget {
            return out;
        }
    }
}

/// Same-seed repetitions must agree bit for bit.
fn determinism_failures(reps: &[&Rep]) -> Vec<String> {
    let first: SimMetrics = reps[0].obs.metrics();
    match reps.iter().position(|r| !r.obs.metrics().identical(&first)) {
        Some(i) => vec![format!(
            "repetition {i} disagrees with repetition 0 on simulated metrics (nondeterministic)"
        )],
        None => Vec::new(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let root = Path::new(".");
    let storage = PathBuf::from(".bench_run").join(format!("{}-{}", w.name(), std::process::id()));
    let prov = Provenance::collect(root, w.name(), args.seed, args.trace);
    let budget = Duration::from_secs(args.seconds);
    println!("{}", prov.note_line("load", w.describe()));

    // Set-up alone first, while the heap is as a fresh process finds it.
    // Only the first set-up creates the durable workload's storage; the
    // rest open it. Creating and deleting it each time would time the
    // filesystem's handling of those deletions instead: on an ext4 mount
    // with online discard that took anywhere from 1 to 40 ms. For the same
    // reason every repetition gets a fresh store and all are deleted after
    // the last one, so no deletion overlaps a timed run. The host's speed
    // is sampled before every set-up, as between slices of the event loop.
    let _ = std::fs::remove_dir_all(&storage);
    let mut setup_speed = Calibrator::new();
    let setups: Vec<f64> = if args.trace {
        Vec::new()
    } else {
        (0..SETUPS)
            .map(|_| {
                setup_speed.sample();
                run::setup(w, args.seed, &storage.join("setup")).2
            })
            .collect()
    };
    let mut stores = 0;
    let mut fresh = || {
        stores += 1;
        storage.join(format!("rep-{stores}"))
    };
    let (untraced, traced): (Vec<Rep>, Vec<Rep>) = if args.trace {
        repeat(budget, || {
            (
                run::untraced(w, args.seed, &fresh()),
                run::traced(w, args.seed, &fresh()),
            )
        })
        .into_iter()
        .unzip()
    } else {
        (
            repeat(budget, || run::untraced(w, args.seed, &fresh())),
            Vec::new(),
        )
    };
    let _ = std::fs::remove_dir_all(&storage);
    let _ = std::fs::remove_dir(".bench_run");

    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let mut failures = gate::check(&all[0].obs);
    failures.extend(determinism_failures(&all));
    let sim = all[0].obs.metrics();
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let refs: Vec<f64> = untraced.iter().map(|r| r.ref_s).collect();
    let rss = peak_rss_mb();
    if rss.is_none() {
        failures.push("peak resident memory unavailable (/proc/self/status)".to_string());
    }

    let metrics: Vec<(&str, f64, &str)> = if let Some(t) = traced.first() {
        let kinds = ledger::unsplit_kinds(t);
        if !kinds.is_empty() {
            failures.push(format!(
                "message kinds missing from the byte split: {kinds:?}"
            ));
        }
        let rec = &t.trace.as_ref().expect("traced").rec;
        if rec.dropped_events() > 0 {
            failures.push(format!("trace dropped {} events", rec.dropped_events()));
        }
        let traced_refs: Vec<f64> = traced.iter().map(|r| r.ref_s).collect();
        let host = HostRuns {
            untraced_ref_s: &refs,
            traced_ref_s: &traced_refs,
            commit_p50_ms: sim.commit_p50_ms,
        };
        let handlers = &t.trace.as_ref().expect("traced").handlers;
        for (kind, h) in handlers {
            println!(
                "{}",
                prov.note_line(
                    "handler",
                    &format!("{kind}: {} calls, {:.6} s", h.calls, h.ns as f64 / 1e9)
                )
            );
        }
        ledger::ledger(t, &host)
    } else {
        let failed_frac = if failures.is_empty() {
            sim.failed_frac
        } else {
            1.0
        };
        vec![
            ("commit_tps", sim.commit_tps, "1/s"),
            ("commit_p50_ms", sim.commit_p50_ms, "ms"),
            ("commit_p99_ms", sim.commit_p99_ms, "ms"),
            ("bytes_per_tx", sim.bytes_per_tx, "B/tx"),
            ("failed_frac", failed_frac, "fraction"),
            ("commit_gap_max_ms", sim.commit_gap_max_ms, "ms"),
            ("run_ref_s", median(&refs), "s"),
            ("setup_s", setup_speed.normalize(median(&setups)), "s"),
            ("peak_rss_mb", rss.unwrap_or(0.0), "MB"),
        ]
    };
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        failures.push(format!("metric {name} is not a finite number"));
    }

    let setup_note = if setups.is_empty() {
        String::new()
    } else {
        let raw = median(&setups);
        format!(
            "; set-up median {raw} s, normalized {} s",
            setup_speed.normalize(raw)
        )
    };
    println!(
        "{}",
        prov.note_line(
            "samples",
            &format!(
                "latency over {} txs in {} batches; {} repetitions ({} traced), {} set-ups; \
                 event-loop wall seconds {:?}, normalized {:?}, host-speed samples {:?}{}",
                sim.window_txs,
                sim.window_batches,
                all.len(),
                traced.len(),
                setups.len(),
                walls,
                refs,
                untraced.iter().map(|r| r.speed_samples).collect::<Vec<_>>(),
                setup_note
            )
        )
    );
    for f in &failures {
        eprintln!("FAILED workload={} seed={}: {f}", w.name(), args.seed);
        println!("{}", prov.note_line("failure", f));
    }
    for (name, value, unit) in &metrics {
        println!("{}", prov.metric_line(name, *value, unit));
    }
    let correct = failures.is_empty();
    let attempted = sim.offered.max(1);
    let failed = if correct { sim.failed } else { attempted };
    println!("{}", summary_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
