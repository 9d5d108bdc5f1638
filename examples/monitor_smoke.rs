//! Monitor smoke: the online health monitor judging two live runs of the
//! same 7-party single-clan tribe — one benign, one faulty (a withholding
//! clan member *and* a crash/restart) — then the offline toolchain
//! re-judging both recorded traces.
//!
//! ```text
//! cargo run --example monitor_smoke [out_dir]      # default target/monitor
//! ```
//!
//! The benign run must be alert-free with a healthy verdict *by
//! construction*. The faulty run must fire `pull_retry_storm` against the
//! starved victim and `commit_stall` against the crashed party while each
//! fault is live, clear both on recovery, and still end healthy. Both
//! traces are exported and re-judged with `clanbft-inspect` (`check` and
//! the `alerts` offline replay), and the process exits non-zero if any
//! expectation fails — `scripts/ci.sh` runs this end to end.

use clanbft_adversary::Attack;
use clanbft_inspect::{alert_report, check_report};
use clanbft_monitor::{Detector, HealthMonitor, Verdict};
use clanbft_sim::{build_tribe, export_trace, tribe::elect_clan, TribeSpec};
use clanbft_telemetry::{MemRecorder, Telemetry, Trace};
use clanbft_types::{Micros, PartyId};
use std::sync::Arc;

const N: usize = 7;
const SEED: u64 = 42;

/// The shared tribe shape; only faults differ between the two runs.
fn base_spec(telemetry: Telemetry, monitor: &HealthMonitor) -> TribeSpec {
    let mut spec = TribeSpec::new(N);
    spec.clans = Some(vec![elect_clan(N, 4, SEED)]);
    spec.txs_per_proposal = 50;
    // Short pull deadline: a victim's probes at a withholding peer time out
    // and rotate fast enough to cluster into a detectable retry storm.
    spec.pull_retry = Micros::from_millis(20);
    spec.seed = SEED;
    spec.telemetry = telemetry;
    spec.monitor = Some(monitor.clone());
    spec
}

/// Runs `spec` to quiescence and returns its merged NDJSON trace.
fn run(spec: &TribeSpec, mem: &Arc<MemRecorder>) -> String {
    let mut built = build_tribe(spec);
    built.sim.run_until(Micros::from_secs(120));
    export_trace(spec, mem)
}

fn judge_offline(label: &str, trace_text: &str) {
    let trace = Trace::parse(trace_text).expect("trace parses");
    let (report, ok) = check_report(&trace);
    print!("{label} {report}");
    assert!(ok, "{label} trace failed invariant checks");
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/monitor".to_string());
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    // --- run 1: benign — alert-free by construction ----------------------
    println!("== run 1/2: benign ({N} parties, single clan, seed {SEED}) ==");
    let monitor = HealthMonitor::default();
    let mem = Arc::new(MemRecorder::new());
    let spec = base_spec(
        Telemetry::with_recorder(Arc::clone(&mem) as Arc<dyn clanbft_telemetry::Recorder>),
        &monitor,
    );
    let benign_text = run(&spec, &mem);
    monitor.settle();
    let snap = monitor.assess();
    assert!(
        monitor.alerts().is_empty(),
        "benign run fired alerts:\n{}",
        monitor.alerts_ndjson()
    );
    assert_eq!(snap.verdict, Verdict::Healthy, "benign verdict: {snap:?}");
    println!(
        "benign: 0 alerts, verdict {} over {} parties, {} snapshot(s)",
        snap.verdict.label(),
        snap.parties,
        monitor.with_bank(|b| b.snapshots().len())
    );

    // --- run 2: faulty — withhold + crash/restart ------------------------
    // p1 (lowest-indexed clan member for this seed) withholds from its clan
    // peer p2; outsider p6 crashes at 1 s and restarts from its WAL at
    // 3.6 s, long enough behind a committing quorum to trip the stall
    // watchdog.
    println!("== run 2/2: faulty (p1 withholds from p2; p6 crashes and restarts) ==");
    let storage = std::path::PathBuf::from(&out_dir).join("faulty-storage");
    let _ = std::fs::remove_dir_all(&storage);
    let monitor2 = HealthMonitor::default();
    let mem2 = Arc::new(MemRecorder::new());
    let mut spec2 = base_spec(
        Telemetry::with_recorder(Arc::clone(&mem2) as Arc<dyn clanbft_telemetry::Recorder>),
        &monitor2,
    );
    spec2.byzantine = vec![(
        PartyId(1),
        Attack::Withhold {
            victims: vec![PartyId(2)],
        },
    )];
    spec2.max_round = Some(14);
    spec2.timeout = Micros::from_millis(1_200);
    spec2.storage_root = Some(storage.clone());
    spec2.crashes = vec![(PartyId(6), Micros::from_millis(1_000))];
    spec2.restarts = vec![(PartyId(6), Micros::from_millis(3_600))];
    let faulty_text = run(&spec2, &mem2);
    monitor2.settle();
    let alerts = monitor2.alerts();
    let fired = |d: Detector, p: PartyId| {
        alerts
            .iter()
            .any(|a| a.detector == d && a.party == p && a.kind == clanbft_monitor::AlertKind::Fire)
    };
    assert!(
        fired(Detector::PullRetryStorm, PartyId(2)),
        "storm never fired against the starved victim:\n{}",
        monitor2.alerts_ndjson()
    );
    assert!(
        fired(Detector::CommitStall, PartyId(6)),
        "stall never fired against the crashed party:\n{}",
        monitor2.alerts_ndjson()
    );
    for (d, p) in [
        (Detector::PullRetryStorm, PartyId(2)),
        (Detector::CommitStall, PartyId(6)),
    ] {
        assert!(
            !monitor2.with_bank(|b| b.is_active(d, p)),
            "{} never cleared for {p} after recovery:\n{}",
            d.label(),
            monitor2.alerts_ndjson()
        );
    }
    let snap2 = monitor2.assess();
    assert_eq!(
        snap2.verdict,
        Verdict::Healthy,
        "faulty run must end healthy after recovery: {snap2:?}"
    );
    println!(
        "faulty: {} alert transition(s), verdict {} after recovery",
        alerts.len(),
        snap2.verdict.label()
    );
    let _ = std::fs::remove_dir_all(&storage);

    // --- export + offline re-judgement -----------------------------------
    let benign_path = format!("{out_dir}/benign.ndjson");
    let faulty_path = format!("{out_dir}/faulty.ndjson");
    std::fs::write(&benign_path, &benign_text).expect("write benign trace");
    std::fs::write(&faulty_path, &faulty_text).expect("write faulty trace");
    std::fs::write(
        format!("{out_dir}/benign.alerts.ndjson"),
        monitor.alerts_ndjson(),
    )
    .expect("write benign alerts");
    std::fs::write(
        format!("{out_dir}/faulty.alerts.ndjson"),
        monitor2.alerts_ndjson(),
    )
    .expect("write faulty alerts");
    std::fs::write(
        format!("{out_dir}/faulty.health.ndjson"),
        monitor2.snapshots_ndjson(),
    )
    .expect("write health snapshots");
    std::fs::write(format!("{out_dir}/faulty.prom"), monitor2.prometheus())
        .expect("write prometheus exposition");
    println!("wrote traces and alert streams under {out_dir}\n");

    judge_offline("benign", &benign_text);
    judge_offline("faulty", &faulty_text);

    // The offline replay of the faulty trace must reach the same verdict
    // shape the online monitor saw (event-driven detectors only).
    let faulty_trace = Trace::parse(&faulty_text).expect("faulty trace parses");
    let report = alert_report(&faulty_trace);
    print!("\n-- faulty offline alert replay --\n{report}");
    assert!(
        report.contains("pull_retry_storm"),
        "offline replay lost the storm:\n{report}"
    );
    assert!(
        report.contains("verdict: healthy"),
        "offline replay disagrees on the final verdict:\n{report}"
    );

    println!("\nmonitor smoke: OK");
}
