//! End-to-end determinism: the whole stack — key generation, clan election,
//! simulated network jitter, consensus — runs on the in-tree seeded PRNG, so
//! two runs with the same seed must produce byte-identical commit sequences
//! on every node. This is the regression gate for the zero-dependency PRNG
//! swap: any hidden nondeterminism (HashMap iteration order, OS entropy,
//! wall-clock leakage) shows up here as a diverged total order.

use clanbft_sim::tribe::elect_clan;
use clanbft_sim::{build_tribe, TribeSpec};
use clanbft_types::{Micros, PartyId};

/// One node's committed sequence, flattened for comparison.
type CommitTrace = Vec<(u64, u64, u32, [u8; 32], u64)>;

fn run_single_clan(seed: u64) -> Vec<CommitTrace> {
    let n = 8;
    let mut spec = TribeSpec::new(n);
    spec.clans = Some(vec![elect_clan(n, 4, seed)]);
    spec.max_round = Some(8);
    spec.txs_per_proposal = 50;
    spec.seed = seed;
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(3_000));
    (0..n as u32)
        .map(|p| {
            built
                .sim
                .node(PartyId(p))
                .committed_log
                .iter()
                .map(|c| {
                    (
                        c.sequence,
                        c.vertex.round.0,
                        c.vertex.source.0,
                        c.block_digest.0,
                        c.committed_at.0,
                    )
                })
                .collect()
        })
        .collect()
}

#[test]
fn same_seed_single_clan_runs_commit_identically() {
    let first = run_single_clan(42);
    let second = run_single_clan(42);

    // The run must actually commit something, otherwise this test is vacuous.
    let total: usize = first.iter().map(Vec::len).sum();
    assert!(total > 0, "no commits in an 8-round benign run");

    for (p, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(
            a, b,
            "party {p} diverged between two runs with the same seed"
        );
    }
}

/// Merged NDJSON trace (meta line + event stream) of one instrumented
/// single-clan run, as `clanbft-inspect` consumes it.
fn run_traced(seed: u64) -> String {
    let n = 8;
    let (telemetry, recorder) = clanbft_telemetry::Telemetry::mem();
    let mut spec = TribeSpec::new(n);
    spec.clans = Some(vec![elect_clan(n, 4, seed)]);
    spec.max_round = Some(8);
    spec.txs_per_proposal = 50;
    spec.seed = seed;
    spec.telemetry = telemetry;
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(3_000));
    clanbft_sim::export_trace(&spec, &recorder)
}

#[test]
fn same_seed_runs_emit_identical_event_streams() {
    // The telemetry layer must not introduce nondeterminism of its own
    // (iteration order, interleaving): the full serialized merged trace —
    // meta line, every stamp, party and field — is byte-identical across
    // same-seed runs.
    let first = run_traced(42);
    let second = run_traced(42);
    assert!(
        first.lines().count() > 100,
        "instrumented run produced suspiciously few events"
    );
    assert_eq!(
        first, second,
        "event streams diverged between same-seed runs"
    );
}

#[test]
fn same_seed_runs_analyze_identically() {
    // The post-mortem toolchain must be as deterministic as the runs it
    // judges: parsing the merged trace and rendering the commit waterfall
    // twice from two same-seed runs yields byte-identical reports, and the
    // trace passes the `clanbft-inspect check` invariant gate. (This also
    // exercises the full NDJSON round trip: every event the stack emits is
    // parseable, none are skipped as unknown.)
    let first = clanbft_telemetry::Trace::parse(&run_traced(42)).expect("trace parses");
    let second = clanbft_telemetry::Trace::parse(&run_traced(42)).expect("trace parses");
    assert_eq!(first.skipped, 0, "trace contained unknown event labels");
    let (wf_a, wf_b) = (
        clanbft_inspect::waterfall(&first),
        clanbft_inspect::waterfall(&second),
    );
    assert!(
        wf_a.lines().count() > 10,
        "waterfall is suspiciously short:\n{wf_a}"
    );
    assert_eq!(wf_a, wf_b, "waterfalls diverged between same-seed runs");
    let (report, ok) = clanbft_inspect::check_report(&first);
    assert!(ok, "benign trace failed the invariant gate:\n{report}");
}

/// One instrumented adversarial run: commit traces plus detection counters.
fn run_adversarial(seed: u64) -> (Vec<CommitTrace>, Vec<(&'static str, u64)>) {
    use clanbft_adversary::Attack;
    let n = 7;
    let (telemetry, recorder) = clanbft_telemetry::Telemetry::mem();
    let mut spec = TribeSpec::new(n);
    spec.max_round = Some(8);
    spec.txs_per_proposal = 30;
    spec.seed = seed;
    spec.timeout = Micros::from_millis(1_200);
    spec.byzantine = vec![
        (PartyId(1), Attack::Equivocate),
        (PartyId(4), Attack::Replay),
    ];
    spec.telemetry = telemetry;
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    let traces = (0..n as u32)
        .map(|p| {
            built
                .sim
                .node(PartyId(p))
                .committed_log
                .iter()
                .map(|c| {
                    (
                        c.sequence,
                        c.vertex.round.0,
                        c.vertex.source.0,
                        c.block_digest.0,
                        c.committed_at.0,
                    )
                })
                .collect()
        })
        .collect();
    let mut counters = recorder.counters();
    counters.sort();
    (traces, counters)
}

#[test]
fn same_seed_adversarial_runs_are_identical() {
    // The attack behaviours (twin caching, replay windows, digest forgery)
    // must be as deterministic as the honest path: same seed ⇒ identical
    // commits AND identical detection counters, down to the exact tick
    // counts. This pins the whole adversary harness against hidden
    // nondeterminism.
    let (commits_a, counters_a) = run_adversarial(42);
    let (commits_b, counters_b) = run_adversarial(42);
    let total: usize = commits_a.iter().map(Vec::len).sum();
    assert!(total > 0, "adversarial run committed nothing");
    assert_eq!(commits_a, commits_b, "commits diverged under attack");
    assert_eq!(counters_a, counters_b, "detection counters diverged");
    // The attack must actually have been detected, or the pin is vacuous.
    let evidence = counters_a
        .iter()
        .find(|(k, _)| *k == "evidence.recorded")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(evidence >= 1, "no evidence recorded in the adversarial run");
}

/// One crash/restart run against its own scratch storage root: commit
/// traces plus the durability counters.
fn run_recovery(seed: u64, tag: &str) -> (Vec<CommitTrace>, Vec<(&'static str, u64)>) {
    let n = 4;
    let dir = std::env::temp_dir().join(format!(
        "clanbft-determinism-{}-{seed}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (telemetry, recorder) = clanbft_telemetry::Telemetry::mem();
    let mut spec = TribeSpec::new(n);
    spec.max_round = Some(12);
    spec.txs_per_proposal = 30;
    spec.seed = seed;
    spec.timeout = Micros::from_millis(1_200);
    spec.storage_root = Some(dir.clone());
    spec.crashes = vec![(PartyId(2), Micros::from_millis(900))];
    spec.restarts = vec![(PartyId(2), Micros::from_millis(2_600))];
    spec.telemetry = telemetry;
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    let traces = (0..n as u32)
        .map(|p| {
            built
                .sim
                .node(PartyId(p))
                .committed_log
                .iter()
                .map(|c| {
                    (
                        c.sequence,
                        c.vertex.round.0,
                        c.vertex.source.0,
                        c.block_digest.0,
                        c.committed_at.0,
                    )
                })
                .collect()
        })
        .collect();
    let mut counters = recorder.counters();
    counters.sort();
    let _ = std::fs::remove_dir_all(&dir);
    (traces, counters)
}

#[test]
fn same_seed_recovery_runs_are_identical() {
    // Crash, WAL replay, state transfer, and catchup are all on the seeded
    // deterministic path: two same-seed runs produce identical commit
    // traces on every node (including the restarted one) and identical
    // durability counters, down to exact WAL-append and state-chunk tick
    // counts. The one wall-clock field in the stream — RecoveryCompleted's
    // rebuild duration — is an event payload, not a counter, so this pin
    // compares commit traces + counters rather than raw event bytes.
    let (commits_a, counters_a) = run_recovery(42, "a");
    let (commits_b, counters_b) = run_recovery(42, "b");
    let total: usize = commits_a.iter().map(Vec::len).sum();
    assert!(total > 0, "recovery run committed nothing");
    assert_eq!(commits_a, commits_b, "commits diverged across restart runs");
    assert_eq!(counters_a, counters_b, "durability counters diverged");
    // The restart must actually have exercised the durable path, or the
    // pin is vacuous.
    let count = |key: &str| {
        counters_a
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(count("wal.appends") > 0, "no WAL appends recorded");
    assert!(
        count("state_transfer.requests") > 0,
        "restart never requested state transfer"
    );
}

/// One monitored withhold run's full alert stream as NDJSON.
fn run_monitored_alerts(seed: u64) -> String {
    use clanbft_adversary::Attack;
    let n = 7;
    let monitor = clanbft_monitor::HealthMonitor::default();
    let mut spec = TribeSpec::new(n);
    spec.clans = Some(vec![elect_clan(n, 4, seed)]);
    spec.max_round = Some(8);
    spec.txs_per_proposal = 50;
    spec.seed = seed;
    // Short pull deadline so the withhold attack drives the retry machinery
    // hard enough to trip the pull-retry-storm detector.
    spec.pull_retry = Micros::from_millis(20);
    spec.byzantine = vec![(
        PartyId(1),
        Attack::Withhold {
            victims: vec![PartyId(2)],
        },
    )];
    spec.monitor = Some(monitor.clone());
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    monitor.settle();
    monitor.alerts_ndjson()
}

#[test]
fn same_seed_runs_emit_identical_alert_streams() {
    // The online detectors run on event-time, never wall time, so the whole
    // alert stream — every fire/clear, stamp, round and evidence string —
    // is part of the deterministic surface. (The one host-time detector,
    // WAL degradation, sees no input in a memory-only run.) Two same-seed
    // withhold runs must emit byte-identical NDJSON.
    let first = run_monitored_alerts(42);
    let second = run_monitored_alerts(42);
    assert!(
        first.contains("\"detector\":\"pull_retry_storm\""),
        "withhold run never tripped the storm detector:\n{first}"
    );
    assert_eq!(
        first, second,
        "alert streams diverged between same-seed runs"
    );
}

#[test]
fn different_seeds_change_the_run() {
    // Not a safety property — just a sanity check that the seed is actually
    // threaded through (identical traces for different seeds would mean the
    // PRNG is being ignored somewhere).
    let a = run_single_clan(1);
    let b = run_single_clan(2);
    let flat =
        |runs: &Vec<CommitTrace>| -> Vec<u64> { runs.iter().flatten().map(|t| t.4).collect() };
    assert_ne!(flat(&a), flat(&b), "seed change had no observable effect");
}

/// One profiled run's `(scope path, call count)` vector.
fn run_profiled_counts(seed: u64) -> Vec<(String, u64)> {
    clanbft_profiler::reset();
    clanbft_profiler::enable();
    let _ = run_single_clan(seed);
    let report = clanbft_profiler::take_report();
    clanbft_profiler::disable();
    report.counts()
}

#[test]
fn same_seed_runs_profile_identical_scope_counts() {
    // Scope *counts* are part of the deterministic surface: the profiler
    // hooks sit on the hot path (simulator dispatch, rbc, consensus, dag,
    // crypto, mempool), so two same-seed runs must enter every scope path
    // exactly the same number of times. Times vary with the host; the tree
    // shape and call counts must not. A divergence here means either hidden
    // nondeterminism in the stack or a profiler hook inside a
    // host-dependent branch.
    let first = run_profiled_counts(42);
    let second = run_profiled_counts(42);
    assert!(
        first.iter().map(|(_, c)| c).sum::<u64>() > 0,
        "profiled run recorded no scope entries"
    );
    assert_eq!(
        first, second,
        "scope counts diverged between same-seed runs"
    );

    // The pipeline stages the profile must name (paths may deepen as
    // instrumentation grows; these stage names are load-bearing).
    let names: std::collections::BTreeSet<&str> =
        first.iter().flat_map(|(p, _)| p.split(';')).collect();
    for stage in [
        "sim.run",
        "rbc.handle",
        "consensus.process_vertex",
        "dag.insert",
        "crypto.sign",
        "mempool.plan_batches",
    ] {
        assert!(
            names.contains(stage),
            "stage {stage:?} missing from profile"
        );
    }
}
