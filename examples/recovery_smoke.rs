//! Crash-recovery smoke: run the durable-path scenarios CI gates on and
//! write their merged NDJSON traces for the `clanbft-inspect` binary to
//! re-judge (the checker's recovery-continuity and no-equivocation
//! invariants only bite on traces that actually contain a restart).
//!
//! ```text
//! cargo run --example recovery_smoke [out_dir]     # default target/recovery
//! ```
//!
//! Two instrumented runs:
//!
//! 1. **restart** — a 4-party tribe in which party 2 crashes at 900 ms and
//!    restarts at 2.6 s from its write-ahead log + checkpoint, topping up
//!    over peer state transfer. Asserts in-process: the node rebuilt from
//!    disk, caught back up to the run's final round, kept a gap-free local
//!    order, and the WAL/state-transfer counters actually ticked.
//! 2. **rotation** — a 7-party tribe with a single 3-member clan and epoch
//!    re-election enabled; clan member 2 crashes for good and is
//!    deterministically replaced at an epoch boundary while commits keep
//!    flowing. Asserts in-process: every live party decided the same
//!    epochs, someone was seated in party 2's place, and commits continued
//!    past the rotation boundary.
//!
//! Exits non-zero on any violation, so `scripts/ci.sh` runs it as the
//! crash-recovery gate.

use clanbft_inspect::check_report;
use clanbft_sim::{build_tribe, export_trace, TribeSpec};
use clanbft_telemetry::{counters, Event, Telemetry, Trace};
use clanbft_types::{Micros, PartyId, Round};

fn write_trace(out_dir: &str, name: &str, text: &str) {
    let path = format!("{out_dir}/{name}.ndjson");
    std::fs::write(&path, text).expect("write trace file");
    println!("wrote {path} ({} lines)", text.lines().count());
}

fn restart_run(out_dir: &str) {
    println!("== run 1/2: crash + restart (WAL replay, state transfer) ==");
    let storage = std::path::Path::new(out_dir).join("storage-restart");
    let _ = std::fs::remove_dir_all(&storage);
    let (telemetry, recorder) = Telemetry::mem();
    let mut spec = TribeSpec::new(4);
    spec.storage_root = Some(storage.clone());
    spec.txs_per_proposal = 40;
    spec.max_round = Some(14);
    spec.timeout = Micros::from_millis(1_200);
    spec.seed = 42;
    spec.crashes = vec![(PartyId(2), Micros::from_millis(900))];
    spec.restarts = vec![(PartyId(2), Micros::from_millis(2_600))];
    spec.telemetry = telemetry;
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));

    let node2 = built.sim.node(PartyId(2));
    assert!(node2.recovered(), "party 2 must rebuild from disk");
    assert!(
        node2.round() >= Round(14),
        "restarted party stuck at {}",
        node2.round()
    );
    for (i, c) in node2.committed_log.iter().enumerate() {
        assert_eq!(
            c.sequence,
            node2.commit_seq_base() + i as u64,
            "restarted party's order has a gap at log index {i}"
        );
    }
    let wal = recorder.counter(counters::WAL_APPENDS);
    let requests = recorder.counter(counters::STATE_TRANSFER_REQUESTS);
    let checkpoints = recorder.counter(counters::CHECKPOINT_WRITTEN);
    println!("wal appends = {wal}, state requests = {requests}, checkpoints = {checkpoints}");
    assert!(wal > 0, "durable run appended nothing to the WAL");
    assert!(requests > 0, "restart never requested state transfer");

    let text = export_trace(&spec, &recorder);
    let trace = Trace::parse(&text).expect("trace parses");
    assert_eq!(trace.skipped, 0, "trace contained unknown event labels");
    let recoveries = trace
        .events
        .iter()
        .filter(|s| matches!(s.event, Event::RecoveryCompleted { .. }))
        .count();
    assert_eq!(recoveries, 1, "expected exactly one recovery in the trace");
    let (report, ok) = check_report(&trace);
    print!("{report}");
    assert!(ok, "restart trace failed the invariant gate");
    write_trace(out_dir, "restart", &text);
    let _ = std::fs::remove_dir_all(&storage);
}

fn rotation_run(out_dir: &str) {
    println!("== run 2/2: epoch rotation (dead clan member replaced) ==");
    let storage = std::path::Path::new(out_dir).join("storage-rotation");
    let _ = std::fs::remove_dir_all(&storage);
    let clan: Vec<PartyId> = [0u32, 1, 2].map(PartyId).to_vec();
    let (telemetry, recorder) = Telemetry::mem();
    let mut spec = TribeSpec::new(7);
    spec.clans = Some(vec![clan.clone()]);
    spec.storage_root = Some(storage.clone());
    spec.txs_per_proposal = 20;
    spec.max_round = Some(40);
    spec.timeout = Micros::from_millis(1_200);
    spec.seed = 42;
    spec.epoch_length = Some(8);
    spec.rotation_miss_k = 4;
    spec.crashes = vec![(PartyId(2), Micros::from_millis(1_000))];
    spec.telemetry = telemetry;
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(600));

    let reference = built.sim.node(PartyId(0)).epoch_decisions().to_vec();
    assert!(!reference.is_empty(), "no epoch boundaries were decided");
    for &p in &built.honest {
        let decisions = built.sim.node(p).epoch_decisions();
        let shared = decisions.len().min(reference.len());
        assert_eq!(
            &decisions[..shared],
            &reference[..shared],
            "{p} decided different epochs"
        );
    }
    let rotated = reference
        .iter()
        .find(|e| !e.clans[0].contains(&2))
        .expect("the crashed clan member was never rotated out");
    println!(
        "epoch {} seated {:?} in place of party 2 (from round {})",
        rotated.epoch, rotated.clans[0], rotated.from_round.0
    );
    for &p in &built.honest {
        let node = built.sim.node(p);
        assert!(
            node.last_committed()
                .is_some_and(|lc| lc.0 > rotated.from_round.0),
            "{p} stopped committing at the rotation boundary"
        );
    }
    let rotations = recorder.counter(counters::ELECTION_EPOCH_ROTATIONS);
    println!("epoch rotations = {rotations}");
    assert!(rotations > 0, "rotation counter never ticked");

    let text = export_trace(&spec, &recorder);
    let trace = Trace::parse(&text).expect("trace parses");
    assert_eq!(trace.skipped, 0, "trace contained unknown event labels");
    assert!(
        trace
            .events
            .iter()
            .any(|s| matches!(s.event, Event::EpochRotated { .. })),
        "trace carries no epoch_rotated event"
    );
    let (report, ok) = check_report(&trace);
    print!("{report}");
    assert!(ok, "rotation trace failed the invariant gate");
    write_trace(out_dir, "rotation", &text);
    let _ = std::fs::remove_dir_all(&storage);
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/recovery".to_string());
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    restart_run(&out_dir);
    rotation_run(&out_dir);
    println!("recovery smoke OK");
}
