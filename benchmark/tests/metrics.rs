//! The benchmark's own checks of its metric definitions and correctness
//! gate, on hand-made observations and on n = 4–7 tribes that run in well
//! under a second.
//!
//! ```text
//! cargo test --manifest-path benchmark/Cargo.toml
//! ```

use clanbft_benchmark::gate;
use clanbft_benchmark::ledger::BYTE_SPLIT;
use clanbft_benchmark::outcome::{Batch, Commit, Observation, Restarted};
use clanbft_benchmark::run::observe_plan;
use clanbft_benchmark::workload::{plan, Plan, Workload};
use clanbft_consensus::LeaderSchedule;
use clanbft_mempool::WorkloadSpec;
use clanbft_sim::{build_tribe, TribeSpec};
use clanbft_types::{Micros, PartyId, Round, VertexRef};
use std::path::PathBuf;

fn small_plan(n: usize, rounds: u64, seed: u64) -> Plan {
    let mut spec = TribeSpec::new(n);
    spec.seed = seed;
    spec.txs_per_proposal = 40;
    spec.max_round = Some(rounds);
    spec.timeout = Micros::from_millis(1_200);
    Plan {
        spec,
        rounds,
        warmup_rounds: 2,
        last_round: rounds - 2,
        horizon: Micros::from_secs(300),
        crash: None,
        audit_exactly_once: false,
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("bench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn v(round: u64, source: u32) -> VertexRef {
    VertexRef {
        round: Round(round),
        source: PartyId(source),
    }
}

fn commit(seq: u64, vertex: VertexRef, at_ms: u64) -> Commit {
    Commit {
        seq,
        vertex,
        at: Micros::from_millis(at_ms),
    }
}

#[test]
fn failed_frac_counts_rejections_the_uncommitted_and_the_cut_off() {
    // Two honest parties, proposing stopped after round 4. Vertex (1,0) is
    // committed by both; (2,0) only by one; (3,0) by both, but round 3 is
    // one of the two cut-off rounds. 105 offered, 10 rejected, 95 proposed.
    let obs = Observation {
        logs: vec![
            (
                PartyId(0),
                vec![
                    commit(0, v(1, 0), 100),
                    commit(1, v(2, 0), 200),
                    commit(2, v(3, 0), 300),
                ],
            ),
            (
                PartyId(1),
                vec![commit(0, v(1, 0), 150), commit(1, v(3, 0), 300)],
            ),
        ],
        batches: vec![
            Batch {
                vertex: v(1, 0),
                created_at: Micros::ZERO,
                count: 60,
            },
            Batch {
                vertex: v(2, 0),
                created_at: Micros::ZERO,
                count: 30,
            },
            Batch {
                vertex: v(3, 0),
                created_at: Micros::ZERO,
                count: 5,
            },
        ],
        offered: 105,
        rejected: 10,
        warmup_rounds: 0,
        last_round: 2,
        rounds: 4,
        ..Observation::default()
    };
    let m = obs.metrics();
    assert_eq!(m.committed_txs, 65);
    assert_eq!(m.failed, 45);
    assert_eq!(m.failed_frac, 45.0 / 105.0);
    // Latency runs to the last honest commit.
    assert_eq!(m.commit_p50_ms, 150.0);
}

#[test]
fn commit_gap_spans_window_edges_and_skips_the_outage() {
    let obs = Observation {
        logs: vec![(
            PartyId(0),
            vec![
                commit(0, v(1, 0), 1_000),
                commit(1, v(1, 1), 1_300),
                commit(2, v(2, 0), 1_900),
            ],
        )],
        restarted: Some(Restarted {
            party: PartyId(1),
            crash_at: Micros::from_millis(1_200),
            restart_at: Micros::from_millis(1_500),
            before: vec![commit(0, v(1, 0), 1_050)],
            after: vec![commit(2, v(2, 0), 1_950)],
            resumed_seq: 2,
            recovered: true,
        }),
        ..Observation::default()
    };
    let gap = |lo: u64, hi: u64| {
        obs.commit_gap_max(Micros::from_millis(lo), Micros::from_millis(hi))
            .as_millis_f64()
    };
    // Party 0: 1000 → 1300 → 1900 (600); party 1 waits 1500 → 1950 after
    // its restart (450) — its 1200..1500 outage is not a gap.
    assert_eq!(gap(1_000, 1_900), 600.0);
    // Window edges are boundaries: nothing after 1900 until 2600.
    assert_eq!(gap(1_000, 2_600), 700.0);
    // Restart → first new commit dominates once party 0's gap is cut.
    assert_eq!(gap(1_300, 1_950), 600.0);
    assert_eq!(gap(1_400, 1_950), 500.0);
}

#[test]
fn failed_frac_on_a_tribe_is_the_uncommitted_tail() {
    let obs = observe_plan(&small_plan(4, 10, 3));
    let m = obs.metrics();
    // Brute force: a batch counts once every honest log holds its vertex.
    let everywhere = |b: &Batch| {
        obs.logs
            .iter()
            .all(|(_, log)| log.iter().any(|c| c.vertex == b.vertex))
    };
    let committed = |finished: bool| -> u64 {
        obs.batches
            .iter()
            .filter(|b| everywhere(b) && (!finished || b.vertex.round.0 <= 8))
            .map(|b| b.count)
            .sum()
    };
    let proposed: u64 = obs.batches.iter().map(|b| b.count).sum();
    assert_eq!(m.offered, proposed, "synthetic load proposes all it admits");
    assert_eq!(m.committed_txs, committed(false));
    // Rounds 9 and 10 are cut off; everything before them commits.
    assert_eq!(m.failed, m.offered - committed(true));
    let per_round = m.offered / 11;
    assert_eq!(m.failed, 2 * per_round, "{m:?}");
    assert!(gate::check(&obs).is_empty(), "{:?}", gate::check(&obs));
}

#[test]
fn latency_percentiles_are_exact_and_transaction_weighted() {
    let obs = observe_plan(&small_plan(5, 10, 4));
    let m = obs.metrics();
    let everywhere = obs.committed_everywhere();
    let mut per_tx: Vec<u64> = Vec::new();
    for b in &obs.batches {
        let in_window = (2..=8).contains(&b.vertex.round.0);
        if let (true, Some(at)) = (in_window, everywhere.get(&b.vertex)) {
            per_tx.extend(std::iter::repeat_n(
                at.saturating_sub(b.created_at).0,
                b.count as usize,
            ));
        }
    }
    per_tx.sort_unstable();
    let rank = |q: f64| per_tx[((per_tx.len() as f64 * q).ceil() as usize).max(1) - 1];
    assert_eq!(m.window_txs, per_tx.len() as u64);
    assert_eq!(m.commit_p50_ms, rank(0.50) as f64 / 1_000.0);
    assert_eq!(m.commit_p99_ms, rank(0.99) as f64 / 1_000.0);
    assert!(m.commit_p99_ms >= m.commit_p50_ms && m.commit_p50_ms > 0.0);
}

#[test]
fn a_crashed_leader_shows_up_as_a_commit_gap() {
    let (n, seed) = (7, 5);
    let benign = observe_plan(&small_plan(n, 10, seed)).metrics();
    let mut faulty = small_plan(n, 10, seed);
    let leader = LeaderSchedule::new(n, seed).leader(Round(5));
    faulty.spec.crashes = vec![(leader, Micros::ZERO)];
    let obs = observe_plan(&faulty);
    let m = obs.metrics();
    assert!(gate::check(&obs).is_empty(), "{:?}", gate::check(&obs));
    let timeout = 1_200.0;
    assert!(benign.commit_gap_max_ms < timeout, "{benign:?}");
    assert!(m.commit_gap_max_ms >= timeout, "{m:?}");
}

#[test]
fn same_seed_is_bit_identical_and_another_seed_differs() {
    let a = observe_plan(&small_plan(4, 8, 21)).metrics();
    let b = observe_plan(&small_plan(4, 8, 21)).metrics();
    let c = observe_plan(&small_plan(4, 8, 22)).metrics();
    assert!(a.identical(&b), "{a:?} vs {b:?}");
    assert!(
        !a.identical(&c),
        "seed change left every metric unchanged: {a:?}"
    );
}

/// Every party's committed order: `(sequence, vertex, committed_at)`.
type Orders = Vec<Vec<(u64, VertexRef, Micros)>>;

/// What a run of `plan`'s tribe did when its event loop was driven by
/// `run_until` calls at `deadlines`: events handled, wire bytes and every
/// party's committed order with commit times.
fn drive_in_steps(plan: &Plan, deadlines: &[Micros]) -> (u64, u64, Orders) {
    let mut built = build_tribe(&plan.spec);
    for &d in deadlines {
        built.sim.run_until(d);
    }
    let logs = built
        .sim
        .nodes()
        .map(|node| {
            node.committed_log
                .iter()
                .map(|c| (c.sequence, c.vertex, c.committed_at))
                .collect()
        })
        .collect();
    let stats = built.sim.stats();
    (stats.handled_events, stats.total_bytes(), logs)
}

#[test]
fn slicing_the_event_loop_changes_nothing() {
    // The benchmark times the event loop in 20 ms slices of simulated
    // time; that must process the same events as one `run_until` call.
    let plan = small_plan(5, 8, 17);
    let whole = drive_in_steps(&plan, &[plan.horizon]);
    let slices: Vec<Micros> = (1..)
        .map(|i| Micros(i * 20_000))
        .take_while(|&d| d < plan.horizon)
        .chain([plan.horizon])
        .collect();
    let sliced = drive_in_steps(&plan, &slices);
    assert!(whole.0 > 0 && whole.2.iter().all(|log| !log.is_empty()));
    assert_eq!(whole, sliced);
}

#[test]
fn gate_flags_divergence_duplicates_and_gaps() {
    let good = observe_plan(&small_plan(4, 8, 9));
    assert!(gate::check(&good).is_empty());

    let mut diverged = good.clone();
    let log = &mut diverged.logs[1].1;
    log.swap(0, 1);
    assert!(gate::check(&diverged)[0].contains("not a prefix"));

    let mut twice = good.clone();
    twice.own_ranges = vec![(PartyId(0), vec![(0, 10), (5, 10)])];
    assert!(gate::check(&twice)[0].contains("committed twice"));

    let mut gap = good.clone();
    let honest = &good.logs[0].1;
    gap.restarted = Some(Restarted {
        party: PartyId(3),
        crash_at: Micros::ZERO,
        restart_at: Micros::ZERO,
        before: Vec::new(),
        after: vec![honest[0], honest[2]],
        resumed_seq: 0,
        recovered: true,
    });
    assert!(gate::check(&gap)[0].contains("gap"));
}

#[test]
fn restarted_party_rejoins_gap_free() {
    let dir = scratch("restart");
    let mut p = small_plan(4, 14, 7);
    p.spec.storage_root = Some(dir.clone());
    let (party, crash_at, restart_at) = (
        PartyId(2),
        Micros::from_millis(900),
        Micros::from_millis(2_600),
    );
    p.spec.crashes = vec![(party, crash_at)];
    p.spec.restarts = vec![(party, restart_at)];
    p.crash = Some((party, crash_at, restart_at));
    let obs = observe_plan(&p);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(gate::check(&obs).is_empty(), "{:?}", gate::check(&obs));
    let r = obs.restarted.as_ref().expect("restart observed");
    assert!(!r.before.is_empty() && !r.after.is_empty());
    assert!(r.after[0].at > restart_at);
    // The restarted proposer's pre-crash proposals still count as offered.
    assert!(obs
        .batches
        .iter()
        .any(|b| b.vertex.source == party && b.created_at < crash_at));
}

#[test]
fn open_loop_audit_sees_every_own_batch_once() {
    let mut p = small_plan(4, 10, 2);
    p.spec.workload = Some(WorkloadSpec::OpenLoop {
        rate_tps: 2_000.0,
        clients: 100,
        zipf_s: 0.99,
        stop_at_round: 10,
    });
    p.spec.gc_depth = None;
    p.audit_exactly_once = true;
    let obs = observe_plan(&p);
    assert!(gate::check(&obs).is_empty(), "{:?}", gate::check(&obs));
    assert_eq!(obs.own_ranges.len(), 4);
    assert!(obs.own_ranges.iter().all(|(_, r)| !r.is_empty()));
    let m = obs.metrics();
    assert!(m.failed_frac > 0.0 && m.failed_frac < 0.5, "{m:?}");
}

#[test]
fn byte_split_covers_every_message_kind() {
    let dir = scratch("kinds");
    let mut spec = small_plan(4, 14, 7).spec;
    spec.storage_root = Some(dir.clone());
    spec.crashes = vec![(PartyId(2), Micros::from_millis(900))];
    spec.restarts = vec![(PartyId(2), Micros::from_millis(2_600))];
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    let _ = std::fs::remove_dir_all(&dir);
    let stats = built.sim.stats();
    let split: u64 = BYTE_SPLIT
        .iter()
        .flat_map(|(_, kinds)| kinds.iter())
        .map(|k| stats.kind_bytes(k))
        .sum();
    assert!(
        stats.kind_bytes("state.chunk") > 0,
        "the restart transfers state"
    );
    assert_eq!(split, stats.bytes_by_kind.values().sum::<u64>());
}

#[test]
fn workload_plans_follow_the_seed() {
    let root = scratch("plans");
    for w in Workload::ALL {
        assert_eq!(Workload::by_name(w.name()), Some(w));
        let a = plan(w, 11, &root);
        assert_eq!(a.spec.n, 50);
        assert!(a.warmup_rounds < a.last_round && a.last_round < a.rounds);
    }
    for seed in 0..40 {
        let p = plan(Workload::MclanDurableCrash, seed, &root);
        let (party, crash_at, restart_at) = p.crash.expect("crash workload");
        let schedule = LeaderSchedule::new(50, seed);
        assert!((0..=p.rounds).all(|r| !schedule.is_leader(party, Round(r))));
        assert_eq!(
            restart_at.saturating_sub(crash_at),
            Micros::from_millis(2_500)
        );
        assert_eq!(p.spec.storage_root.as_deref(), Some(root.as_path()));
    }
    assert_eq!(Workload::by_name("nope"), None);
}
