//! Load-generation smoke gate: a closed-loop run with >= 100k simulated
//! client transactions, audited for exactly-once commit.
//!
//! ```text
//! cargo run --release --example loadgen_smoke [out_dir]   # default target/loadgen
//! ```
//!
//! A 4-party baseline tribe runs the closed-loop workload (13k clients per
//! proposer, 2 outstanding each, Zipf-free: closed loop is deterministic
//! feedback). The workload stops at round 16 so the mempool and in-flight
//! set fully drain while rounds keep advancing; the audit then requires,
//! for every proposer:
//!
//! * `admitted == pulled`, queue empty, nothing in flight;
//! * the union of the proposer's committed blocks carries proposer
//!   sequence numbers exactly `0..pulled` — every admitted transaction
//!   committed exactly once, none duplicated, none lost.
//!
//! The instrumented trace is re-judged by the `clanbft-inspect` library
//! gate in-process and written to `out_dir/loadgen.ndjson` so `ci.sh` can
//! re-judge it through the `clanbft-inspect` binary as well. Exits non-zero
//! on any violation.

use clanbft_inspect::check_report;
use clanbft_mempool::WorkloadSpec;
use clanbft_sim::{build_tribe, export_trace, write_trace, TribeSpec};
use clanbft_telemetry::{counters, mempool_summary, Telemetry, Trace};
use clanbft_types::Micros;

const CLIENTS: u64 = 13_000;
const OUTSTANDING: u32 = 2;
const STOP_ROUND: u64 = 16;
const MAX_ROUND: u64 = 32;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/loadgen".to_string());

    let (telemetry, recorder) = Telemetry::mem();
    let mut spec = TribeSpec::new(4);
    spec.workload = Some(WorkloadSpec::ClosedLoop {
        clients: CLIENTS,
        outstanding: OUTSTANDING,
        stop_at_round: STOP_ROUND,
    });
    spec.gc_depth = None; // the exactly-once audit reads every block back
    spec.max_round = Some(MAX_ROUND);
    spec.seed = 42;
    spec.telemetry = telemetry;

    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(600));

    // --- exactly-once audit -------------------------------------------------
    let mut total_admitted: u64 = 0;
    for &p in &built.honest {
        let node = built.sim.node(p);
        let ingress = node.ingress().expect("baseline: every node proposes");
        let stats = ingress.pool().stats();
        assert_eq!(stats.rejected(), 0, "{p}: benign run rejected txs");
        assert_eq!(stats.admitted, stats.pulled, "{p}: pool not drained");
        assert!(ingress.pool().is_empty(), "{p}: txs left queued");
        assert_eq!(ingress.in_flight_txs(), 0, "{p}: txs left in flight");

        let mut seen = vec![false; stats.pulled as usize];
        for c in &node.committed_log {
            if c.vertex.source != p {
                continue;
            }
            let block = node.held_block(&c.vertex).expect("own block held");
            for b in &block.batches {
                assert_eq!(b.creator, p, "{p}: foreign batch in own block");
                for seq in b.first_seq..b.first_seq + u64::from(b.count) {
                    let i = usize::try_from(seq).expect("seq fits usize");
                    assert!(i < seen.len(), "{p}: seq {seq} never pulled");
                    assert!(!seen[i], "{p}: seq {seq} committed twice");
                    seen[i] = true;
                }
            }
        }
        let missing = seen.iter().filter(|&&s| !s).count();
        assert_eq!(missing, 0, "{p}: {missing} admitted txs never committed");
        println!(
            "{p}: {} admitted == {} pulled == committed exactly once",
            stats.admitted, stats.pulled
        );
        total_admitted += stats.admitted;
    }
    assert!(
        total_admitted >= 100_000,
        "smoke must push >= 100k client txs, got {total_admitted}"
    );
    println!("exactly-once ok: {total_admitted} client txs committed once each");

    // --- mempool telemetry --------------------------------------------------
    println!("{}", mempool_summary(&recorder));
    assert_eq!(
        recorder.counter(counters::MEMPOOL_ADMITTED),
        total_admitted,
        "telemetry admission counter matches the per-node stats"
    );
    assert_eq!(recorder.counter(counters::MEMPOOL_REJECTED_FULL), 0);

    // --- trace gate ---------------------------------------------------------
    let trace = Trace::parse(&export_trace(&spec, &recorder)).expect("trace parses");
    let (report, ok) = check_report(&trace);
    print!("{report}");
    assert!(ok, "trace failed the clanbft-inspect invariant gate");

    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let path = format!("{out_dir}/loadgen.ndjson");
    write_trace(&spec, &recorder, &path).expect("write trace");
    println!("trace -> {path}");
}
