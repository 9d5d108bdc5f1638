//! Trace summary: run an instrumented single-clan tribe, derive the
//! commit-latency stage breakdown from the protocol event log, and check the
//! trace invariants that CI relies on.
//!
//! ```text
//! cargo run --example trace_summary
//! ```
//!
//! The run attaches a `MemRecorder` to the simulator and every node, so each
//! protocol step (round entry, proposal, RBC phases, votes, commits) lands in
//! one time-stamped event stream. The stream is exported as a merged NDJSON
//! trace and judged by the `clanbft-inspect` library — the same sequence
//! contiguity, round monotonicity, agreement, stage-ordering and span
//! completeness invariants `clanbft-inspect check` enforces on trace files
//! (see `crates/inspect/src/check.rs` for the full list). On top of the
//! shared gate this example asserts a benign-run-only property the generic
//! checker cannot: the attack-indicating robustness counters stay zero.
//!
//! Exits non-zero if any invariant fails, so `scripts/ci.sh` can run it as
//! an end-to-end telemetry check.

use clanbft_inspect::{check_report, estimate_delta};
use clanbft_sim::{build_tribe, collect_metrics, export_trace, tribe::elect_clan, TribeSpec};
use clanbft_telemetry::span::SpanSet;
use clanbft_telemetry::{counters, mempool_summary, stage_breakdown, Telemetry, Trace};
use clanbft_types::Micros;

fn main() {
    let n = 10;
    let clan = elect_clan(n, 5, 42);
    let (telemetry, recorder) = Telemetry::mem();

    let mut spec = TribeSpec::new(n);
    spec.clans = Some(vec![clan]);
    spec.txs_per_proposal = 100;
    spec.max_round = Some(10);
    spec.seed = 42;
    spec.telemetry = telemetry;

    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(120));

    let events = recorder.events();
    println!("captured {} protocol events", events.len());
    assert!(!events.is_empty(), "instrumented run produced no events");

    // --- shared trace invariants (the `clanbft-inspect check` gate) --------
    let trace = Trace::parse(&export_trace(&spec, &recorder)).expect("trace parses");
    let (report, ok) = check_report(&trace);
    print!("{report}");
    assert!(ok, "trace failed the clanbft-inspect invariant gate");
    let spans = SpanSet::from_events(&trace.events);
    println!(
        "spans: {} blocks, {} committing parties, delta~={}us",
        spans.spans.len(),
        spans.committers.len(),
        estimate_delta(&spans).unwrap_or(0)
    );

    // --- benign-run extras: robustness counters ----------------------------
    // Surface every rejection/recovery counter, then assert the ones that can
    // only tick under attack are zero. `rejected.duplicate` and `pull.retries`
    // may tick benignly (redundant broadcast copies, slow echoers), so they
    // are reported but not constrained.
    let report = [
        counters::REJECTED_BAD_SIG,
        counters::REJECTED_DUPLICATE,
        counters::REJECTED_EQUIVOCATION,
        counters::REJECTED_BUFFER_FULL,
        counters::REJECTED_BAD_PAYLOAD,
        counters::PULL_RETRIES,
        counters::EVIDENCE_RECORDED,
    ];
    for name in report {
        println!("counter {name} = {}", recorder.counter(name));
    }
    for name in [
        counters::REJECTED_BAD_SIG,
        counters::REJECTED_EQUIVOCATION,
        counters::REJECTED_BAD_PAYLOAD,
        counters::EVIDENCE_RECORDED,
    ] {
        assert_eq!(
            recorder.counter(name),
            0,
            "benign run ticked attack-indicating counter {name}"
        );
    }
    println!("robustness ok: no attack-indicating counters on a benign run");

    // --- durability counters: benignly zero without a storage_dir -----------
    // This run configures no storage root, crashes nobody, and rotates no
    // epochs, so the whole durability subsystem must stay silent: no WAL
    // appends, no checkpoints, no state transfer, no rotations. A tick here
    // means the recovery path leaked into the steady-state hot path.
    let durability = [
        counters::WAL_APPENDS,
        counters::WAL_BYTES,
        counters::WAL_FSYNCS,
        counters::CHECKPOINT_WRITTEN,
        counters::STATE_TRANSFER_REQUESTS,
        counters::STATE_TRANSFER_CHUNKS,
        counters::STATE_TRANSFER_BYTES,
        counters::ELECTION_EPOCH_ROTATIONS,
    ];
    for name in durability {
        println!("counter {name} = {}", recorder.counter(name));
        assert_eq!(
            recorder.counter(name),
            0,
            "storage-less benign run ticked durability counter {name}"
        );
    }
    println!("durability ok: recovery subsystem silent without a storage root\n");

    // --- stage breakdown and run summary -----------------------------------
    let breakdown = stage_breakdown(&events);
    print!("{}", breakdown.to_ndjson());

    // Client-ingress picture: admission/rejection counters plus queue-delay
    // and batch-size distributions. Even this synthetic run exercises the
    // mempool path, so admitted == pulled and nothing is rejected.
    println!("{}", mempool_summary(&recorder));
    let admitted = recorder.counter(counters::MEMPOOL_ADMITTED);
    let pulled = recorder.counter(counters::MEMPOOL_PULLED);
    assert!(
        admitted > 0,
        "synthetic workload admits through the mempool"
    );
    assert_eq!(admitted, pulled, "synthetic pulls drain every admission");

    let stats = built.sim.stats();
    println!(
        "\nwire: {} msgs, {} dropped, {} held by partitions",
        stats.sent_msgs.iter().sum::<u64>(),
        stats.dropped_msgs,
        stats.partitioned_msgs
    );
    let metrics = collect_metrics(&built.sim, &built.honest, 2, 8);
    println!("{}", metrics.to_json());
}
