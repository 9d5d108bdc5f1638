//! The per-layer ledger of a traced run.
//!
//! Every number is taken from outside the program: the simulator's traffic
//! statistics, the telemetry recorder's counters, histograms and protocol
//! events, the profiler's existing scopes (timing-only mode) and the
//! bench-side handler timer ([`crate::adapter::Timed`]). Stage and
//! queue-delay percentiles are exact order statistics over event
//! timestamps, weighted by transactions like the end-to-end latency.

use crate::adapter::HostTime;
use crate::outcome::Observation;
use crate::run::Rep;
use crate::stats::{median, quantile, weighted_quantile};
use clanbft_profiler::Report;
use clanbft_telemetry::{counters, Event, MemRecorder, RbcPhase};
use clanbft_types::{Micros, PartyId, Round, VertexRef};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Wire-byte buckets: `(metric, message kinds)`. Together they cover every
/// kind the consensus messages report.
pub const BYTE_SPLIT: [(&str, &[&str]); 8] = [
    ("bytes.rbc_val_per_tx", &["rbc.val"]),
    ("bytes.rbc_echo_per_tx", &["rbc.echo", "rbc.ready"]),
    ("bytes.rbc_cert_per_tx", &["rbc.cert"]),
    ("bytes.rbc_meta_per_tx", &["rbc.meta", "rbc.meta_resp"]),
    ("bytes.rbc_pull_per_tx", &["rbc.pull", "rbc.pull_resp"]),
    ("bytes.vote_per_tx", &["vote"]),
    ("bytes.timeout_per_tx", &["timeout"]),
    (
        "bytes.state_per_tx",
        &["state.request", "state.snapshot", "state.chunk"],
    ),
];

/// Host time of the outermost entries into scopes `matches` selects
/// (nested re-entries are already inside their parent's total).
fn scope_time(profile: &Report, matches: impl Fn(&str) -> bool) -> HostTime {
    let mut t = HostTime::default();
    for s in &profile.scopes {
        let segments = s.path.split(';');
        let outermost = segments.filter(|seg| matches(seg)).count() == 1;
        if matches(&s.name) && outermost {
            t.calls += s.calls;
            t.ns += s.total_ns;
        }
    }
    t
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ms(us: Option<u64>) -> f64 {
    us.unwrap_or(0) as f64 / 1_000.0
}

/// Per-vertex event timestamps the stage split needs.
#[derive(Default)]
struct Timeline {
    proposed: HashMap<VertexRef, Micros>,
    certified: HashMap<(VertexRef, PartyId), Micros>,
    committed: HashMap<(VertexRef, PartyId), (Micros, bool)>,
    pending_peak: u64,
    timeouts: u64,
}

fn timeline(rec: &MemRecorder) -> Timeline {
    let mut t = Timeline::default();
    for s in rec.events() {
        let at = s.at;
        let vref = |round: Round, source: PartyId| VertexRef { round, source };
        match s.event {
            Event::VertexProposed { round, .. } => {
                t.proposed.entry(vref(round, s.party)).or_insert(at);
            }
            Event::Rbc {
                phase: RbcPhase::Certified,
                round,
                source,
            } => {
                t.certified
                    .entry((vref(round, source), s.party))
                    .or_insert(at);
            }
            Event::VertexCommitted {
                round,
                source,
                leader,
                ..
            } => {
                t.committed
                    .entry((vref(round, source), s.party))
                    .or_insert((at, leader));
            }
            Event::DagLive { pending, .. } => t.pending_peak = t.pending_peak.max(pending),
            Event::TimeoutAnnounced { .. } => t.timeouts += 1,
            _ => {}
        }
    }
    t
}

/// Latency stages of the window's committed transactions.
struct Stages {
    queue: Vec<(u64, u64)>,
    certify: Vec<(u64, u64)>,
    commit_leader: Vec<(u64, u64)>,
    commit_nonleader: Vec<(u64, u64)>,
    everywhere: Vec<(u64, u64)>,
}

fn stages(obs: &Observation, t: &Timeline) -> Stages {
    let everywhere = obs.committed_everywhere();
    let honest: Vec<PartyId> = obs.logs.iter().map(|(p, _)| *p).collect();
    let mut weight: HashMap<VertexRef, u64> = HashMap::new();
    let mut out = Stages {
        queue: Vec::new(),
        certify: Vec::new(),
        commit_leader: Vec::new(),
        commit_nonleader: Vec::new(),
        everywhere: Vec::new(),
    };
    for b in &obs.batches {
        let counted = obs.in_window(&b.vertex) && everywhere.contains_key(&b.vertex) && b.count > 0;
        if !counted {
            continue;
        }
        *weight.entry(b.vertex).or_insert(0) += b.count;
        if let Some(p) = t.proposed.get(&b.vertex) {
            out.queue.push((p.saturating_sub(b.created_at).0, b.count));
        }
    }
    for (&v, &w) in &weight {
        let Some(&proposed) = t.proposed.get(&v) else {
            continue;
        };
        let mut first = Micros(u64::MAX);
        let mut last = Micros::ZERO;
        for &p in &honest {
            let Some(&(done, leader)) = t.committed.get(&(v, p)) else {
                continue;
            };
            // A party may learn a certificate through a later vertex's
            // justification before its own instance certifies: the whole
            // interval is then dissemination.
            let cert = t.certified.get(&(v, p)).copied().unwrap_or(done).min(done);
            out.certify.push((cert.saturating_sub(proposed).0, w));
            let wait = (done.saturating_sub(cert).0, w);
            if leader {
                out.commit_leader.push(wait);
            } else {
                out.commit_nonleader.push(wait);
            }
            first = first.min(done);
            last = last.max(done);
        }
        if last >= first {
            out.everywhere.push((last.saturating_sub(first).0, w));
        }
    }
    out
}

/// Inputs of the ledger beyond the traced repetition itself.
pub struct HostRuns<'a> {
    /// Event-loop seconds of the untraced repetitions, normalized to the
    /// reference host ([`crate::calibrate`]).
    pub untraced_ref_s: &'a [f64],
    /// The same for the traced repetitions.
    pub traced_ref_s: &'a [f64],
    /// End-to-end median latency of the run, for the unattributed stage.
    pub commit_p50_ms: f64,
}

/// Computes every per-layer metric from one traced repetition.
pub fn ledger(rep: &Rep, host: &HostRuns) -> Vec<Metric> {
    let trace = rep
        .trace
        .as_ref()
        .expect("ledger needs a traced repetition");
    let rec = &trace.rec;
    let profile = &trace.profile;
    let obs = &rep.obs;
    let net = &rep.net;
    let committed = obs.metrics().committed_txs.max(1) as f64;
    let named = |name: &str| scope_time(profile, |s| s == name);

    // Host time: the event loop minus every handler is the simulator's own
    // dispatch; inside handlers, the profiler's scopes name the layers.
    let handlers_ns: u64 = trace.handlers.values().map(|t| t.ns).sum();
    let dispatch_s = (rep.wall_s - secs(handlers_ns)).max(0.0);
    let in_handlers: u64 = profile
        .scopes
        .iter()
        .filter(|s| !s.name.starts_with("sim."))
        .map(|s| s.self_ns)
        .sum();
    let attributed_pct = 100.0 * (dispatch_s + secs(in_handlers)) / rep.wall_s;
    let untraced = median(host.untraced_ref_s);
    let traced = median(host.traced_ref_s);

    let t = timeline(rec);
    let mut st = stages(obs, &t);
    let q = |s: &mut Vec<(u64, u64)>, p: f64| ms(weighted_quantile(s, p));
    let queue_p50 = q(&mut st.queue, 0.50);
    let certify_p50 = q(&mut st.certify, 0.50);
    let everywhere_p50 = q(&mut st.everywhere, 0.50);
    let mut wait: Vec<(u64, u64)> = st
        .commit_leader
        .iter()
        .chain(&st.commit_nonleader)
        .copied()
        .collect();
    let wait_p50 = q(&mut wait, 0.50);

    let kind_bytes = |kinds: &[&str]| kinds.iter().map(|k| net.kind_bytes(k)).sum::<u64>();
    let mut proposals: BTreeMap<VertexRef, u64> = BTreeMap::new();
    for b in obs.batches.iter().filter(|b| b.count > 0) {
        *proposals.entry(b.vertex).or_insert(0) += b.count;
    }
    let batch_sizes: Vec<u64> = proposals.into_values().collect();

    let fsync = rec
        .histogram(counters::WAL_FSYNC_MICROS)
        .unwrap_or_default();
    let fsync_s = (fsync.mean() * fsync.count() as f64).round() / 1e6;
    let catchup_ms = obs
        .restarted
        .as_ref()
        .and_then(|r| Some(r.after.first()?.at.saturating_sub(r.restart_at)))
        .map_or(0.0, |d| d.as_millis_f64());

    let rbc = named("rbc.handle");
    let mut m: Vec<Metric> = vec![
        ("simnet.events", net.handled_events as f64, "count"),
        (
            "simnet.events_per_sec",
            net.handled_events as f64 / untraced,
            "1/s",
        ),
        (
            "simnet.msgs_sent",
            net.sent_msgs.iter().sum::<u64>() as f64,
            "count",
        ),
        ("simnet.dispatch_s", dispatch_s, "s"),
        ("rbc.handle_s", secs(rbc.ns), "s"),
        ("rbc.handle_calls", rbc.calls as f64, "count"),
    ];
    for (name, kinds) in BYTE_SPLIT {
        m.push((name, kind_bytes(kinds) as f64 / committed, "B/tx"));
    }
    m.extend([
        ("stage.certify_p50_ms", certify_p50, "ms"),
        ("stage.certify_p99_ms", q(&mut st.certify, 0.99), "ms"),
        (
            "consensus.handle_s",
            secs(scope_time(profile, |s| s.starts_with("consensus.")).ns),
            "s",
        ),
        (
            "stage.commit_leader_p50_ms",
            q(&mut st.commit_leader, 0.50),
            "ms",
        ),
        (
            "stage.commit_nonleader_p50_ms",
            q(&mut st.commit_nonleader, 0.50),
            "ms",
        ),
        ("stage.commit_wait_p50_ms", wait_p50, "ms"),
        ("stage.everywhere_p50_ms", everywhere_p50, "ms"),
        (
            "stage.unattributed_p50_ms",
            host.commit_p50_ms - queue_p50 - certify_p50 - wait_p50 - everywhere_p50,
            "ms",
        ),
        ("consensus.timeouts", t.timeouts as f64, "count"),
        ("dag.insert_s", secs(named("dag.insert").ns), "s"),
        (
            "dag.causal_order_s",
            secs(named("dag.causal_order").ns),
            "s",
        ),
        ("dag.pending_peak", t.pending_peak as f64, "count"),
        ("mempool.queue_delay_p50_ms", queue_p50, "ms"),
        ("mempool.queue_delay_p99_ms", q(&mut st.queue, 0.99), "ms"),
        (
            "mempool.batch_p50",
            quantile(&batch_sizes, 0.50).unwrap_or(0) as f64,
            "count",
        ),
        ("mempool.rejected", obs.rejected as f64, "count"),
        ("mempool.admit_s", secs(named("mempool.admit").ns), "s"),
        (
            "storage.fsyncs",
            rec.counter(counters::WAL_FSYNCS) as f64,
            "count",
        ),
        ("storage.fsync_s", fsync_s, "s"),
        ("storage.fsync_p50_us", fsync.percentile(0.50) as f64, "us"),
        ("storage.fsync_p99_us", fsync.percentile(0.99) as f64, "us"),
        (
            "storage.wal_bytes_per_commit",
            rec.counter(counters::WAL_BYTES) as f64
                / rec.counter(counters::COMMIT_VERTICES).max(1) as f64,
            "B",
        ),
        ("recovery.catchup_ms", catchup_ms, "ms"),
        ("crypto.sign_s", secs(named("crypto.sign").ns), "s"),
        (
            "codec.block_digest_s",
            secs(named("codec.block_digest").ns),
            "s",
        ),
        ("host.attributed_pct", attributed_pct, "%"),
        ("trace.overhead_pct", 100.0 * (traced / untraced - 1.0), "%"),
    ]);
    m
}

/// Message kinds the byte split does not name (must stay empty: a new
/// kind has to be given a bucket).
pub fn unsplit_kinds(rep: &Rep) -> Vec<&'static str> {
    let named: HashSet<&str> = BYTE_SPLIT
        .iter()
        .flat_map(|(_, k)| k.iter().copied())
        .collect();
    rep.net
        .bytes_by_kind
        .keys()
        .copied()
        .filter(|k| !named.contains(k))
        .collect()
}
