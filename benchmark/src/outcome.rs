//! What a finished run committed, and the end-to-end metrics derived from
//! it. Everything here is simulated-time and exact per seed.
//!
//! Definitions (all over honest parties; the crashed-and-restarted party of
//! the crash workload is not honest, but its proposals count as offered
//! and its gaps count toward `commit_gap_max_ms`):
//!
//! * a vertex is *committed everywhere* once every honest party committed
//!   it, at the latest of their commit times;
//! * the *window* is the vertices of rounds `warmup..=last_round`; in time
//!   it runs from the commit-everywhere instant of the leader of round
//!   `warmup − 1` to that of the leader of round `last_round` (the latest
//!   committed leader at or before each, if one timed out). Windows span a
//!   multiple of five rounds so every region leads equally often: leaders
//!   rotate through consecutive parties and parties are placed round-robin
//!   over the five regions;
//! * a transaction's latency runs from its batch's creation stamp (its
//!   due/arrival time) to its vertex's commit-everywhere time;
//! * a transaction *failed* if admission rejected it, if it was admitted
//!   but never proposed, or if it was not committed everywhere in a
//!   finished round. The last two proposal rounds are cut off by the end
//!   of the run (committing them needs leaders the run never reaches), so
//!   their transactions count as failed even when the final leader sweeps
//!   some of them in; which ones it sweeps in depends on arrival order at
//!   that leader, and counting them would turn the tail into seed noise.

use crate::stats::weighted_quantile;
use clanbft_types::{Micros, PartyId, Round, VertexRef};
use std::collections::HashMap;

/// One entry of a party's total order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Commit {
    /// Global position in the total order.
    pub seq: u64,
    /// The ordered vertex.
    pub vertex: VertexRef,
    /// When the party committed it (simulated).
    pub at: Micros,
}

/// One batch of client transactions as its proposer recorded it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Batch {
    /// The vertex carrying the batch.
    pub vertex: VertexRef,
    /// Creation stamp: the batch's earliest due/arrival time.
    pub created_at: Micros,
    /// Transactions in the batch.
    pub count: u64,
}

/// The party that crashed and restarted, with both incarnations' logs.
#[derive(Clone, Debug)]
pub struct Restarted {
    /// The party.
    pub party: PartyId,
    /// Crash time.
    pub crash_at: Micros,
    /// Restart time.
    pub restart_at: Micros,
    /// Commits of the first incarnation.
    pub before: Vec<Commit>,
    /// Commits of the restarted incarnation.
    pub after: Vec<Commit>,
    /// Global sequence the restarted incarnation resumed at.
    pub resumed_seq: u64,
    /// Whether the restarted incarnation rebuilt itself from disk.
    pub recovered: bool,
}

/// Everything the end-to-end metrics and the correctness gate read from a
/// finished run.
#[derive(Clone, Debug, Default)]
pub struct Observation {
    /// Total order of every honest party.
    pub logs: Vec<(PartyId, Vec<Commit>)>,
    /// The crashed-and-restarted party, if the workload has one.
    pub restarted: Option<Restarted>,
    /// Every proposal's batches (each vertex once, both incarnations).
    pub batches: Vec<Batch>,
    /// Transactions offered to the proposers' ingress (admitted + rejected).
    pub offered: u64,
    /// Transactions rejected at admission.
    pub rejected: u64,
    /// Client sequence ranges `(first_seq, count)` in each audited
    /// proposer's own committed blocks (empty unless audited).
    pub own_ranges: Vec<(PartyId, Vec<(u64, u64)>)>,
    /// Wire bytes over the whole run.
    pub wire_bytes: u64,
    /// The last proposal round.
    pub rounds: u64,
    /// The leader of every round the run could reach, indexed by round.
    pub leaders: Vec<PartyId>,
    /// First round of the measured window.
    pub warmup_rounds: u64,
    /// Last round of the measured window.
    pub last_round: u64,
}

/// The simulated end-to-end metrics of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimMetrics {
    /// Transactions committed everywhere inside the window, per simulated
    /// second of it.
    pub commit_tps: f64,
    /// Transaction-weighted median latency.
    pub commit_p50_ms: f64,
    /// Transaction-weighted 99th-percentile latency.
    pub commit_p99_ms: f64,
    /// Wire bytes per transaction committed everywhere.
    pub bytes_per_tx: f64,
    /// Failed transactions (see the module docs) over offered.
    pub failed_frac: f64,
    /// Longest commit-free gap at an honest (or restarted) party inside
    /// the window.
    pub commit_gap_max_ms: f64,
    /// Transactions behind the latency percentiles.
    pub window_txs: u64,
    /// Batches behind the latency percentiles.
    pub window_batches: u64,
    /// Transactions committed everywhere over the whole run.
    pub committed_txs: u64,
    /// Transactions offered.
    pub offered: u64,
    /// Failed transactions (see the module docs).
    pub failed: u64,
}

impl SimMetrics {
    /// Bit-exact equality, the determinism check's notion of "identical".
    pub fn identical(&self, other: &SimMetrics) -> bool {
        let f = |a: f64, b: f64| a.to_bits() == b.to_bits();
        f(self.commit_tps, other.commit_tps)
            && f(self.commit_p50_ms, other.commit_p50_ms)
            && f(self.commit_p99_ms, other.commit_p99_ms)
            && f(self.bytes_per_tx, other.bytes_per_tx)
            && f(self.failed_frac, other.failed_frac)
            && f(self.commit_gap_max_ms, other.commit_gap_max_ms)
            && self.window_txs == other.window_txs
            && self.window_batches == other.window_batches
            && self.committed_txs == other.committed_txs
            && self.offered == other.offered
            && self.failed == other.failed
    }
}

fn ms(us: u64) -> f64 {
    us as f64 / 1_000.0
}

impl Observation {
    /// Commit-everywhere time of every vertex all honest parties committed.
    pub fn committed_everywhere(&self) -> HashMap<VertexRef, Micros> {
        let mut seen: HashMap<VertexRef, (usize, Micros)> = HashMap::new();
        for (_, log) in &self.logs {
            for c in log {
                let e = seen.entry(c.vertex).or_insert((0, Micros::ZERO));
                e.0 += 1;
                e.1 = e.1.max(c.at);
            }
        }
        seen.into_iter()
            .filter(|(_, (count, _))| *count == self.logs.len())
            .map(|(v, (_, at))| (v, at))
            .collect()
    }

    /// Whether `v` belongs to the measured window's rounds.
    pub fn in_window(&self, v: &VertexRef) -> bool {
        (self.warmup_rounds..=self.last_round).contains(&v.round.0)
    }

    /// Per-batch `(latency µs, transactions)` samples over the window.
    fn latency_samples(&self, everywhere: &HashMap<VertexRef, Micros>) -> Vec<(u64, u64)> {
        self.batches
            .iter()
            .filter(|b| self.in_window(&b.vertex) && b.count > 0)
            .filter_map(|b| {
                let at = everywhere.get(&b.vertex)?;
                Some((at.saturating_sub(b.created_at).0, b.count))
            })
            .collect()
    }

    /// The window in time: the commit-everywhere instants of the leaders
    /// closing round `warmup − 1` and round `last_round` (`None` when no
    /// leader at or before either committed, or the window is empty).
    fn window_span(&self, everywhere: &HashMap<VertexRef, Micros>) -> Option<(Micros, Micros)> {
        let leader_commit = |last: u64| {
            (0..=last).rev().find_map(|r| {
                let source = *self.leaders.get(r as usize)?;
                everywhere.get(&VertexRef {
                    round: Round(r),
                    source,
                })
            })
        };
        let lo = *leader_commit(self.warmup_rounds.checked_sub(1)?)?;
        let hi = *leader_commit(self.last_round)?;
        (hi > lo).then_some((lo, hi))
    }

    /// Transactions whose commit-everywhere instant falls in `(lo, hi]`.
    fn committed_between(
        &self,
        everywhere: &HashMap<VertexRef, Micros>,
        lo: Micros,
        hi: Micros,
    ) -> u64 {
        self.batches
            .iter()
            .filter(|b| {
                everywhere
                    .get(&b.vertex)
                    .is_some_and(|&t| t > lo && t <= hi)
            })
            .map(|b| b.count)
            .sum()
    }

    /// Offered transactions that failed: everything but what was committed
    /// everywhere in a finished round (all rounds but the last two).
    fn failed(&self, everywhere: &HashMap<VertexRef, Micros>) -> u64 {
        let served: u64 = self
            .batches
            .iter()
            .filter(|b| b.vertex.round.0 + 1 < self.rounds && everywhere.contains_key(&b.vertex))
            .map(|b| b.count)
            .sum();
        self.offered.saturating_sub(served)
    }

    /// Transactions committed everywhere over the whole run.
    fn committed_txs(&self, everywhere: &HashMap<VertexRef, Micros>) -> u64 {
        self.batches
            .iter()
            .filter(|b| everywhere.contains_key(&b.vertex))
            .map(|b| b.count)
            .sum()
    }

    /// Longest stretch inside `[lo, hi]` in which a party committed
    /// nothing. Window edges count as boundaries; the restarted party's
    /// outage does not count (its clock restarts at the restart time), but
    /// the wait from its restart to its first new commit does.
    pub fn commit_gap_max(&self, lo: Micros, hi: Micros) -> Micros {
        let mut worst = Micros::ZERO;
        let mut scan = |from: Micros, to: Micros, commits: &[Commit]| {
            let (from, to) = (from.max(lo), to.min(hi));
            if from >= to {
                return;
            }
            let mut last = from;
            for c in commits.iter().filter(|c| c.at > from && c.at <= to) {
                worst = worst.max(c.at.saturating_sub(last));
                last = c.at;
            }
            worst = worst.max(to.saturating_sub(last));
        };
        for (_, log) in &self.logs {
            scan(lo, hi, log);
        }
        if let Some(r) = &self.restarted {
            scan(lo, r.crash_at, &r.before);
            scan(r.restart_at, hi, &r.after);
        }
        worst
    }

    /// All simulated end-to-end metrics.
    pub fn metrics(&self) -> SimMetrics {
        let everywhere = self.committed_everywhere();
        let mut samples = self.latency_samples(&everywhere);
        let window_txs: u64 = samples.iter().map(|&(_, w)| w).sum();
        let window_batches = samples.len() as u64;
        let p50 = weighted_quantile(&mut samples, 0.50).unwrap_or(0);
        let p99 = weighted_quantile(&mut samples, 0.99).unwrap_or(0);
        let (commit_tps, gap) = match self.window_span(&everywhere) {
            Some((lo, hi)) => (
                self.committed_between(&everywhere, lo, hi) as f64
                    / hi.saturating_sub(lo).as_secs_f64(),
                self.commit_gap_max(lo, hi),
            ),
            None => (0.0, Micros::ZERO),
        };
        let committed_txs = self.committed_txs(&everywhere);
        let failed = self.failed(&everywhere);
        SimMetrics {
            commit_tps,
            commit_p50_ms: ms(p50),
            commit_p99_ms: ms(p99),
            bytes_per_tx: self.wire_bytes as f64 / committed_txs.max(1) as f64,
            failed_frac: failed as f64 / self.offered.max(1) as f64,
            commit_gap_max_ms: ms(gap.0),
            window_txs,
            window_batches,
            committed_txs,
            offered: self.offered,
            failed,
        }
    }
}

/// Keeps each vertex's batches once: a restarted proposer re-broadcasts
/// its persisted proposal, which must not count twice.
pub(crate) fn dedup_batches(incarnations: &[Vec<Batch>]) -> Vec<Batch> {
    let mut owner: HashMap<VertexRef, usize> = HashMap::new();
    incarnations
        .iter()
        .enumerate()
        .flat_map(|(i, batches)| batches.iter().map(move |b| (i, *b)))
        .filter(|(i, b)| *owner.entry(b.vertex).or_insert(*i) == *i)
        .map(|(_, b)| b)
        .collect()
}
