//! The streaming detector bank: per-party rolling windows, hysteresis and
//! alert emission.
//!
//! The bank is a pure state machine over the telemetry surface — stamped
//! protocol events plus party-tagged gauge/counter/histogram samples. Time
//! never comes from the host clock: `now` is the maximum event stamp seen,
//! so the same event stream always produces the same alert stream
//! (determinism pins rely on this). The one host-measured input is the WAL
//! fsync-latency histogram; its detector therefore only appears in runs
//! with durable storage and is excluded from byte-exact pins.
//!
//! The thresholds below are sized for the repo's evaluation tribes
//! (seconds-scale round trips, sub-second commit cadence): benign runs stay
//! strictly below every fire threshold, while the fault matrices
//! (withholding, crashes, equivocation) cross them within a couple of
//! rounds. Online monitoring and offline replay (`clanbft-inspect alerts`)
//! share them, so their verdicts agree by construction.

use crate::alert::{Alert, AlertKind, Detector, DETECTOR_COUNT};
use crate::health::{HealthSnapshot, Verdict};
use clanbft_telemetry::{counters, Event, RbcPhase, Stamped};
use clanbft_types::{Micros, PartyId, Round};
use std::collections::{BTreeMap, VecDeque};

/// Commit-stall watchdog: fire when a party's newest commit lags the
/// cluster's newest commit by more than this (1.5 s). Judged against the
/// *other* parties' progress (not wall time), so a quiescent run-end never
/// fires it.
pub const STALL_AFTER: Micros = Micros(1_500_000);
/// Round-skew: fire when a party's entered round trails the cluster
/// maximum by at least this many rounds.
pub const SKEW_ROUNDS: u64 = 3;
/// Buffer growth: fire when any `buf.*` occupancy gauge reaches this.
pub const BUFFER_HI: u64 = 4_096;
/// Buffer growth clears when every `buf.*` gauge is back at or below this
/// (the hysteresis gap prevents flapping).
pub const BUFFER_LO: u64 = 512;
/// Rolling window for the pull-retry storm detector (1 s).
pub const RETRY_WINDOW: Micros = Micros(1_000_000);
/// Pull retries within the window that fire the storm detector.
pub const RETRY_FIRE: u64 = 6;
/// The storm clears when the window count falls to or below this.
pub const RETRY_CLEAR: u64 = 1;
/// Rolling window for the evidence-rate detector (2 s).
pub const EVIDENCE_WINDOW: Micros = Micros(2_000_000);
/// Evidence records against one culprit within the window that fire.
pub const EVIDENCE_FIRE: u64 = 1;
/// Rolling window for the mempool-collapse detector (1 s).
pub const MEMPOOL_WINDOW: Micros = Micros(1_000_000);
/// Capacity rejections within the window that fire the collapse detector.
pub const MEMPOOL_REJECT_FIRE: u64 = 64;
/// A WAL fsync slower than this (host-measured, microseconds) counts as
/// slow.
pub const WAL_FSYNC_SLOW_US: u64 = 50_000;
/// Slow fsyncs within the window that fire the degradation detector.
pub const WAL_FSYNC_FIRE: u64 = 3;
/// Rolling window for the WAL-degradation detector (5 s).
pub const WAL_WINDOW: Micros = Micros(5_000_000);
/// A checkpoint larger than this many bytes fires degradation immediately.
pub const CHECKPOINT_BYTES_HI: u64 = 64 * 1024 * 1024;
/// Per-(detector, party) cap on fire transitions; beyond it further
/// fire/clear pairs are counted as suppressed instead of emitted.
pub const RATE_CAP: u64 = 16;
/// Cluster-health snapshot cadence (event-time driven, 500 ms).
pub const SNAPSHOT_EVERY: Micros = Micros(500_000);
/// Bound on the retained snapshot history.
pub const SNAPSHOT_CAP: usize = 4_096;

/// Weighted stamps inside a rolling window `SPAN_US` microseconds long.
#[derive(Default)]
struct Window<const SPAN_US: u64>(VecDeque<(Micros, u64)>);

impl<const SPAN_US: u64> Window<SPAN_US> {
    /// Adds `weight` at `at`, then expires against `at`.
    fn push(&mut self, at: Micros, weight: u64) {
        self.0.push_back((at, weight));
        self.expire(at);
    }

    /// Drops the stamps older than the window before `now`.
    fn expire(&mut self, now: Micros) {
        let cut = now.saturating_sub(Micros(SPAN_US));
        while self.0.front().is_some_and(|(at, _)| *at < cut) {
            self.0.pop_front();
        }
    }

    /// Summed weight inside the window.
    fn total(&self) -> u64 {
        self.0.iter().map(|(_, w)| w).sum()
    }
}

/// Fire/clear state of one detector for one party.
#[derive(Default, Clone)]
struct Hysteresis {
    /// Condition currently held.
    active: bool,
    /// Fire transitions emitted so far.
    fires: u64,
    /// Transitions swallowed by the rate cap.
    suppressed: u64,
    /// The active condition's fire was suppressed, so its clear must be
    /// suppressed too (the emitted stream stays pairwise balanced).
    suppressing: bool,
}

/// Everything the bank tracks about one party.
#[derive(Default)]
struct PartyState {
    /// Last round entered.
    round: u64,
    /// Stamp of the party's newest commit.
    last_commit_at: Option<Micros>,
    /// Pull retries inside the window (weight 1 each).
    retries: Window<{ RETRY_WINDOW.0 }>,
    /// Evidence records with this party as culprit (weight 1 each).
    evidence: Window<{ EVIDENCE_WINDOW.0 }>,
    /// Capacity rejections, weighted by the counter delta.
    mempool_rejects: Window<{ MEMPOOL_WINDOW.0 }>,
    /// Slow fsyncs (weight 1 each).
    slow_fsyncs: Window<{ WAL_WINDOW.0 }>,
    /// Newest value of every `buf.*` occupancy gauge.
    buf_gauges: BTreeMap<&'static str, u64>,
    /// Per-detector fire/clear state.
    hys: [Hysteresis; DETECTOR_COUNT],
}

impl PartyState {
    fn any_active(&self) -> bool {
        self.hys.iter().any(|h| h.active)
    }

    /// One fire (`fire`) or clear transition of `detector` for `party`,
    /// stamped with this party's round, with hysteresis and the rate cap
    /// applied.
    fn transition(
        &mut self,
        alerts: &mut Vec<Alert>,
        party: PartyId,
        detector: Detector,
        fire: bool,
        at: Micros,
        evidence: String,
    ) {
        let h = &mut self.hys[detector.index()];
        if h.active == fire {
            return;
        }
        h.active = fire;
        if fire {
            h.fires += 1;
            if h.fires > RATE_CAP {
                h.suppressed += 1;
                h.suppressing = true;
                return;
            }
        } else if h.suppressing {
            h.suppressing = false;
            h.suppressed += 1;
            return;
        }
        alerts.push(Alert {
            at,
            detector,
            kind: if fire {
                AlertKind::Fire
            } else {
                AlertKind::Clear
            },
            severity: detector.severity(),
            party,
            round: Round(self.round),
            evidence,
        });
    }
}

/// The streaming detector bank shared by the online monitor and offline
/// replay.
#[derive(Default)]
pub struct DetectorBank {
    parties: BTreeMap<PartyId, PartyState>,
    /// Maximum event stamp seen (the bank's clock).
    now: Micros,
    /// First event stamp seen (stall baseline for parties that never
    /// commit).
    started_at: Option<Micros>,
    /// Cluster-wide newest commit stamp and the sequence it carried.
    frontier_at: Option<Micros>,
    frontier_seq: u64,
    /// Cluster-wide maximum entered round.
    max_round: u64,
    alerts: Vec<Alert>,
    snapshots: Vec<HealthSnapshot>,
    snapshots_skipped: u64,
    last_snapshot_at: Option<Micros>,
}

impl DetectorBank {
    /// An empty bank.
    pub fn new() -> DetectorBank {
        DetectorBank::default()
    }

    /// Registers a party so cluster verdicts cover it even before its first
    /// event arrives.
    pub fn register(&mut self, party: PartyId) {
        self.parties.entry(party).or_default();
    }

    /// Consumes one stamped protocol event.
    pub fn observe_event(&mut self, s: &Stamped) {
        self.advance(s.at);
        match &s.event {
            Event::RoundEntered { round } => self.on_round_entered(s.party, *round, s.at),
            Event::VertexCommitted { sequence, .. } => self.on_commit(s.party, *sequence, s.at),
            Event::Rbc {
                phase: RbcPhase::PullRetry,
                round,
                source,
            } => self.on_pull_retry(s.party, *round, *source, s.at),
            Event::EvidenceRecorded { culprit, .. } => self.on_evidence(*culprit, s.at),
            _ => {}
        }
        self.maybe_snapshot();
    }

    /// Consumes one party-tagged gauge sample.
    pub fn observe_gauge(&mut self, party: PartyId, gauge: &'static str, value: u64) {
        if !gauge.starts_with("buf.") {
            return;
        }
        let (now, alerts) = (self.now, &mut self.alerts);
        let state = self.parties.entry(party).or_default();
        state.buf_gauges.insert(gauge, value);
        let over = state.buf_gauges.iter().find(|(_, v)| **v >= BUFFER_HI);
        if let Some((name, v)) = over {
            let evidence = format!("{name} at {v} >= {BUFFER_HI}");
            state.transition(alerts, party, Detector::BufferGrowth, true, now, evidence);
        } else if state.buf_gauges.values().all(|v| *v <= BUFFER_LO) {
            let evidence = format!("all buf.* gauges <= {BUFFER_LO}");
            state.transition(alerts, party, Detector::BufferGrowth, false, now, evidence);
        }
    }

    /// Consumes one party-tagged counter increment.
    pub fn observe_counter(&mut self, party: PartyId, counter: &'static str, delta: u64) {
        if counter != counters::MEMPOOL_REJECTED_FULL || delta == 0 {
            return;
        }
        let (now, alerts) = (self.now, &mut self.alerts);
        let state = self.parties.entry(party).or_default();
        state.mempool_rejects.push(now, delta);
        let total = state.mempool_rejects.total();
        if total >= MEMPOOL_REJECT_FIRE {
            let evidence = format!(
                "{total} capacity rejections in {}us window",
                MEMPOOL_WINDOW.0
            );
            state.transition(
                alerts,
                party,
                Detector::MempoolCollapse,
                true,
                now,
                evidence,
            );
        }
    }

    /// Consumes one party-tagged histogram sample.
    pub fn observe_histogram(&mut self, party: PartyId, metric: &'static str, value: u64) {
        match metric {
            counters::WAL_FSYNC_MICROS if value >= WAL_FSYNC_SLOW_US => {
                let (now, alerts) = (self.now, &mut self.alerts);
                let state = self.parties.entry(party).or_default();
                state.slow_fsyncs.push(now, 1);
                let slow = state.slow_fsyncs.total();
                if slow >= WAL_FSYNC_FIRE {
                    let evidence =
                        format!("{slow} fsyncs slower than {WAL_FSYNC_SLOW_US}us in window");
                    state.transition(alerts, party, Detector::WalDegradation, true, now, evidence);
                }
            }
            counters::CHECKPOINT_BYTES if value >= CHECKPOINT_BYTES_HI => {
                let (now, alerts) = (self.now, &mut self.alerts);
                let state = self.parties.entry(party).or_default();
                let evidence = format!("checkpoint of {value} bytes >= {CHECKPOINT_BYTES_HI}");
                state.transition(alerts, party, Detector::WalDegradation, true, now, evidence);
            }
            _ => {}
        }
    }

    // --- event handlers -----------------------------------------------------

    fn advance(&mut self, at: Micros) {
        if self.started_at.is_none() {
            self.started_at = Some(at);
        }
        self.now = self.now.max(at);
    }

    fn on_round_entered(&mut self, party: PartyId, round: Round, at: Micros) {
        let alerts = &mut self.alerts;
        self.parties.entry(party).or_default().round = round.0;
        if round.0 > self.max_round {
            self.max_round = round.0;
            // The frontier moved: re-judge every party's skew.
            let max_round = self.max_round;
            for (&pid, state) in self.parties.iter_mut() {
                let fire = max_round.saturating_sub(state.round) >= SKEW_ROUNDS;
                let evidence = if fire {
                    format!("at round {} while cluster reached {max_round}", state.round)
                } else {
                    format!("caught up to round {}", state.round)
                };
                state.transition(alerts, pid, Detector::RoundSkew, fire, at, evidence);
            }
        } else if self.max_round.saturating_sub(round.0) < SKEW_ROUNDS {
            // This party advanced within a known frontier: it may have just
            // caught back up.
            let evidence = format!("caught up to round {}", round.0);
            let state = self.parties.entry(party).or_default();
            state.transition(alerts, party, Detector::RoundSkew, false, at, evidence);
        }
    }

    fn on_commit(&mut self, party: PartyId, sequence: u64, at: Micros) {
        let alerts = &mut self.alerts;
        let state = self.parties.entry(party).or_default();
        state.last_commit_at = Some(at);
        let evidence = format!("committed seq {sequence}");
        state.transition(alerts, party, Detector::CommitStall, false, at, evidence);
        let advanced = self.frontier_at.map_or(true, |f| at > f);
        if advanced {
            self.frontier_at = Some(at);
            self.frontier_seq = self.frontier_seq.max(sequence);
            self.scan_stalls(at);
            self.sweep_windows(at);
        }
    }

    fn on_pull_retry(&mut self, party: PartyId, round: Round, source: PartyId, at: Micros) {
        let alerts = &mut self.alerts;
        let state = self.parties.entry(party).or_default();
        state.retries.push(at, 1);
        let retries = state.retries.total();
        if retries >= RETRY_FIRE {
            let evidence = format!(
                "{retries} pull retries in {}us window (latest for round {} from party {})",
                RETRY_WINDOW.0, round.0, source.0
            );
            state.transition(alerts, party, Detector::PullRetryStorm, true, at, evidence);
        }
    }

    fn on_evidence(&mut self, culprit: PartyId, at: Micros) {
        let alerts = &mut self.alerts;
        let state = self.parties.entry(culprit).or_default();
        state.evidence.push(at, 1);
        let records = state.evidence.total();
        if records >= EVIDENCE_FIRE {
            let evidence = format!(
                "{records} evidence records in {}us window",
                EVIDENCE_WINDOW.0
            );
            state.transition(alerts, culprit, Detector::EvidenceSpike, true, at, evidence);
        }
    }

    // --- periodic scans -----------------------------------------------------

    /// Judges every party's commit lag against the cluster frontier. Runs
    /// whenever the frontier advances: a stalled party is detected by the
    /// *others'* progress, so a quiescent run end (nobody committing) never
    /// fires.
    fn scan_stalls(&mut self, at: Micros) {
        let Some(frontier) = self.frontier_at else {
            return;
        };
        let (started, frontier_seq) = (self.started_at.unwrap_or(Micros::ZERO), self.frontier_seq);
        let alerts = &mut self.alerts;
        for (&pid, state) in self.parties.iter_mut() {
            let lag = frontier.saturating_sub(state.last_commit_at.unwrap_or(started));
            if lag > STALL_AFTER {
                let evidence = format!(
                    "no commit for {}us behind cluster frontier (seq {frontier_seq})",
                    lag.0
                );
                state.transition(alerts, pid, Detector::CommitStall, true, at, evidence);
            }
        }
    }

    /// Expires rolling windows and clears windowed detectors whose
    /// condition has drained. Driven off commit-frontier advances and
    /// snapshots, which is frequent enough for prompt clears.
    fn sweep_windows(&mut self, at: Micros) {
        let alerts = &mut self.alerts;
        for (&pid, state) in self.parties.iter_mut() {
            state.retries.expire(at);
            state.evidence.expire(at);
            state.mempool_rejects.expire(at);
            state.slow_fsyncs.expire(at);
            // Clears are emitted in this order (retry, evidence, mempool,
            // WAL); alert streams are pinned byte for byte.
            let retries = state.retries.total();
            if retries <= RETRY_CLEAR {
                let evidence = format!("window drained to {retries} retries");
                state.transition(alerts, pid, Detector::PullRetryStorm, false, at, evidence);
            }
            if state.evidence.total() == 0 {
                let evidence = "evidence window drained".to_string();
                state.transition(alerts, pid, Detector::EvidenceSpike, false, at, evidence);
            }
            if state.mempool_rejects.total() == 0 {
                let evidence = "rejection window drained".to_string();
                state.transition(alerts, pid, Detector::MempoolCollapse, false, at, evidence);
            }
            if state.slow_fsyncs.total() == 0 {
                let evidence = "slow-fsync window drained".to_string();
                state.transition(alerts, pid, Detector::WalDegradation, false, at, evidence);
            }
        }
    }

    fn maybe_snapshot(&mut self) {
        let due = match self.last_snapshot_at {
            None => true,
            Some(last) => self.now >= last + SNAPSHOT_EVERY,
        };
        if !due {
            return;
        }
        self.last_snapshot_at = Some(self.now);
        self.sweep_windows(self.now);
        let snap = self.assess();
        if self.snapshots.len() < SNAPSHOT_CAP {
            self.snapshots.push(snap);
        } else {
            self.snapshots_skipped += 1;
        }
    }

    // --- readout ------------------------------------------------------------

    /// Every alert emitted so far, in emission order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// `(detector, party)` pairs whose condition is currently held.
    pub fn active(&self) -> Vec<(Detector, PartyId)> {
        let mut out = Vec::new();
        for (&pid, state) in &self.parties {
            for d in Detector::ALL {
                if state.hys[d.index()].active {
                    out.push((d, pid));
                }
            }
        }
        out
    }

    /// Whether `detector` is currently firing for `party`.
    pub fn is_active(&self, detector: Detector, party: PartyId) -> bool {
        self.parties
            .get(&party)
            .map(|s| s.hys[detector.index()].active)
            .unwrap_or(false)
    }

    /// Transitions swallowed by the per-detector rate caps.
    pub fn suppressed(&self) -> u64 {
        self.parties
            .values()
            .flat_map(|s| s.hys.iter())
            .map(|h| h.suppressed)
            .sum()
    }

    /// The bank's clock (maximum event stamp seen).
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Cluster-wide maximum entered round.
    pub fn max_round(&self) -> u64 {
        self.max_round
    }

    /// Expires windows at the current clock and emits any resulting clears.
    /// Call at end of run before the final verdict so conditions that
    /// drained during the tail are judged cleared.
    pub fn settle(&mut self) {
        let now = self.now;
        self.sweep_windows(now);
    }

    /// The current cluster-health verdict with per-party attribution.
    pub fn assess(&self) -> HealthSnapshot {
        let stalled: Vec<PartyId> = self
            .parties
            .iter()
            .filter(|(_, s)| s.hys[Detector::CommitStall.index()].active)
            .map(|(&p, _)| p)
            .collect();
        let degraded: Vec<PartyId> = self
            .parties
            .iter()
            .filter(|(_, s)| s.any_active())
            .map(|(&p, _)| p)
            .collect();
        let n = self.parties.len();
        let verdict = if n > 0 && stalled.len() * 3 > n {
            Verdict::Stalled
        } else if !degraded.is_empty() {
            Verdict::Degraded
        } else {
            Verdict::Healthy
        };
        let active_alerts = self
            .parties
            .values()
            .flat_map(|s| s.hys.iter())
            .filter(|h| h.active)
            .count() as u64;
        HealthSnapshot {
            at: self.now,
            verdict,
            parties: n as u64,
            active_alerts,
            max_round: self.max_round,
            stalled_parties: stalled,
            degraded_parties: degraded,
        }
    }

    /// The periodic snapshot history (bounded by [`SNAPSHOT_CAP`]).
    pub fn snapshots(&self) -> &[HealthSnapshot] {
        &self.snapshots
    }

    /// Snapshots dropped once the history bound was reached.
    pub fn snapshots_skipped(&self) -> u64 {
        self.snapshots_skipped
    }

    /// Fire counts per detector (for the Prometheus exposition).
    pub fn fire_totals(&self) -> [(Detector, u64); DETECTOR_COUNT] {
        let mut out = Detector::ALL.map(|d| (d, 0u64));
        for state in self.parties.values() {
            for d in Detector::ALL {
                out[d.index()].1 += state.hys[d.index()].fires;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> DetectorBank {
        let mut b = DetectorBank::new();
        for p in 0..4 {
            b.register(PartyId(p));
        }
        b
    }

    fn commit(b: &mut DetectorBank, p: u32, seq: u64, at_ms: u64) {
        b.observe_event(&Stamped {
            at: Micros::from_millis(at_ms),
            party: PartyId(p),
            event: Event::VertexCommitted {
                round: Round(1),
                source: PartyId(p),
                leader: true,
                sequence: seq,
            },
        });
    }

    #[test]
    fn benign_commit_cadence_stays_silent() {
        let mut b = bank();
        for step in 0..20u64 {
            for p in 0..4 {
                commit(&mut b, p, step, step * 300 + p as u64);
            }
        }
        assert!(b.alerts().is_empty(), "alerts: {:?}", b.alerts());
        assert_eq!(b.assess().verdict, Verdict::Healthy);
    }

    #[test]
    fn lagging_party_fires_stall_then_clears() {
        let mut b = bank();
        // Everyone commits at t=0; then party 3 goes dark while the others
        // keep committing past the stall threshold.
        for p in 0..4 {
            commit(&mut b, p, 0, p as u64);
        }
        for step in 1..8u64 {
            for p in 0..3 {
                commit(&mut b, p, step, step * 400 + p as u64);
            }
        }
        let fires: Vec<&Alert> = b
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::Fire)
            .collect();
        assert_eq!(fires.len(), 1, "alerts: {:?}", b.alerts());
        assert_eq!(fires[0].detector, Detector::CommitStall);
        assert_eq!(fires[0].party, PartyId(3));
        assert!(b.is_active(Detector::CommitStall, PartyId(3)));
        assert_eq!(b.assess().verdict, Verdict::Degraded);
        assert_eq!(b.assess().stalled_parties, vec![PartyId(3)]);

        // The party recovers: its next commit clears the alert.
        commit(&mut b, 3, 8, 3_300);
        assert!(!b.is_active(Detector::CommitStall, PartyId(3)));
        let clears: Vec<&Alert> = b
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::Clear)
            .collect();
        assert_eq!(clears.len(), 1);
        assert_eq!(clears[0].detector, Detector::CommitStall);
        assert_eq!(b.assess().verdict, Verdict::Healthy);
    }

    #[test]
    fn majority_stall_is_a_stalled_verdict() {
        let mut b = bank();
        for p in 0..4 {
            commit(&mut b, p, 0, p as u64);
        }
        // Only party 0 keeps committing: 3 of 4 parties stall.
        for step in 1..8u64 {
            commit(&mut b, 0, step, step * 400);
        }
        assert_eq!(b.assess().verdict, Verdict::Stalled);
        assert_eq!(b.assess().stalled_parties.len(), 3);
    }

    #[test]
    fn round_skew_fires_and_clears() {
        let mut b = bank();
        let enter = |b: &mut DetectorBank, p: u32, r: u64, at: u64| {
            b.observe_event(&Stamped {
                at: Micros::from_millis(at),
                party: PartyId(p),
                event: Event::RoundEntered { round: Round(r) },
            });
        };
        for r in 1..=5u64 {
            for p in 0..3 {
                enter(&mut b, p, r, r * 100);
            }
            // Party 3 stays at round 1 after entering it once.
            if r == 1 {
                enter(&mut b, 3, 1, 100);
            }
        }
        assert!(b.is_active(Detector::RoundSkew, PartyId(3)));
        enter(&mut b, 3, 5, 600);
        assert!(!b.is_active(Detector::RoundSkew, PartyId(3)));
        let kinds: Vec<AlertKind> = b.alerts().iter().map(|a| a.kind).collect();
        assert_eq!(kinds, vec![AlertKind::Fire, AlertKind::Clear]);
    }

    #[test]
    fn pull_retry_storm_fires_and_drains() {
        let mut b = bank();
        for i in 0..6u64 {
            b.observe_event(&Stamped {
                at: Micros::from_millis(100 + i * 10),
                party: PartyId(2),
                event: Event::Rbc {
                    phase: RbcPhase::PullRetry,
                    round: Round(3),
                    source: PartyId(1),
                },
            });
        }
        assert!(b.is_active(Detector::PullRetryStorm, PartyId(2)));
        // Commits two seconds later expire the window and clear the storm.
        commit(&mut b, 0, 1, 2_500);
        commit(&mut b, 0, 2, 2_600);
        assert!(!b.is_active(Detector::PullRetryStorm, PartyId(2)));
    }

    #[test]
    fn evidence_spike_attributes_the_culprit() {
        let mut b = bank();
        b.observe_event(&Stamped {
            at: Micros::from_millis(500),
            party: PartyId(0),
            event: Event::EvidenceRecorded {
                kind: "equivocating_source".into(),
                round: Round(2),
                culprit: PartyId(1),
            },
        });
        assert!(b.is_active(Detector::EvidenceSpike, PartyId(1)));
        let a = &b.alerts()[0];
        assert_eq!(a.party, PartyId(1));
        assert_eq!(a.detector, Detector::EvidenceSpike);
    }

    #[test]
    fn buffer_growth_uses_hi_lo_hysteresis() {
        let mut b = bank();
        b.observe_gauge(PartyId(1), counters::BUF_DAG_PENDING, 5_000);
        assert!(b.is_active(Detector::BufferGrowth, PartyId(1)));
        // Dropping below hi but above lo keeps the alert held.
        b.observe_gauge(PartyId(1), counters::BUF_DAG_PENDING, 2_000);
        assert!(b.is_active(Detector::BufferGrowth, PartyId(1)));
        b.observe_gauge(PartyId(1), counters::BUF_DAG_PENDING, 100);
        assert!(!b.is_active(Detector::BufferGrowth, PartyId(1)));
    }

    #[test]
    fn mempool_collapse_needs_the_rate() {
        let mut b = bank();
        b.observe_event(&Stamped {
            at: Micros::from_millis(100),
            party: PartyId(0),
            event: Event::RoundEntered { round: Round(1) },
        });
        b.observe_counter(PartyId(0), counters::MEMPOOL_REJECTED_FULL, 10);
        assert!(!b.is_active(Detector::MempoolCollapse, PartyId(0)));
        b.observe_counter(PartyId(0), counters::MEMPOOL_REJECTED_FULL, 60);
        assert!(b.is_active(Detector::MempoolCollapse, PartyId(0)));
    }

    #[test]
    fn wal_degradation_from_slow_fsyncs() {
        let mut b = bank();
        b.observe_event(&Stamped {
            at: Micros::from_millis(50),
            party: PartyId(0),
            event: Event::RoundEntered { round: Round(1) },
        });
        for _ in 0..3 {
            b.observe_histogram(PartyId(0), counters::WAL_FSYNC_MICROS, 80_000);
        }
        assert!(b.is_active(Detector::WalDegradation, PartyId(0)));
        // Fast fsyncs are ignored entirely.
        let fires_before = b.alerts().len();
        b.observe_histogram(PartyId(1), counters::WAL_FSYNC_MICROS, 200);
        assert_eq!(b.alerts().len(), fires_before);
    }

    #[test]
    fn rate_cap_suppresses_flapping() {
        let mut b = DetectorBank::new();
        b.register(PartyId(0));
        // Alternate evidence bursts with silences longer than the evidence
        // window so the detector fires, clears, and fires again past the
        // cap.
        let spacing = EVIDENCE_WINDOW.0 / 1_000 + 1_000;
        for burst in 0..RATE_CAP + 3 {
            b.observe_event(&Stamped {
                at: Micros::from_millis(burst * spacing),
                party: PartyId(0),
                event: Event::EvidenceRecorded {
                    kind: "double_vote".into(),
                    round: Round(burst),
                    culprit: PartyId(0),
                },
            });
            // A commit past the window sweeps it and clears.
            commit(&mut b, 1, burst, burst * spacing + spacing - 500);
        }
        let fires = b
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::Fire && a.detector == Detector::EvidenceSpike)
            .count();
        assert_eq!(fires as u64, RATE_CAP, "alerts: {:?}", b.alerts());
        // Three fires past the cap, each with its clear.
        assert_eq!(b.suppressed(), 6);
    }

    #[test]
    fn snapshots_accumulate_on_event_time() {
        let mut b = bank();
        for step in 0..10u64 {
            commit(&mut b, 0, step, step * 300);
        }
        assert!(b.snapshots().len() >= 2, "{}", b.snapshots().len());
        // Snapshot stamps are monotone.
        let stamps: Vec<u64> = b.snapshots().iter().map(|s| s.at.0).collect();
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(stamps, sorted);
    }
}
