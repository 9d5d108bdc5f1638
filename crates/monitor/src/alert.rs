//! Typed alerts: the monitor's one output vocabulary.
//!
//! Every detector emits the same shape — a [`Detector`] name, a fire/clear
//! transition, a severity, the party the finding is attributed to, the
//! round context and a human-readable evidence string. Alerts only ever
//! mark *transitions* (hysteresis lives in the detector bank), so a benign
//! run's alert stream is empty by construction rather than by filtering.

use clanbft_telemetry::JsonObj;
use clanbft_types::{Micros, PartyId, Round};

/// The catalogue of online detectors.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Detector {
    /// A party's commit frontier lags the cluster's newest commit by more
    /// than [`STALL_AFTER`](crate::detect::STALL_AFTER) (no `Committed`
    /// within k·δ̂ of the parties that *are* progressing).
    CommitStall,
    /// A party's current round trails the cluster's maximum entered round
    /// by [`SKEW_ROUNDS`](crate::detect::SKEW_ROUNDS) or more.
    RoundSkew,
    /// A bounded buffer (`buf.*` occupancy gauge) crossed its high-water
    /// mark.
    BufferGrowth,
    /// Pull retries for a party clustered inside the rolling window — the
    /// signature of a withholding sender or a dead bulk link.
    PullRetryStorm,
    /// Byzantine evidence accumulated against a party inside the rolling
    /// window.
    EvidenceSpike,
    /// The mempool rejected admissions for capacity inside the rolling
    /// window — client backpressure, the saturation signal.
    MempoolCollapse,
    /// Durability degradation: slow WAL fsyncs clustered in the window, or
    /// a checkpoint beyond the size bound.
    WalDegradation,
}

/// How many detectors exist (sizes the per-party hysteresis array).
pub const DETECTOR_COUNT: usize = 7;

impl Detector {
    /// Every detector, in catalogue order.
    pub const ALL: [Detector; DETECTOR_COUNT] = [
        Detector::CommitStall,
        Detector::RoundSkew,
        Detector::BufferGrowth,
        Detector::PullRetryStorm,
        Detector::EvidenceSpike,
        Detector::MempoolCollapse,
        Detector::WalDegradation,
    ];

    /// Stable label used in NDJSON alert lines and Prometheus series.
    pub fn label(self) -> &'static str {
        match self {
            Detector::CommitStall => "commit_stall",
            Detector::RoundSkew => "round_skew",
            Detector::BufferGrowth => "buffer_growth",
            Detector::PullRetryStorm => "pull_retry_storm",
            Detector::EvidenceSpike => "evidence_spike",
            Detector::MempoolCollapse => "mempool_collapse",
            Detector::WalDegradation => "wal_degradation",
        }
    }

    /// Index into per-party hysteresis state.
    pub fn index(self) -> usize {
        match self {
            Detector::CommitStall => 0,
            Detector::RoundSkew => 1,
            Detector::BufferGrowth => 2,
            Detector::PullRetryStorm => 3,
            Detector::EvidenceSpike => 4,
            Detector::MempoolCollapse => 5,
            Detector::WalDegradation => 6,
        }
    }

    /// The severity this detector fires at.
    pub fn severity(self) -> Severity {
        match self {
            Detector::CommitStall | Detector::EvidenceSpike => Severity::Critical,
            _ => Severity::Warning,
        }
    }
}

/// Alert severity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    /// Degraded but live.
    Warning,
    /// Progress or safety at risk.
    Critical,
}

impl Severity {
    /// Stable label used in NDJSON alert lines.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// Whether an alert marks a condition starting or ending.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AlertKind {
    /// The condition began.
    Fire,
    /// The condition ended.
    Clear,
}

impl AlertKind {
    /// Stable label used in NDJSON alert lines.
    pub fn label(self) -> &'static str {
        match self {
            AlertKind::Fire => "fire",
            AlertKind::Clear => "clear",
        }
    }
}

/// One fire or clear transition of one detector for one party.
#[derive(Clone, Debug)]
pub struct Alert {
    /// Simulated time of the transition.
    pub at: Micros,
    /// Which detector transitioned.
    pub detector: Detector,
    /// Fire or clear.
    pub kind: AlertKind,
    /// Severity (fixed per detector).
    pub severity: Severity,
    /// The party the finding is attributed to (the laggard, the culprit,
    /// the saturated node — per detector semantics).
    pub party: PartyId,
    /// Round context at transition time (the party's current round).
    pub round: Round,
    /// Human-readable supporting evidence, deterministic for sim-time
    /// driven detectors.
    pub evidence: String,
}

impl Alert {
    /// Renders the alert as one NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        JsonObj::new()
            .u64("at", self.at.0)
            .str("alert", self.kind.label())
            .str("detector", self.detector.label())
            .str("severity", self.severity.label())
            .u64("party", self.party.0 as u64)
            .u64("round", self.round.0)
            .str("evidence", &self.evidence)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_indexed() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, d) in Detector::ALL.iter().enumerate() {
            assert_eq!(d.index(), i, "catalogue order must match index");
            assert!(seen.insert(d.label()), "duplicate label {}", d.label());
        }
        assert_eq!(seen.len(), DETECTOR_COUNT);
    }

    #[test]
    fn ndjson_line_is_stable() {
        let a = Alert {
            at: Micros(1_500_000),
            detector: Detector::CommitStall,
            kind: AlertKind::Fire,
            severity: Severity::Critical,
            party: PartyId(2),
            round: Round(7),
            evidence: "no commit for 1600000us behind cluster frontier".to_string(),
        };
        assert_eq!(
            a.to_ndjson(),
            r#"{"at":1500000,"alert":"fire","detector":"commit_stall","severity":"critical","party":2,"round":7,"evidence":"no commit for 1600000us behind cluster frontier"}"#
        );
    }
}
