//! Offline replay of the online detector catalogue.
//!
//! `clanbft-inspect alerts <trace>` runs a recorded event stream through
//! the *same* `clanbft_monitor::DetectorBank` the live monitor uses, with
//! the same default thresholds — so a post-mortem verdict can never drift
//! from what the online monitor would have said about the run. Only the
//! event-driven detectors see input offline (commit stall, round skew,
//! pull-retry storm, evidence spike); gauge/counter/histogram-fed ones
//! (buffer growth, mempool collapse, WAL degradation) are online-only and
//! the report says so.

use clanbft_monitor::{replay_events, AlertKind};
use clanbft_telemetry::Trace;
use clanbft_types::PartyId;
use std::fmt::Write as _;

/// Replays `trace` through the detector catalogue and renders the alert
/// report: the full fire/clear transcript, the per-party active set at end
/// of trace, and the final cluster verdict.
pub fn alert_report(trace: &Trace) -> String {
    // Party universe: declared tribe size when the trace has a meta line,
    // otherwise every party that appears in the event stream.
    let parties = match trace.meta.n {
        Some(n) => n as u32,
        None => trace
            .events
            .iter()
            .map(|s| s.party.0 + 1)
            .max()
            .unwrap_or(0),
    };
    let bank = replay_events(&trace.events, parties);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "alert replay: {} event(s), {parties} parties",
        trace.events.len()
    );
    let _ = writeln!(
        out,
        "detectors: event-driven only (commit_stall, round_skew, pull_retry_storm, \
         evidence_spike); gauge-fed detectors need the live monitor"
    );
    out.push('\n');

    if bank.alerts().is_empty() {
        out.push_str("no alerts: every detector stayed silent\n");
    } else {
        let _ = writeln!(out, "transcript ({} transition(s)):", bank.alerts().len());
        for a in bank.alerts() {
            let _ = writeln!(
                out,
                "  t={:>10}us  {:<5} {:<16} {:<8} party {:>3}  round {:>3}  {}",
                a.at.0,
                a.kind.label(),
                a.detector.label(),
                a.severity.label(),
                a.party.0,
                a.round.0,
                a.evidence
            );
        }
    }
    out.push('\n');

    let active = bank.active();
    if active.is_empty() {
        out.push_str("active at end of trace: none\n");
    } else {
        out.push_str("active at end of trace:\n");
        for (d, p) in &active {
            let _ = writeln!(out, "  {:<16} party {}", d.label(), p.0);
        }
    }
    if bank.suppressed() > 0 {
        let _ = writeln!(
            out,
            "rate-capped: {} transition(s) suppressed",
            bank.suppressed()
        );
    }

    let snap = bank.assess();
    let fires = bank
        .alerts()
        .iter()
        .filter(|a| a.kind == AlertKind::Fire)
        .count();
    let list = |ps: &[PartyId]| -> String {
        if ps.is_empty() {
            "-".to_string()
        } else {
            ps.iter()
                .map(|p| p.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        }
    };
    let _ = writeln!(
        out,
        "\nverdict: {} ({} fire(s), {} active; stalled: {}; degraded: {}; max round {})",
        snap.verdict.label(),
        fires,
        snap.active_alerts,
        list(&snap.stalled_parties),
        list(&snap.degraded_parties),
        snap.max_round
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic benign trace: four parties, lockstep commit cadence.
    fn benign_trace() -> String {
        let mut out = String::new();
        for step in 0..8u64 {
            for p in 0..4u64 {
                out.push_str(&format!(
                    "{{\"at\":{},\"party\":{},\"ev\":\"vertex_committed\",\"round\":{},\
                     \"source\":{},\"leader\":true,\"seq\":{}}}\n",
                    step * 300_000 + p,
                    p,
                    step,
                    p,
                    step
                ));
            }
        }
        out
    }

    #[test]
    fn benign_trace_is_alert_free() {
        let trace = Trace::parse(&benign_trace()).expect("parse");
        let report = alert_report(&trace);
        assert!(report.contains("no alerts"), "{report}");
        assert!(report.contains("verdict: healthy"), "{report}");
    }

    /// Golden pin of the full report on a trace where party 3 stops
    /// committing after step 0 — the commit-stall detector must fire for
    /// party 3 and the verdict degrade. The exact text is pinned so the
    /// offline replay output cannot drift silently.
    #[test]
    fn stall_trace_report_is_pinned() {
        let mut lines = String::new();
        for step in 0..8u64 {
            for p in 0..4u64 {
                if p == 3 && step > 0 {
                    continue;
                }
                lines.push_str(&format!(
                    "{{\"at\":{},\"party\":{},\"ev\":\"vertex_committed\",\"round\":{},\
                     \"source\":{},\"leader\":true,\"seq\":{}}}\n",
                    step * 400_000 + p,
                    p,
                    step,
                    p,
                    step
                ));
            }
        }
        let trace = Trace::parse(&lines).expect("parse");
        let report = alert_report(&trace);
        let expected = concat!(
            "alert replay: 25 event(s), 4 parties\n",
            "detectors: event-driven only (commit_stall, round_skew, pull_retry_storm, ",
            "evidence_spike); gauge-fed detectors need the live monitor\n",
            "\n",
            "transcript (1 transition(s)):\n",
            "  t=   1600000us  fire  commit_stall     critical party   3  round   0  ",
            "no commit for 1599997us behind cluster frontier (seq 4)\n",
            "\n",
            "active at end of trace:\n",
            "  commit_stall     party 3\n",
            "\n",
            "verdict: degraded (1 fire(s), 1 active; stalled: 3; degraded: 3; max round 0)\n",
        );
        assert_eq!(report, expected);
    }
}
