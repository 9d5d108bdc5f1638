//! Commit-latency stage breakdown derived from a recorded event stream.
//!
//! The paper's latency arithmetic says a leader vertex commits after 3δ
//! (propose → certify → vote → commit) while non-leader vertices ride in
//! through the next leader's causal history and pay up to 5δ. This module
//! checks that claim against actual runs: for every committed vertex, at
//! every committing party, it splits the propose→commit interval into
//!
//! * `rbc`     — vertex proposed at the source → RBC-certified at the
//!   committing party (the dissemination phase), and
//! * `commit`  — certified → appearing in that party's total order (the
//!   voting/anchoring phase),
//!
//! then aggregates the intervals into per-path ([`StageStats`]) histograms,
//! split leader / non-leader via the flag the consensus layer stamps on
//! [`Event::VertexCommitted`](crate::Event::VertexCommitted). The
//! timestamps come from the [`SpanSet`] fold, so the per-block lifecycle
//! is reconstructed exactly once.

use crate::event::Stamped;
use crate::hist::Histogram;
use crate::ndjson::JsonObj;
use crate::span::SpanSet;

/// Aggregated stage timings for one commit path (leader or non-leader).
#[derive(Clone, Debug, Default)]
pub struct StageStats {
    /// Vertices aggregated (one sample per committing party per vertex).
    pub commits: u64,
    /// Propose at source → RBC-certified at the committing party (µs).
    pub rbc: Histogram,
    /// RBC-certified → committed at the committing party (µs).
    pub commit: Histogram,
    /// Propose → committed, end to end (µs).
    pub total: Histogram,
}

impl StageStats {
    fn render(&self, path: &str) -> String {
        let (rbc50, rbc90, rbc99, rbc_max) = self.rbc.readout();
        let (c50, c90, c99, c_max) = self.commit.readout();
        let (t50, t90, t99, t_max) = self.total.readout();
        JsonObj::new()
            .str("stage_breakdown", path)
            .u64("commits", self.commits)
            .u64("rbc_p50", rbc50)
            .u64("rbc_p90", rbc90)
            .u64("rbc_p99", rbc99)
            .u64("rbc_max", rbc_max)
            .u64("commit_p50", c50)
            .u64("commit_p90", c90)
            .u64("commit_p99", c99)
            .u64("commit_max", c_max)
            .u64("total_p50", t50)
            .u64("total_p90", t90)
            .u64("total_p99", t99)
            .u64("total_max", t_max)
            .finish()
    }
}

/// The full breakdown: leader vs. non-leader commit paths.
#[derive(Clone, Debug, Default)]
pub struct StageBreakdown {
    /// Round-leader vertices (direct 3δ path).
    pub leader: StageStats,
    /// Non-leader vertices (committed via a later leader's history).
    pub non_leader: StageStats,
}

impl StageBreakdown {
    /// Two NDJSON lines (`leader`, `non_leader`), each with a trailing
    /// newline.
    pub fn to_ndjson(&self) -> String {
        let mut out = self.leader.render("leader");
        out.push('\n');
        out.push_str(&self.non_leader.render("non_leader"));
        out.push('\n');
        out
    }
}

/// Derives the stage breakdown from an event stream.
///
/// Only vertices whose propose event is present are aggregated (warm-up
/// commits referencing pre-trace proposals are skipped), and per-party
/// intervals are clamped at zero — a party can learn a certificate through
/// a later vertex's carried justification before its own RBC instance
/// certifies.
pub fn stage_breakdown(events: &[Stamped]) -> StageBreakdown {
    let mut out = StageBreakdown::default();
    for span in SpanSet::from_events(events).spans.values() {
        let Some(prop) = span.proposed_at else {
            continue;
        };
        let stats = if span.leader {
            &mut out.leader
        } else {
            &mut out.non_leader
        };
        for (party, &(at, _)) in &span.committed {
            // Certified implicitly (e.g. through a carried certificate):
            // attribute the whole interval to the RBC stage.
            let cert = span.certified.get(party).copied().unwrap_or(at);
            stats.commits += 1;
            stats.rbc.record(cert.0.saturating_sub(prop.0));
            stats.commit.record(at.0.saturating_sub(cert.0));
            stats.total.record(at.0.saturating_sub(prop.0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, RbcPhase};
    use clanbft_types::{Micros, PartyId, Round};

    fn ev(at: u64, party: u32, event: Event) -> Stamped {
        Stamped {
            at: Micros(at),
            party: PartyId(party),
            event,
        }
    }

    fn proposed(round: Round, tx_count: u64) -> Event {
        Event::VertexProposed {
            round,
            tx_count,
            digest: 0,
            strong: Vec::new(),
            weak: 0,
        }
    }

    #[test]
    fn splits_leader_and_non_leader_paths() {
        let r = Round(1);
        let leader = PartyId(0);
        let other = PartyId(1);
        let events = vec![
            ev(100, 0, proposed(r, 5)),
            ev(110, 1, proposed(r, 5)),
            // Party 2 certifies both vertices, votes for the leader, then
            // commits leader (3δ path) and non-leader (later, 5δ path).
            ev(
                300,
                2,
                Event::Rbc {
                    phase: RbcPhase::Certified,
                    round: r,
                    source: leader,
                },
            ),
            ev(
                320,
                2,
                Event::Rbc {
                    phase: RbcPhase::Certified,
                    round: r,
                    source: other,
                },
            ),
            ev(350, 2, Event::LeaderVote { round: r, leader }),
            ev(
                600,
                2,
                Event::VertexCommitted {
                    round: r,
                    source: other,
                    leader: false,
                    sequence: 0,
                },
            ),
            ev(
                600,
                2,
                Event::VertexCommitted {
                    round: r,
                    source: leader,
                    leader: true,
                    sequence: 1,
                },
            ),
        ];
        let b = stage_breakdown(&events);
        assert_eq!(b.leader.commits, 1);
        assert_eq!(b.non_leader.commits, 1);
        // Leader vertex: propose 100, certified 300, committed 600.
        assert_eq!(b.leader.rbc.max(), 200);
        assert_eq!(b.leader.commit.max(), 300);
        assert_eq!(b.leader.total.max(), 500);
        // Non-leader vertex: propose 110, certified 320, committed 600.
        assert_eq!(b.non_leader.rbc.max(), 210);
        assert_eq!(b.non_leader.commit.max(), 280);
        assert_eq!(b.non_leader.total.max(), 490);
        // Renders two NDJSON lines.
        let nd = b.to_ndjson();
        assert_eq!(nd.lines().count(), 2);
        assert!(nd.starts_with(r#"{"stage_breakdown":"leader","commits":1"#));
    }

    #[test]
    fn commit_without_propose_is_skipped() {
        let events = vec![ev(
            50,
            0,
            Event::VertexCommitted {
                round: Round(9),
                source: PartyId(3),
                leader: true,
                sequence: 0,
            },
        )];
        let b = stage_breakdown(&events);
        assert_eq!(b.leader.commits, 0);
        assert_eq!(b.non_leader.commits, 0);
    }

    #[test]
    fn missing_certify_attributes_interval_to_rbc() {
        let r = Round(2);
        let src = PartyId(1);
        let events = vec![
            ev(100, 1, proposed(r, 1)),
            ev(
                400,
                0,
                Event::VertexCommitted {
                    round: r,
                    source: src,
                    leader: false,
                    sequence: 0,
                },
            ),
        ];
        let b = stage_breakdown(&events);
        assert_eq!(b.non_leader.rbc.max(), 300);
        assert_eq!(b.non_leader.commit.max(), 0);
        assert_eq!(b.non_leader.total.max(), 300);
    }
}
