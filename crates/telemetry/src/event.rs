//! The typed protocol event log.
//!
//! Every event is stamped at emission with the simulated clock and the
//! observing party ([`Stamped`]). The taxonomy covers the three layers the
//! paper's latency arithmetic decomposes: consensus (rounds, votes,
//! commits), the tribe-assisted RBC phases, and the simulated network
//! (drops, partition holds). Event streams are deterministic: same seed,
//! byte-identical NDJSON.
//!
//! Both directions of the line format live here: [`Stamped::to_ndjson`]
//! writes an event, [`Stamped::decode`] reads it back, and every label and
//! field name appears once per direction.

use crate::ndjson::{Fields, JsonObj, Value};
use clanbft_types::{Micros, PartyId, Round};
use std::borrow::Cow;

/// Which phase of a broadcast instance an [`Event::Rbc`] marks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RbcPhase {
    /// The source pushed VAL/meta for the instance.
    ValSent,
    /// This party echoed the instance's digest.
    Echoed,
    /// `2f+1` echoes incl. `f_c+1` clan echoes observed (early-pull gate).
    EchoQuorum,
    /// The digest is certified (2f+1 READYs or a valid echo certificate).
    Certified,
    /// `r_deliver` of the full payload.
    DeliverFull,
    /// `r_deliver` of the meta view.
    DeliverMeta,
    /// A payload/meta pull was started.
    PullStarted,
    /// A pull deadline expired and the request was re-sent to rotated
    /// peers (the recovery stage a withholding sender forces victims into).
    PullRetry,
}

impl RbcPhase {
    /// Stable label used in the NDJSON stream.
    pub fn label(self) -> &'static str {
        match self {
            RbcPhase::ValSent => "val_sent",
            RbcPhase::Echoed => "echoed",
            RbcPhase::EchoQuorum => "echo_quorum",
            RbcPhase::Certified => "certified",
            RbcPhase::DeliverFull => "deliver_full",
            RbcPhase::DeliverMeta => "deliver_meta",
            RbcPhase::PullStarted => "pull_started",
            RbcPhase::PullRetry => "pull_retry",
        }
    }

    /// The phase `label` names, if any (inverse of [`RbcPhase::label`]).
    pub fn from_label(label: &str) -> Option<RbcPhase> {
        Some(match label {
            "val_sent" => RbcPhase::ValSent,
            "echoed" => RbcPhase::Echoed,
            "echo_quorum" => RbcPhase::EchoQuorum,
            "certified" => RbcPhase::Certified,
            "deliver_full" => RbcPhase::DeliverFull,
            "deliver_meta" => RbcPhase::DeliverMeta,
            "pull_started" => RbcPhase::PullStarted,
            "pull_retry" => RbcPhase::PullRetry,
            _ => return None,
        })
    }
}

/// One protocol event (the un-stamped body).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// The party advanced into `round`.
    RoundEntered {
        /// The round entered.
        round: Round,
    },
    /// The party proposed its round-`round` vertex.
    VertexProposed {
        /// Proposal round.
        round: Round,
        /// Transactions in the proposed block.
        tx_count: u64,
        /// First eight bytes of the block digest (big-endian), enough to
        /// key the causal span and to tell equivocating twins apart while
        /// keeping the event log compact.
        digest: u64,
        /// Sources of the previous-round vertices the proposal strong-edges
        /// to (the DAG structure, reconstructible per round from the trace).
        strong: Vec<PartyId>,
        /// Number of weak edges (late arrivals swept in).
        weak: u64,
    },
    /// A broadcast instance `(round, source)` reached `phase` at this party.
    Rbc {
        /// RBC phase reached.
        phase: RbcPhase,
        /// Instance round.
        round: Round,
        /// Instance source.
        source: PartyId,
    },
    /// The party voted for the round leader's vertex.
    LeaderVote {
        /// Voted round.
        round: Round,
        /// The round's leader (vertex source voted for).
        leader: PartyId,
    },
    /// The party announced a timeout for `round` (it will never vote there).
    TimeoutAnnounced {
        /// The round timed out on.
        round: Round,
    },
    /// `2f+1` timeout announcements assembled into a timeout certificate.
    TimeoutCertFormed {
        /// Certified round.
        round: Round,
    },
    /// `2f+1` no-vote announcements assembled into a no-vote certificate.
    NoVoteCertFormed {
        /// Certified round.
        round: Round,
    },
    /// A vertex entered this party's total order.
    VertexCommitted {
        /// Vertex round.
        round: Round,
        /// Vertex source.
        source: PartyId,
        /// Whether this is the round leader's vertex (direct 3δ path) or a
        /// non-leader vertex swept in through the causal history (5δ path).
        leader: bool,
        /// Position in this party's total order.
        sequence: u64,
    },
    /// The simulator dropped a message (crashed endpoint).
    MsgDropped {
        /// Sender.
        src: PartyId,
        /// Intended receiver.
        dst: PartyId,
        /// Message kind label (borrowed at emission, owned once decoded).
        kind: Cow<'static, str>,
        /// Wire bytes lost.
        bytes: u64,
    },
    /// A partition held a message; it will be delivered after healing.
    PartitionHeld {
        /// Sender.
        src: PartyId,
        /// Receiver.
        dst: PartyId,
        /// When the cut heals.
        until: Micros,
    },
    /// Byzantine evidence recorded at this party (see
    /// `clanbft_types::Evidence` — carried here by its stable label to keep
    /// the event log digest-free).
    EvidenceRecorded {
        /// `Evidence::kind()` label (borrowed at emission, owned once
        /// decoded).
        kind: Cow<'static, str>,
        /// Round the conflict occurred in.
        round: Round,
        /// The party the evidence points at.
        culprit: PartyId,
    },
    /// A delivered vertex was buffered by the DAG layer because a causal
    /// parent is still missing (paper: causal-completeness gate).
    DagBuffered {
        /// Vertex round.
        round: Round,
        /// Vertex source.
        source: PartyId,
    },
    /// A vertex became live in the DAG (inserted with its full causal
    /// history present, possibly unblocking previously buffered ones).
    DagLive {
        /// Vertex round.
        round: Round,
        /// Vertex source.
        source: PartyId,
        /// Vertices still buffered as pending after this insertion — the
        /// live occupancy of the causal-completeness buffer.
        pending: u64,
    },
    /// A restarted party finished rebuilding from checkpoint + WAL and
    /// rejoined the protocol.
    RecoveryCompleted {
        /// The round the node resumed at.
        round: Round,
        /// WAL records replayed on top of the checkpoint.
        wal_records: u64,
        /// Restored commit-sequence frontier (next sequence to emit).
        commit_seq: u64,
        /// Wall-clock rebuild duration in microseconds. Host time, not
        /// simulated time — the one nondeterministic field in the stream,
        /// which is why determinism pins compare commit traces, not bytes.
        duration_us: u64,
    },
    /// An epoch boundary deterministically replaced dead clan members.
    EpochRotated {
        /// The epoch decided.
        epoch: u64,
        /// First round the rotated topology governs.
        from_round: Round,
        /// How many clan seats changed hands.
        replaced: u64,
    },
    /// Straw-man: a proof of availability completed (`f_c+1` acks).
    PoaFormed {
        /// Owner-local block sequence number.
        seq: u64,
    },
    /// Straw-man: a sequencing slot committed at this party.
    SlotCommitted {
        /// The slot.
        slot: u64,
        /// Transactions sequenced in it.
        txs: u64,
    },
}

impl Event {
    /// Stable event-type label used in the NDJSON stream.
    pub fn label(&self) -> &'static str {
        match self {
            Event::RoundEntered { .. } => "round_entered",
            Event::VertexProposed { .. } => "vertex_proposed",
            Event::Rbc { .. } => "rbc",
            Event::LeaderVote { .. } => "leader_vote",
            Event::TimeoutAnnounced { .. } => "timeout_announced",
            Event::TimeoutCertFormed { .. } => "timeout_cert_formed",
            Event::NoVoteCertFormed { .. } => "no_vote_cert_formed",
            Event::VertexCommitted { .. } => "vertex_committed",
            Event::MsgDropped { .. } => "msg_dropped",
            Event::PartitionHeld { .. } => "partition_held",
            Event::EvidenceRecorded { .. } => "evidence",
            Event::DagBuffered { .. } => "dag_buffered",
            Event::DagLive { .. } => "dag_live",
            Event::RecoveryCompleted { .. } => "recovery_completed",
            Event::EpochRotated { .. } => "epoch_rotated",
            Event::PoaFormed { .. } => "poa_formed",
            Event::SlotCommitted { .. } => "slot_committed",
        }
    }
}

/// An event stamped with simulated time and the observing party.
#[derive(Clone, Debug, PartialEq)]
pub struct Stamped {
    /// Simulated time of emission.
    pub at: Micros,
    /// The party that observed/emitted the event.
    pub party: PartyId,
    /// The event body.
    pub event: Event,
}

impl Stamped {
    /// Renders the event as one NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        let base = JsonObj::new()
            .u64("at", self.at.0)
            .u64("party", self.party.0 as u64)
            .str("ev", self.event.label());
        match &self.event {
            Event::RoundEntered { round }
            | Event::TimeoutAnnounced { round }
            | Event::TimeoutCertFormed { round }
            | Event::NoVoteCertFormed { round } => base.u64("round", round.0),
            Event::VertexProposed {
                round,
                tx_count,
                digest,
                strong,
                weak,
            } => base
                .u64("round", round.0)
                .u64("txs", *tx_count)
                .str("digest", &format!("{digest:016x}"))
                .arr_u64(
                    "strong",
                    &strong.iter().map(|p| p.0 as u64).collect::<Vec<u64>>(),
                )
                .u64("weak", *weak),
            Event::Rbc {
                phase,
                round,
                source,
            } => base
                .str("phase", phase.label())
                .u64("round", round.0)
                .u64("source", source.0 as u64),
            Event::LeaderVote { round, leader } => {
                base.u64("round", round.0).u64("leader", leader.0 as u64)
            }
            Event::VertexCommitted {
                round,
                source,
                leader,
                sequence,
            } => base
                .u64("round", round.0)
                .u64("source", source.0 as u64)
                .bool("leader", *leader)
                .u64("seq", *sequence),
            Event::MsgDropped {
                src,
                dst,
                kind,
                bytes,
            } => base
                .u64("src", src.0 as u64)
                .u64("dst", dst.0 as u64)
                .str("kind", kind)
                .u64("bytes", *bytes),
            Event::PartitionHeld { src, dst, until } => base
                .u64("src", src.0 as u64)
                .u64("dst", dst.0 as u64)
                .u64("until", until.0),
            Event::EvidenceRecorded {
                kind,
                round,
                culprit,
            } => base
                .str("kind", kind)
                .u64("round", round.0)
                .u64("culprit", culprit.0 as u64),
            Event::DagBuffered { round, source } => {
                base.u64("round", round.0).u64("source", source.0 as u64)
            }
            Event::DagLive {
                round,
                source,
                pending,
            } => base
                .u64("round", round.0)
                .u64("source", source.0 as u64)
                .u64("pending", *pending),
            Event::RecoveryCompleted {
                round,
                wal_records,
                commit_seq,
                duration_us,
            } => base
                .u64("round", round.0)
                .u64("wal_records", *wal_records)
                .u64("commit_seq", *commit_seq)
                .u64("duration_us", *duration_us),
            Event::EpochRotated {
                epoch,
                from_round,
                replaced,
            } => base
                .u64("epoch", *epoch)
                .u64("from_round", from_round.0)
                .u64("replaced", *replaced),
            Event::PoaFormed { seq } => base.u64("seq", *seq),
            Event::SlotCommitted { slot, txs } => base.u64("slot", *slot).u64("txs", *txs),
        }
        .finish()
    }

    /// Decodes one line read by [`parse_obj`](crate::ndjson::parse_obj):
    /// the inverse of [`Stamped::to_ndjson`].
    ///
    /// `Ok(None)` if the line has no `ev` label this build knows (a newer
    /// writer's event, or a non-event line). A known label with a missing
    /// or wrongly typed field is an error naming the field: every field
    /// the writer emits is required.
    pub fn decode(f: &Fields) -> Result<Option<Stamped>, String> {
        let Some(Value::Str(label)) = f.get("ev") else {
            return Ok(None);
        };
        let party = |key: &str| {
            let v = f.u64(key)?;
            u32::try_from(v)
                .map(PartyId)
                .map_err(|_| format!("field {key:?}: {v} is not a party id"))
        };
        let round = |key: &str| f.u64(key).map(Round);
        let event = match label.as_str() {
            "round_entered" => Event::RoundEntered {
                round: round("round")?,
            },
            "vertex_proposed" => Event::VertexProposed {
                round: round("round")?,
                tx_count: f.u64("txs")?,
                digest: u64::from_str_radix(f.str("digest")?, 16)
                    .map_err(|e| format!("field \"digest\": {e}"))?,
                strong: f
                    .arr_u64("strong")?
                    .iter()
                    .map(|&v| u32::try_from(v).map(PartyId))
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("field \"strong\": {e}"))?,
                weak: f.u64("weak")?,
            },
            "rbc" => Event::Rbc {
                phase: RbcPhase::from_label(f.str("phase")?)
                    .ok_or("field \"phase\": not an RBC phase label")?,
                round: round("round")?,
                source: party("source")?,
            },
            "leader_vote" => Event::LeaderVote {
                round: round("round")?,
                leader: party("leader")?,
            },
            "timeout_announced" => Event::TimeoutAnnounced {
                round: round("round")?,
            },
            "timeout_cert_formed" => Event::TimeoutCertFormed {
                round: round("round")?,
            },
            "no_vote_cert_formed" => Event::NoVoteCertFormed {
                round: round("round")?,
            },
            "vertex_committed" => Event::VertexCommitted {
                round: round("round")?,
                source: party("source")?,
                leader: f.bool("leader")?,
                sequence: f.u64("seq")?,
            },
            "msg_dropped" => Event::MsgDropped {
                src: party("src")?,
                dst: party("dst")?,
                kind: Cow::Owned(f.str("kind")?.to_string()),
                bytes: f.u64("bytes")?,
            },
            "partition_held" => Event::PartitionHeld {
                src: party("src")?,
                dst: party("dst")?,
                until: Micros(f.u64("until")?),
            },
            "evidence" => Event::EvidenceRecorded {
                kind: Cow::Owned(f.str("kind")?.to_string()),
                round: round("round")?,
                culprit: party("culprit")?,
            },
            "dag_buffered" => Event::DagBuffered {
                round: round("round")?,
                source: party("source")?,
            },
            "dag_live" => Event::DagLive {
                round: round("round")?,
                source: party("source")?,
                pending: f.u64("pending")?,
            },
            "recovery_completed" => Event::RecoveryCompleted {
                round: round("round")?,
                wal_records: f.u64("wal_records")?,
                commit_seq: f.u64("commit_seq")?,
                duration_us: f.u64("duration_us")?,
            },
            "epoch_rotated" => Event::EpochRotated {
                epoch: f.u64("epoch")?,
                from_round: round("from_round")?,
                replaced: f.u64("replaced")?,
            },
            "poa_formed" => Event::PoaFormed { seq: f.u64("seq")? },
            "slot_committed" => Event::SlotCommitted {
                slot: f.u64("slot")?,
                txs: f.u64("txs")?,
            },
            _ => return Ok(None),
        };
        Ok(Some(Stamped {
            at: Micros(f.u64("at")?),
            party: party("party")?,
            event,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_lines_are_stable() {
        let s = Stamped {
            at: Micros(1_234),
            party: PartyId(3),
            event: Event::VertexCommitted {
                round: Round(7),
                source: PartyId(2),
                leader: true,
                sequence: 11,
            },
        };
        assert_eq!(
            s.to_ndjson(),
            r#"{"at":1234,"party":3,"ev":"vertex_committed","round":7,"source":2,"leader":true,"seq":11}"#
        );
        let r = Stamped {
            at: Micros(9),
            party: PartyId(0),
            event: Event::Rbc {
                phase: RbcPhase::Certified,
                round: Round(1),
                source: PartyId(4),
            },
        };
        assert_eq!(
            r.to_ndjson(),
            r#"{"at":9,"party":0,"ev":"rbc","phase":"certified","round":1,"source":4}"#
        );
    }
}
