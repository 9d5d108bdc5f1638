//! Shared machinery for the broadcast engines: messages, events, effects,
//! and the per-instance state common to the 2- and 3-round variants
//! (payload/meta custody, per-digest echo tracking, the pull sub-protocol,
//! and at-most-once delivery).

use crate::payload::TribePayload;
use crate::topology::ClanTopology;
use clanbft_crypto::{AggregateSignature, Bitmap, Digest, Hasher, Signature};
use clanbft_simnet::cost::CostModel;
use clanbft_simnet::protocol::Message;
use clanbft_telemetry::{counters, Event, RbcPhase, Telemetry};
use clanbft_types::{Evidence, Micros, PartyId, Round};
use std::collections::HashMap;
use std::sync::Arc;

/// Retry attempts per pull before the engine gives up and leaves liveness
/// to the consensus-level timeout path (bounds the timer chain).
pub const MAX_PULL_ATTEMPTS: u8 = 6;

/// Distinct digests tracked per instance before further ones are dropped:
/// two prove equivocation; the margin absorbs replay noise without letting
/// a Byzantine source allocate unboundedly.
pub const MAX_DIGESTS_PER_INSTANCE: usize = 4;

/// Evidence records retained per engine (telemetry still counts overflow).
pub const EVIDENCE_CAP: usize = 256;

/// Rounds above the round hint that are still admitted; any packet further
/// in the future is rejected (`rejected.buffer_full`) so a Byzantine peer
/// cannot allocate unbounded buffers. The consensus layer applies the same
/// window to its direct messages.
pub const ROUND_WINDOW: u64 = 256;

/// High bit marking a timer token as an RBC pull-retry deadline. The
/// consensus layer uses plain round numbers as timer tokens, so the two
/// namespaces stay disjoint as long as rounds never reach 2^63.
pub const RETRY_TOKEN_FLAG: u64 = 1 << 63;

/// Packs `(round, source)` into a pull-retry timer token. Rounds must stay
/// below 2^43 and party indices below 2^20 — both far beyond any run.
pub fn retry_token(round: Round, source: PartyId) -> u64 {
    debug_assert!(round.0 < (1 << 43) && (source.0 as u64) < (1 << 20));
    RETRY_TOKEN_FLAG | (round.0 << 20) | source.0 as u64
}

/// Reverses [`retry_token`]; `None` for plain (consensus-round) tokens.
pub fn parse_retry_token(token: u64) -> Option<(Round, PartyId)> {
    if token & RETRY_TOKEN_FLAG == 0 {
        return None;
    }
    let body = token & !RETRY_TOKEN_FLAG;
    Some((Round(body >> 20), PartyId((body & 0xF_FFFF) as u32)))
}

/// One broadcast message, always in the context of `(source, round)`.
#[derive(Clone, Debug)]
pub enum RbcMsg<P: TribePayload> {
    /// Full payload, sent by the source to its clan.
    Val(P),
    /// Meta view, sent by the source to parties outside the clan.
    ValMeta(P::Meta),
    /// Echo of the payload digest; signed in the 2-round variant.
    /// The signature sits behind an `Arc` so a multicast to `n` parties
    /// clones a pointer, not 64 bytes.
    Echo {
        /// Digest being echoed.
        digest: Digest,
        /// Signature over the echo statement (2-round variant only).
        sig: Option<Arc<Signature>>,
    },
    /// Ready vote (3-round variant only).
    Ready {
        /// Digest being confirmed.
        digest: Digest,
    },
    /// Echo certificate `EC_r(m)` (2-round variant only), shared so that
    /// the all-to-all certificate multicast clones a pointer.
    EchoCert {
        /// Certified digest.
        digest: Digest,
        /// Aggregated echo signatures.
        cert: Arc<AggregateSignature>,
    },
    /// Request for a missing full payload.
    Pull {
        /// Digest of the wanted payload.
        digest: Digest,
    },
    /// Response carrying the full payload.
    PullResp(P),
    /// Request for a missing meta view.
    PullMeta {
        /// Digest of the wanted payload.
        digest: Digest,
    },
    /// Response carrying the meta view.
    MetaResp(P::Meta),
}

/// A routed broadcast message: the RBC instance key plus the message.
#[derive(Clone, Debug)]
pub struct RbcPacket<P: TribePayload> {
    /// The designated sender of the instance.
    pub source: PartyId,
    /// The round the instance belongs to.
    pub round: Round,
    /// The message body.
    pub msg: RbcMsg<P>,
}

/// Envelope overhead charged per packet (tag + source + round).
const PACKET_HEADER_BYTES: usize = 16;

impl<P: TribePayload> Message for RbcPacket<P> {
    fn wire_bytes(&self) -> usize {
        PACKET_HEADER_BYTES
            + match &self.msg {
                RbcMsg::Val(p) | RbcMsg::PullResp(p) => p.wire_bytes(),
                RbcMsg::ValMeta(m) | RbcMsg::MetaResp(m) => P::meta_wire_bytes(m),
                RbcMsg::Echo { sig, .. } => 32 + if sig.is_some() { 64 } else { 0 },
                RbcMsg::Ready { .. } => 32,
                // BLS-model certificate size: κ aggregate + signer bitmap.
                RbcMsg::EchoCert { cert, .. } => 32 + cert.wire_bytes(),
                RbcMsg::Pull { .. } | RbcMsg::PullMeta { .. } => 32,
            }
    }

    fn kind(&self) -> &'static str {
        match &self.msg {
            RbcMsg::Val(_) => "rbc.val",
            RbcMsg::ValMeta(_) => "rbc.meta",
            RbcMsg::Echo { .. } => "rbc.echo",
            RbcMsg::Ready { .. } => "rbc.ready",
            RbcMsg::EchoCert { .. } => "rbc.cert",
            RbcMsg::Pull { .. } => "rbc.pull",
            RbcMsg::PullResp(_) => "rbc.pull_resp",
            RbcMsg::PullMeta { .. } => "rbc.pull",
            RbcMsg::MetaResp(_) => "rbc.meta_resp",
        }
    }
}

/// Observable outcomes of the broadcast layer.
#[derive(Clone, Debug)]
pub enum RbcEvent<P: TribePayload> {
    /// `2f+1` echoes including `f_c+1` from the clan — a clan member may
    /// begin pulling the payload (paper §5's early-download optimization).
    EchoQuorum {
        /// Instance source.
        source: PartyId,
        /// Instance round.
        round: Round,
        /// Certified digest.
        digest: Digest,
    },
    /// The digest is certified: 2f+1 READYs (3-round) or a valid echo
    /// certificate (2-round). Consensus uses this for round progress.
    Certified {
        /// Instance source.
        source: PartyId,
        /// Instance round.
        round: Round,
        /// Certified digest.
        digest: Digest,
    },
    /// `r_deliver` of the full payload (clan members).
    DeliverFull {
        /// Instance source.
        source: PartyId,
        /// Instance round.
        round: Round,
        /// The payload.
        payload: P,
    },
    /// `r_deliver` of the meta view (parties outside the clan).
    DeliverMeta {
        /// Instance source.
        source: PartyId,
        /// Instance round.
        round: Round,
        /// The meta view.
        meta: P::Meta,
    },
}

/// Collected side effects of one engine invocation.
pub struct Effects<P: TribePayload> {
    /// Messages to transmit.
    pub out: Vec<(PartyId, RbcPacket<P>)>,
    /// Events for the layer above.
    pub events: Vec<RbcEvent<P>>,
    /// Simulated CPU time consumed.
    pub charge: Micros,
    /// Simulated time when the invocation started (telemetry stamp base;
    /// see [`Effects::at`]).
    pub now: Micros,
    /// Timers to arm: `(delay, token)`. The node layer forwards these to
    /// `Ctx::set_timer`; tokens carry the [`RETRY_TOKEN_FLAG`] namespace.
    pub timers: Vec<(Micros, u64)>,
}

impl<P: TribePayload> Default for Effects<P> {
    fn default() -> Self {
        Effects {
            out: Vec::new(),
            events: Vec::new(),
            charge: Micros::ZERO,
            now: Micros::ZERO,
            timers: Vec::new(),
        }
    }
}

impl<P: TribePayload> Effects<P> {
    /// A fresh, empty effect set (stamp base zero — fine for callers that
    /// don't record telemetry).
    pub fn new() -> Effects<P> {
        Effects::default()
    }

    /// A fresh effect set whose telemetry stamps are based at `now`, the
    /// simulated time the enclosing handler started.
    pub fn at(now: Micros) -> Effects<P> {
        Effects {
            now,
            ..Effects::default()
        }
    }

    /// Current simulated time as observed inside this invocation: the base
    /// plus CPU time charged so far. Mirrors `Ctx::now` semantics.
    pub fn stamp(&self) -> Micros {
        self.now + self.charge
    }

    pub(crate) fn send(&mut self, to: PartyId, source: PartyId, round: Round, msg: RbcMsg<P>) {
        self.out.push((to, RbcPacket { source, round, msg }));
    }

    /// Adds simulated CPU time to this effect set.
    pub fn charge(&mut self, c: Micros) {
        self.charge += c;
    }
}

/// The statement an echo signature covers. Public so tests and the
/// adversary harness can craft echoes for parties they hold keys for.
pub fn echo_statement(source: PartyId, round: Round, digest: &Digest) -> Digest {
    Hasher::new("clanbft/rbc-echo")
        .chain_u64(source.0 as u64)
        .chain_u64(round.0)
        .chain(digest.as_bytes())
        .finalize()
}

/// Per-digest echo bookkeeping.
pub(crate) struct EchoSet {
    pub all: Bitmap,
    pub clan_count: usize,
    /// Signed contributions, for certificate assembly (2-round variant).
    pub sigs: Vec<(usize, Signature)>,
}

impl EchoSet {
    fn new(n: usize) -> EchoSet {
        EchoSet {
            all: Bitmap::new(n),
            clan_count: 0,
            sigs: Vec::new(),
        }
    }
}

/// Per-digest ready bookkeeping (3-round variant).
pub(crate) struct ReadySet {
    pub all: Bitmap,
}

/// State of one broadcast instance at one party.
pub(crate) struct Instance<P: TribePayload> {
    /// Validated full payload, if held.
    pub payload: Option<P>,
    /// Digest of `payload`, cached (hashing a vertex repeatedly is hot).
    pub payload_digest: Option<Digest>,
    /// Meta view, if held.
    pub meta: Option<P::Meta>,
    /// Digest of `meta`, cached.
    pub meta_digest: Option<Digest>,
    /// Digest this party echoed (first valid VAL/meta accepted).
    pub echoed: Option<Digest>,
    /// Echoes seen, per digest.
    pub echoes: HashMap<Digest, EchoSet>,
    /// Readies seen, per digest (3-round variant).
    pub readies: HashMap<Digest, ReadySet>,
    /// Digest of my READY, if sent (3-round variant).
    pub ready_sent: Option<Digest>,
    /// Certified digest, once known.
    pub certified: Option<Digest>,
    /// Whether `EchoQuorum` has been emitted.
    pub echo_quorum_emitted: bool,
    /// Whether this party has `r_deliver`ed.
    pub delivered: bool,
    /// Pull escalation level: 0 = none, 1 = single-peer probe (echo
    /// quorum), 2 = full `f_c+1` fan-out (certification).
    pub pull_level: u8,
    /// Whether a meta pull has been issued.
    pub meta_pull_sent: bool,
    /// Whether an echo certificate has been multicast/forwarded (2-round).
    pub cert_sent: bool,
    /// Peers already served a pull response (rate limiting).
    pub served_pull: Bitmap,
    /// Peers already served a meta response (rate limiting).
    pub served_meta: Bitmap,
    /// Digest the outstanding pull is for (certified digest once known).
    pub pull_digest: Option<Digest>,
    /// Peers this party has directed a pull at (rotation avoids re-asking).
    pub asked: Bitmap,
    /// Retry deadlines fired for this instance so far.
    pub pull_attempts: u8,
    /// Whether the retry timer chain is running.
    pub retry_armed: bool,
    /// Whether equivocation evidence was already recorded here (dedup).
    pub equivocation_logged: bool,
    /// Whether the held payload arrived as a direct VAL from the source
    /// (makes a later certified-digest mismatch attributable equivocation).
    pub payload_direct: bool,
    /// Whether the held meta arrived as a direct ValMeta from the source.
    pub meta_direct: bool,
}

impl<P: TribePayload> Instance<P> {
    pub(crate) fn new(n: usize) -> Instance<P> {
        Instance {
            payload: None,
            payload_digest: None,
            meta: None,
            meta_digest: None,
            echoed: None,
            echoes: HashMap::new(),
            readies: HashMap::new(),
            ready_sent: None,
            certified: None,
            echo_quorum_emitted: false,
            delivered: false,
            pull_level: 0,
            meta_pull_sent: false,
            cert_sent: false,
            served_pull: Bitmap::new(n),
            served_meta: Bitmap::new(n),
            pull_digest: None,
            asked: Bitmap::new(n),
            pull_attempts: 0,
            retry_armed: false,
            equivocation_logged: false,
            payload_direct: false,
            meta_direct: false,
        }
    }

    pub(crate) fn echo_set(&mut self, n: usize, digest: Digest) -> &mut EchoSet {
        self.echoes.entry(digest).or_insert_with(|| EchoSet::new(n))
    }

    pub(crate) fn ready_set(&mut self, n: usize, digest: Digest) -> &mut ReadySet {
        self.readies.entry(digest).or_insert_with(|| ReadySet {
            all: Bitmap::new(n),
        })
    }
}

/// Configuration shared by both engine variants.
#[derive(Clone)]
pub struct EngineConfig {
    /// This party.
    pub me: PartyId,
    /// Tribe and clan structure governing rounds before the first epoch
    /// entry (and every round when `epochs` is empty — the common case).
    pub topology: Arc<ClanTopology>,
    /// Epoch-rotated clan structures as `(from_round, topology)` pairs in
    /// ascending `from_round` order. The tribe (membership, `f`, quorums)
    /// is identical across entries — only the clan assignment rotates, so
    /// `quorum`/`small_quorum`/`n` stay epoch-independent.
    pub epochs: Vec<(Round, Arc<ClanTopology>)>,
    /// CPU cost model for charge accounting.
    pub cost: CostModel,
    /// Telemetry sink for RBC phase events (disabled by default).
    pub telemetry: Telemetry,
    /// Base pull-retry deadline; doubles per attempt (capped) while a
    /// needed payload/meta view is outstanding.
    pub pull_retry: Micros,
}

impl EngineConfig {
    /// Convenience constructor (telemetry disabled; set the field to opt
    /// in).
    pub fn new(me: PartyId, topology: Arc<ClanTopology>, cost: CostModel) -> EngineConfig {
        EngineConfig {
            me,
            topology,
            epochs: Vec::new(),
            cost,
            telemetry: Telemetry::null(),
            pull_retry: Micros::from_millis(500),
        }
    }

    /// The clan structure governing broadcast instances of `round`: the
    /// last epoch entry with `from_round <= round`, else the base topology.
    pub fn topology_at(&self, round: Round) -> &Arc<ClanTopology> {
        self.epochs
            .iter()
            .rev()
            .find(|(from, _)| *from <= round)
            .map(|(_, t)| t)
            .unwrap_or(&self.topology)
    }

    /// Installs a rotated clan structure effective from `from_round`
    /// onward (idempotent per boundary; keeps entries sorted).
    pub fn install_epoch(&mut self, from_round: Round, topology: Arc<ClanTopology>) {
        self.epochs.retain(|(f, _)| *f != from_round);
        self.epochs.push((from_round, topology));
        self.epochs.sort_by_key(|(f, _)| *f);
    }

    /// Tribe quorum `2f+1`.
    pub fn quorum(&self) -> usize {
        self.topology.tribe().quorum()
    }

    /// Tribe `f+1`.
    pub fn small_quorum(&self) -> usize {
        self.topology.tribe().small_quorum()
    }

    /// Tribe size.
    pub fn n(&self) -> usize {
        self.topology.tribe().n()
    }
}

/// Live occupancy of the engine's bounded buffers, sampled into gauges by
/// the node layer (flight-recorder food: these are the numbers that tell a
/// post-mortem whether a stall was a full window, an echo-digest flood or
/// a pull backlog).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// RBC instances currently tracked inside the round window.
    pub instances: u64,
    /// Distinct echo digests tracked across all instances (>1 per
    /// instance only under equivocation).
    pub echo_digests: u64,
    /// Undelivered instances with an armed pull-retry chain.
    pub pending_pulls: u64,
    /// Evidence records accumulated and not yet drained by the node layer.
    pub evidence_backlog: u64,
}

/// Common instance-level operations parameterized by topology and cost
/// model. Both engines delegate here for VAL/meta custody, pulls and
/// delivery.
pub(crate) struct Core<P: TribePayload> {
    pub cfg: EngineConfig,
    pub instances: HashMap<(Round, PartyId), Instance<P>>,
    /// Rounds strictly below this were pruned and stay dead: replayed old
    /// packets must not recreate instances (bounded memory under replay).
    pub horizon: Round,
    /// Highest round this party knows to be legitimately active (own
    /// broadcasts, certifications, consensus round advances). The
    /// admission window extends [`ROUND_WINDOW`] beyond it.
    pub round_hint: Round,
    /// Recorded Byzantine conflicts, drained by the node layer.
    pub evidence: Vec<Evidence>,
}

impl<P: TribePayload> Core<P> {
    pub(crate) fn new(cfg: EngineConfig) -> Core<P> {
        Core {
            cfg,
            instances: HashMap::new(),
            horizon: Round(0),
            round_hint: Round(0),
            evidence: Vec::new(),
        }
    }

    /// Admission gate for every incoming packet: rejects rounds below the
    /// prune horizon (stale/replayed) and rounds beyond the bounded
    /// buffering window (far-future flooding). Counted, never silent.
    pub(crate) fn admit(&mut self, round: Round) -> bool {
        if round < self.horizon || round.0 > self.round_hint.0.saturating_add(ROUND_WINDOW) {
            self.cfg.telemetry.add(counters::REJECTED_BUFFER_FULL, 1);
            return false;
        }
        true
    }

    /// Widens the admission window: `round` is known legitimately active.
    pub(crate) fn note_round(&mut self, round: Round) {
        if round > self.round_hint {
            self.round_hint = round;
        }
    }

    /// Drains the evidence accumulated so far.
    pub(crate) fn take_evidence(&mut self) -> Vec<Evidence> {
        std::mem::take(&mut self.evidence)
    }

    /// Live occupancy of the bounded buffers (see [`BufferStats`]).
    pub(crate) fn buffer_stats(&self) -> BufferStats {
        let mut echo_digests = 0u64;
        let mut pending_pulls = 0u64;
        for inst in self.instances.values() {
            echo_digests += inst.echoes.len() as u64;
            if inst.retry_armed && !inst.delivered {
                pending_pulls += 1;
            }
        }
        BufferStats {
            instances: self.instances.len() as u64,
            echo_digests,
            pending_pulls,
            evidence_backlog: self.evidence.len() as u64,
        }
    }

    /// Counts + stores one evidence record (callers dedup per instance).
    pub(crate) fn record_evidence(&mut self, ev: Evidence, fx: &Effects<P>) {
        let tel = &self.cfg.telemetry;
        tel.add(counters::EVIDENCE_RECORDED, 1);
        tel.add(counters::REJECTED_EQUIVOCATION, 1);
        tel.event(
            fx.stamp(),
            self.cfg.me,
            Event::EvidenceRecorded {
                kind: ev.kind().into(),
                round: ev.round(),
                culprit: ev.culprit(),
            },
        );
        if self.evidence.len() < EVIDENCE_CAP {
            self.evidence.push(ev);
        }
    }

    pub(crate) fn instance(&mut self, round: Round, source: PartyId) -> &mut Instance<P> {
        let n = self.cfg.n();
        self.instances
            .entry((round, source))
            .or_insert_with(|| Instance::new(n))
    }

    /// The meta view held for `(round, source)`, if any.
    pub(crate) fn meta_of(&mut self, round: Round, source: PartyId) -> Option<P::Meta> {
        self.instance(round, source).meta.clone()
    }

    /// The full payload held for `(round, source)`, if any.
    pub(crate) fn payload_of(&mut self, round: Round, source: PartyId) -> Option<P> {
        self.instance(round, source).payload.clone()
    }

    /// Drops state for instances strictly below `round` (garbage
    /// collection; the DAG layer prunes in lockstep) and remembers the
    /// horizon so replayed packets cannot resurrect pruned instances.
    pub(crate) fn prune_below(&mut self, round: Round) {
        if round > self.horizon {
            self.horizon = round;
        }
        self.instances.retain(|(r, _), _| *r >= round);
    }

    /// Accepts a full payload (from VAL or PullResp); returns the digest to
    /// act on if the payload is fresh and valid.
    ///
    /// `direct` marks a VAL straight from the source: conflicts there are
    /// attributable equivocation (evidence + counter), while pulled-copy
    /// redundancy (several `PullResp`s racing in) is protocol-normal and
    /// stays silent.
    pub(crate) fn accept_payload(
        &mut self,
        round: Round,
        source: PartyId,
        payload: P,
        direct: bool,
        fx: &mut Effects<P>,
    ) -> Option<Digest> {
        let cost = self.cfg.cost;
        let tel = self.cfg.telemetry.clone();
        fx.charge(cost.hash(payload.wire_bytes()));
        if !payload.validate() {
            tel.add(counters::REJECTED_BAD_PAYLOAD, 1);
            return None;
        }
        let digest = payload.rbc_digest();
        let inst = self.instance(round, source);
        if let Some(held) = inst.payload_digest {
            if direct {
                if held != digest {
                    let logged = std::mem::replace(&mut inst.equivocation_logged, true);
                    if !logged {
                        self.record_evidence(
                            Evidence::EquivocatingSource {
                                round,
                                source,
                                first: held,
                                second: digest,
                            },
                            fx,
                        );
                    } else {
                        tel.add(counters::REJECTED_EQUIVOCATION, 1);
                    }
                } else {
                    tel.add(counters::REJECTED_DUPLICATE, 1);
                }
            }
            return None;
        }
        // Payloads must match an already-certified digest when one exists
        // (a Byzantine responder cannot swap payloads post-certification).
        if let Some(c) = inst.certified {
            if c != digest {
                if direct {
                    // Certified A, then a direct VAL for B: the source
                    // itself conflicts with its own certified broadcast.
                    let logged = std::mem::replace(&mut inst.equivocation_logged, true);
                    if !logged {
                        self.record_evidence(
                            Evidence::EquivocatingSource {
                                round,
                                source,
                                first: c,
                                second: digest,
                            },
                            fx,
                        );
                        return None;
                    }
                }
                tel.add(counters::REJECTED_BAD_PAYLOAD, 1);
                return None;
            }
        }
        if inst.meta.is_none() {
            inst.meta = Some(payload.meta());
            inst.meta_digest = Some(digest);
            inst.meta_direct = direct;
        }
        inst.payload = Some(payload);
        inst.payload_digest = Some(digest);
        inst.payload_direct = direct;
        fx.charge(cost.db_write());
        Some(digest)
    }

    /// Accepts a meta view; returns its digest if fresh. `direct` as in
    /// [`Core::accept_payload`].
    pub(crate) fn accept_meta(
        &mut self,
        round: Round,
        source: PartyId,
        meta: P::Meta,
        direct: bool,
        fx: &mut Effects<P>,
    ) -> Option<Digest> {
        let tel = self.cfg.telemetry.clone();
        let digest = P::meta_digest(&meta);
        let inst = self.instance(round, source);
        if let Some(held) = inst.meta_digest {
            if direct {
                if held != digest {
                    let logged = std::mem::replace(&mut inst.equivocation_logged, true);
                    if !logged {
                        self.record_evidence(
                            Evidence::EquivocatingSource {
                                round,
                                source,
                                first: held,
                                second: digest,
                            },
                            fx,
                        );
                    } else {
                        tel.add(counters::REJECTED_EQUIVOCATION, 1);
                    }
                } else {
                    tel.add(counters::REJECTED_DUPLICATE, 1);
                }
            }
            return None;
        }
        if let Some(c) = inst.certified {
            if c != digest {
                if direct {
                    tel.add(counters::REJECTED_BAD_PAYLOAD, 1);
                }
                return None;
            }
        }
        inst.meta = Some(meta);
        inst.meta_digest = Some(digest);
        inst.meta_direct = direct;
        Some(digest)
    }

    /// Records an echo; returns `(total, clan_count)` after insertion, or
    /// `None` for duplicates, capped digests and rejected conflicts.
    pub(crate) fn note_echo(
        &mut self,
        round: Round,
        source: PartyId,
        from: PartyId,
        digest: Digest,
        sig: Option<Signature>,
        fx: &mut Effects<P>,
    ) -> Option<(usize, usize)> {
        let n = self.cfg.n();
        let tel = self.cfg.telemetry.clone();
        let in_clan = self
            .cfg
            .topology_at(round)
            .clan_for_sender(source)
            .contains(from);
        let inst = self.instance(round, source);
        if !inst.echoes.contains_key(&digest) && !inst.echoes.is_empty() {
            // A second distinct digest behind one instance: the source is
            // behind two payloads (or an echoer is lying about it — see
            // Evidence docs on attribution strength per variant).
            if inst.echoes.len() >= MAX_DIGESTS_PER_INSTANCE {
                tel.add(counters::REJECTED_BUFFER_FULL, 1);
                return None;
            }
            if !inst.equivocation_logged {
                inst.equivocation_logged = true;
                // Deterministic "first" digest: what this party accepted
                // or echoed, falling back to the smallest tracked key.
                let first = inst
                    .echoed
                    .or(inst.payload_digest)
                    .or(inst.meta_digest)
                    .or_else(|| inst.echoes.keys().min().copied())
                    .unwrap_or(Digest::ZERO);
                self.record_evidence(
                    Evidence::EquivocatingSource {
                        round,
                        source,
                        first,
                        second: digest,
                    },
                    fx,
                );
            }
        }
        let inst = self.instance(round, source);
        let set = inst.echo_set(n, digest);
        if !set.all.set(from.idx()) {
            tel.add(counters::REJECTED_DUPLICATE, 1);
            return None;
        }
        if in_clan {
            set.clan_count += 1;
        }
        if let Some(s) = sig {
            set.sigs.push((from.idx(), s));
        }
        Some((set.all.count(), set.clan_count))
    }

    /// True iff `(total, clan)` meets the tribe-assisted echo threshold for
    /// this `source` in `round`: `2f+1` overall with at least `f_c+1` from
    /// the clan that `round`'s topology assigns the source to.
    pub(crate) fn echo_threshold_met(
        &self,
        round: Round,
        source: PartyId,
        total: usize,
        clan: usize,
    ) -> bool {
        total >= self.cfg.quorum()
            && clan
                >= self
                    .cfg
                    .topology_at(round)
                    .clan_for_sender(source)
                    .clan_quorum
    }

    /// Marks the digest certified and performs delivery or starts pulls.
    pub(crate) fn certify(
        &mut self,
        round: Round,
        source: PartyId,
        digest: Digest,
        fx: &mut Effects<P>,
    ) {
        let me = self.cfg.me;
        let tel = self.cfg.telemetry.clone();
        let full_receiver = self.cfg.topology_at(round).receives_full(me, source);
        // Certification required a real quorum, so the round is
        // legitimately active: widen the admission window to it.
        self.note_round(round);
        enum Act {
            Nothing,
            PullPayload,
            PullMeta,
        }
        let (act, conflict) = {
            let inst = self.instance(round, source);
            if inst.certified.is_some() {
                return;
            }
            // A direct copy from the source that disagrees with the digest
            // the tribe certified is attributable equivocation.
            let mut conflict: Option<Evidence> = None;
            let mut note_conflict = |held: Option<Digest>, was_direct: bool, logged: &mut bool| {
                if let Some(held) = held {
                    if held != digest && was_direct && !std::mem::replace(logged, true) {
                        conflict = Some(Evidence::EquivocatingSource {
                            round,
                            source,
                            first: held,
                            second: digest,
                        });
                    }
                }
            };
            note_conflict(
                inst.payload_digest,
                inst.payload_direct,
                &mut inst.equivocation_logged,
            );
            note_conflict(
                inst.meta_digest,
                inst.meta_direct,
                &mut inst.equivocation_logged,
            );
            inst.certified = Some(digest);
            fx.events.push(RbcEvent::Certified {
                source,
                round,
                digest,
            });
            tel.event(
                fx.stamp(),
                me,
                Event::Rbc {
                    phase: RbcPhase::Certified,
                    round,
                    source,
                },
            );
            let act = if inst.delivered {
                Act::Nothing
            } else if full_receiver {
                match (&inst.payload, inst.payload_digest) {
                    (Some(p), Some(d)) if d == digest => {
                        inst.delivered = true;
                        let payload = p.clone();
                        fx.events.push(RbcEvent::DeliverFull {
                            source,
                            round,
                            payload,
                        });
                        tel.event(
                            fx.stamp(),
                            me,
                            Event::Rbc {
                                phase: RbcPhase::DeliverFull,
                                round,
                                source,
                            },
                        );
                        Act::Nothing
                    }
                    _ => {
                        // Payload missing or (Byzantine sender) mismatched —
                        // discard a mismatch and pull the certified one.
                        if inst.payload_digest.is_some_and(|d| d != digest) {
                            inst.payload = None;
                            inst.payload_digest = None;
                        }
                        Act::PullPayload
                    }
                }
            } else {
                match (&inst.meta, inst.meta_digest) {
                    (Some(m), Some(d)) if d == digest => {
                        inst.delivered = true;
                        let meta = m.clone();
                        fx.events.push(RbcEvent::DeliverMeta {
                            source,
                            round,
                            meta,
                        });
                        tel.event(
                            fx.stamp(),
                            me,
                            Event::Rbc {
                                phase: RbcPhase::DeliverMeta,
                                round,
                                source,
                            },
                        );
                        Act::Nothing
                    }
                    _ => {
                        if inst.meta_digest.is_some_and(|d| d != digest) {
                            inst.meta = None;
                            inst.meta_digest = None;
                        }
                        Act::PullMeta
                    }
                }
            };
            (act, conflict)
        };
        if let Some(ev) = conflict {
            self.record_evidence(ev, fx);
        }
        match act {
            Act::Nothing => {}
            Act::PullPayload => self.start_pull(round, source, digest, 2, fx),
            Act::PullMeta => self.start_meta_pull(round, source, digest, fx),
        }
    }

    /// Emits `EchoQuorum` once and starts the early pull if this clan
    /// member lacks the payload.
    pub(crate) fn on_echo_quorum(
        &mut self,
        round: Round,
        source: PartyId,
        digest: Digest,
        fx: &mut Effects<P>,
    ) {
        let me = self.cfg.me;
        let tel = self.cfg.telemetry.clone();
        let full_receiver = self.cfg.topology_at(round).receives_full(me, source);
        let inst = self.instance(round, source);
        if inst.echo_quorum_emitted {
            return;
        }
        inst.echo_quorum_emitted = true;
        fx.events.push(RbcEvent::EchoQuorum {
            source,
            round,
            digest,
        });
        tel.event(
            fx.stamp(),
            me,
            Event::Rbc {
                phase: RbcPhase::EchoQuorum,
                round,
                source,
            },
        );
        let lacks_payload = inst.payload.is_none();
        if full_receiver && lacks_payload {
            // Gentle first probe: one clan echoer. In the good case the
            // sender's own copy is moments away; the guaranteed-honest
            // f_c+1 fan-out waits for certification (§5's early download,
            // without amplifying every in-flight block into a pull storm).
            self.start_pull(round, source, digest, 1, fx);
        }
    }

    /// Requests the payload from up to `level` escalation: 1 = a single
    /// clan echoer (cheap probe), 2 = `f_c+1` clan members that echoed
    /// `digest` (at least one of them is honest and holds it).
    fn start_pull(
        &mut self,
        round: Round,
        source: PartyId,
        digest: Digest,
        level: u8,
        fx: &mut Effects<P>,
    ) {
        let clan = self.cfg.topology_at(round).clan_for_sender(source).clone();
        let me = self.cfg.me;
        let inst = self.instance(round, source);
        if inst.pull_level >= level {
            return;
        }
        let already = inst.pull_level as usize;
        inst.pull_level = level;
        self.cfg.telemetry.event(
            fx.stamp(),
            me,
            Event::Rbc {
                phase: RbcPhase::PullStarted,
                round,
                source,
            },
        );
        let pull_retry = self.cfg.pull_retry;
        let inst = self.instance(round, source);
        let want = if level >= 2 { clan.clan_quorum } else { 1 };
        let targets: Vec<PartyId> = inst
            .echoes
            .get(&digest)
            .map(|set| {
                set.all
                    .iter()
                    .map(|i| PartyId(i as u32))
                    .filter(|p| clan.contains(*p) && *p != me)
                    .take(want)
                    .skip(already)
                    .collect()
            })
            .unwrap_or_default();
        // Fall back to the whole clan if echo provenance is unknown (can
        // happen when certification arrives via certificate before echoes).
        let targets = if targets.is_empty() && already == 0 {
            clan.members
                .iter()
                .copied()
                .filter(|p| *p != me)
                .take(want)
                .collect()
        } else {
            targets
        };
        inst.pull_digest = Some(digest);
        for t in targets {
            inst.asked.set(t.idx());
            fx.send(t, source, round, RbcMsg::Pull { digest });
        }
        // Arm the retry chain: if none of the targets answers before the
        // deadline, `on_retry` rotates to peers not yet asked.
        if !inst.retry_armed {
            inst.retry_armed = true;
            fx.timers.push((pull_retry, retry_token(round, source)));
        }
    }

    /// Requests the meta view from `f+1` tribe members that echoed it.
    fn start_meta_pull(
        &mut self,
        round: Round,
        source: PartyId,
        digest: Digest,
        fx: &mut Effects<P>,
    ) {
        let me = self.cfg.me;
        let f1 = self.cfg.small_quorum();
        let n = self.cfg.n();
        let inst = self.instance(round, source);
        if inst.meta_pull_sent {
            return;
        }
        inst.meta_pull_sent = true;
        self.cfg.telemetry.event(
            fx.stamp(),
            me,
            Event::Rbc {
                phase: RbcPhase::PullStarted,
                round,
                source,
            },
        );
        let pull_retry = self.cfg.pull_retry;
        let inst = self.instance(round, source);
        let mut targets: Vec<PartyId> = inst
            .echoes
            .get(&digest)
            .map(|set| {
                set.all
                    .iter()
                    .map(|i| PartyId(i as u32))
                    .filter(|p| *p != me)
                    .take(f1)
                    .collect()
            })
            .unwrap_or_default();
        if targets.is_empty() {
            targets = (0..n as u32)
                .map(PartyId)
                .filter(|p| *p != me)
                .take(f1)
                .collect();
        }
        inst.pull_digest = Some(digest);
        for t in targets {
            inst.asked.set(t.idx());
            fx.send(t, source, round, RbcMsg::PullMeta { digest });
        }
        if !inst.retry_armed {
            inst.retry_armed = true;
            fx.timers.push((pull_retry, retry_token(round, source)));
        }
    }

    /// Serves a pull request if this party holds the matching payload.
    ///
    /// Rate limit: one *response* per peer per instance. The slot is only
    /// burned when a response is actually sent — a pull that raced ahead of
    /// the payload leaves the peer eligible for its one answer later
    /// (otherwise retries could never succeed against slow holders).
    pub(crate) fn handle_pull(
        &mut self,
        round: Round,
        source: PartyId,
        from: PartyId,
        digest: Digest,
        fx: &mut Effects<P>,
    ) {
        let tel = self.cfg.telemetry.clone();
        let inst = self.instance(round, source);
        if inst.served_pull.get(from.idx()) {
            tel.add(counters::REJECTED_DUPLICATE, 1);
            return;
        }
        if let (Some(p), Some(d)) = (&inst.payload, inst.payload_digest) {
            if d == digest {
                let payload = p.clone();
                inst.served_pull.set(from.idx());
                fx.send(from, source, round, RbcMsg::PullResp(payload));
            }
        }
    }

    /// Serves a meta pull request (same one-response rate limit as
    /// [`Core::handle_pull`]).
    pub(crate) fn handle_pull_meta(
        &mut self,
        round: Round,
        source: PartyId,
        from: PartyId,
        digest: Digest,
        fx: &mut Effects<P>,
    ) {
        let tel = self.cfg.telemetry.clone();
        let inst = self.instance(round, source);
        if inst.served_meta.get(from.idx()) {
            tel.add(counters::REJECTED_DUPLICATE, 1);
            return;
        }
        if let (Some(m), Some(d)) = (&inst.meta, inst.meta_digest) {
            if d == digest {
                let meta = m.clone();
                inst.served_meta.set(from.idx());
                fx.send(from, source, round, RbcMsg::MetaResp(meta));
            }
        }
    }

    /// Fires when a pull-retry deadline expires: if the instance still
    /// needs data, re-send the pull to peers not yet asked (rotation) and
    /// re-arm with exponential backoff. A withholding first target
    /// therefore stalls delivery by at most one deadline.
    pub(crate) fn on_retry(&mut self, round: Round, source: PartyId, fx: &mut Effects<P>) {
        let _prof = clanbft_profiler::scope("rbc.retry");
        let me = self.cfg.me;
        let tel = self.cfg.telemetry.clone();
        let base = self.cfg.pull_retry;
        let full_receiver = self.cfg.topology_at(round).receives_full(me, source);
        let clan = self.cfg.topology_at(round).clan_for_sender(source).clone();
        let f1 = self.cfg.small_quorum();
        let n = self.cfg.n();
        if round < self.horizon {
            return; // instance pruned (committed + GC'd): chain dies
        }
        let Some(inst) = self.instances.get_mut(&(round, source)) else {
            return;
        };
        if inst.delivered || inst.pull_attempts >= MAX_PULL_ATTEMPTS {
            inst.retry_armed = false;
            return;
        }
        inst.pull_attempts += 1;
        let delay = Micros(base.0 << (inst.pull_attempts.min(3) as u64));
        let digest = match inst.certified.or(inst.pull_digest) {
            Some(d) => d,
            None => {
                // Nothing certified and no pull outstanding: keep a slow
                // heartbeat in case certification arrives later (it will
                // escalate pulls itself; this chain is already armed).
                fx.timers.push((delay, retry_token(round, source)));
                return;
            }
        };
        let needs = if full_receiver {
            inst.payload.is_none()
        } else {
            inst.meta.is_none()
        };
        if !needs {
            inst.retry_armed = false;
            return;
        }
        // Rotate: prefer echoers of the digest we have not asked yet, then
        // any eligible peer not asked; once everyone was asked, clear the
        // slate and start over (a served response would have delivered).
        let eligible: Vec<PartyId> = if full_receiver {
            clan.members.iter().copied().filter(|p| *p != me).collect()
        } else {
            (0..n as u32).map(PartyId).filter(|p| *p != me).collect()
        };
        let want = if full_receiver {
            clan.clan_quorum.max(1)
        } else {
            f1
        };
        let echoers: Vec<PartyId> = inst
            .echoes
            .get(&digest)
            .map(|set| set.all.iter().map(|i| PartyId(i as u32)).collect())
            .unwrap_or_default();
        let mut targets: Vec<PartyId> = Vec::with_capacity(want);
        for p in echoers.iter().chain(eligible.iter()).copied() {
            if targets.len() >= want {
                break;
            }
            if eligible.contains(&p) && !inst.asked.get(p.idx()) && !targets.contains(&p) {
                targets.push(p);
            }
        }
        if targets.is_empty() {
            inst.asked = Bitmap::new(n);
            targets = eligible.into_iter().take(want).collect();
        }
        tel.add(counters::PULL_RETRIES, 1);
        tel.event(
            fx.stamp(),
            me,
            Event::Rbc {
                phase: RbcPhase::PullRetry,
                round,
                source,
            },
        );
        for t in targets {
            inst.asked.set(t.idx());
            let msg = if full_receiver {
                RbcMsg::Pull { digest }
            } else {
                RbcMsg::PullMeta { digest }
            };
            fx.send(t, source, round, msg);
        }
        fx.timers.push((delay, retry_token(round, source)));
    }

    /// Delivers if the instance is certified and this party now holds the
    /// matching payload (clan member) or meta view (everyone else).
    pub(crate) fn deliver_if_ready(&mut self, round: Round, source: PartyId, fx: &mut Effects<P>) {
        let me = self.cfg.me;
        let full_receiver = self.cfg.topology_at(round).receives_full(me, source);
        let inst = self.instance(round, source);
        if inst.delivered {
            return;
        }
        if full_receiver {
            if let (Some(c), Some(p), Some(d)) =
                (inst.certified, &inst.payload, inst.payload_digest)
            {
                if d == c {
                    inst.delivered = true;
                    let payload = p.clone();
                    fx.events.push(RbcEvent::DeliverFull {
                        source,
                        round,
                        payload,
                    });
                }
            }
        } else if let (Some(c), Some(m), Some(d)) = (inst.certified, &inst.meta, inst.meta_digest) {
            if d == c {
                inst.delivered = true;
                let meta = m.clone();
                fx.events.push(RbcEvent::DeliverMeta {
                    source,
                    round,
                    meta,
                });
            }
        }
    }

    /// Integrates a pulled payload, delivering if certified.
    pub(crate) fn handle_pull_resp(
        &mut self,
        round: Round,
        source: PartyId,
        payload: P,
        fx: &mut Effects<P>,
    ) {
        if self
            .accept_payload(round, source, payload, false, fx)
            .is_none()
        {
            return;
        }
        self.deliver_if_ready(round, source, fx);
    }

    /// Integrates a pulled meta view, delivering if certified.
    pub(crate) fn handle_meta_resp(
        &mut self,
        round: Round,
        source: PartyId,
        meta: P::Meta,
        fx: &mut Effects<P>,
    ) {
        if self.accept_meta(round, source, meta, false, fx).is_none() {
            return;
        }
        self.deliver_if_ready(round, source, fx);
    }
}
