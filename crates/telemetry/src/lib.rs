//! Observability substrate for the clanbft workspace (zero external deps).
//!
//! The paper's claims are about *where* time and bytes go — vertex-RBC vs.
//! block-RBC phases, leader vs. non-leader commit paths (3δ vs. 5δ),
//! clan-local vs. tribe-wide traffic — but end-to-end throughput/latency
//! totals cannot check any of them. This crate provides the measuring
//! stick:
//!
//! * [`recorder`] — the [`Recorder`] trait with [`NullRecorder`] (the
//!   default; one branch per call site when disabled) and [`MemRecorder`]
//!   (named counters, gauges, log-bucketed histograms, and the full event
//!   log). The cloneable [`Telemetry`] handle is what gets threaded through
//!   consensus, the RBC engines and the simulator.
//! * [`counters`] — canonical names for the rejection/hardening counters
//!   (`rejected.*`, `pull.retries`) shared by rbc, consensus and tests.
//! * [`event`] — the typed protocol event log: every event is stamped with
//!   sim-time [`Micros`] and the observing [`PartyId`]. It owns both halves
//!   of the line format: [`Stamped::to_ndjson`] and [`Stamped::decode`].
//! * [`hist`] — power-of-two log-bucketed [`Histogram`] with p50/p90/p99
//!   and max readout.
//! * [`ndjson`] — a hand-rolled flat-JSON writer ([`JsonObj`]) and the
//!   reader that accepts exactly what it writes ([`parse_obj`]), matching
//!   the `codec.rs` philosophy: deterministic, dependency-free.
//! * [`perf`] — the profile file: a `clanbft_profiler::Report` as NDJSON,
//!   written by [`encode_profile`] and read by [`decode_profiles`].
//! * [`trace`] — the merged-trace file: the [`RunMeta`] line plus events,
//!   decoded into a [`Trace`]. Unknown event labels are a counted skip; a
//!   known label with a missing field is an error.
//! * [`stage`] — derives the per-vertex commit-latency *stage breakdown*
//!   (propose → RBC-certify → commit), split by leader/non-leader path,
//!   from the [`span`] fold of a recorded event stream.
//! * [`span`] — causal commit spans: one block's lifecycle
//!   (`Proposed → Echoed → Certified → Ordered → Committed`) reconstructed
//!   across all parties from a merged trace.
//! * [`flight`] — the black-box dump: a [`MemRecorder`]'s newest events,
//!   counters and gauge samples, written on panic or `CLANBFT_DUMP`.
//!
//! [`Micros`]: clanbft_types::Micros
//! [`PartyId`]: clanbft_types::PartyId

pub mod counters;
pub mod event;
pub mod flight;
pub mod hist;
pub mod ndjson;
pub mod perf;
pub mod recorder;
pub mod span;
pub mod stage;
pub mod trace;

pub use event::{Event, RbcPhase, Stamped};
pub use flight::install_panic_dump;
pub use hist::Histogram;
pub use ndjson::{parse_obj, Fields, JsonObj, Value};
pub use perf::{decode_profile, decode_profiles, encode_profile, Profile};
pub use recorder::{mempool_summary, MemRecorder, NullRecorder, Recorder, TeeRecorder, Telemetry};
pub use span::{Span, SpanSet, Stage};
pub use stage::{stage_breakdown, StageBreakdown, StageStats};
pub use trace::{RunMeta, Trace};
