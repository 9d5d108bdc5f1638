//! The recorder abstraction and its two implementations.
//!
//! A [`Telemetry`] handle is cloned into every node, RBC engine and the
//! simulator. The default is the disabled handle: every call site pays one
//! predictable branch and nothing else, so instrumentation can stay
//! permanently wired through the hot paths (`benches/micro.rs` pins the
//! overhead). [`MemRecorder`] collects everything in memory behind a mutex
//! — the simulator is single-threaded, so the lock is never contended and
//! the event order is the deterministic handler execution order.

use crate::counters;
use crate::event::{Event, Stamped};
use crate::hist::Histogram;
use crate::ndjson::JsonObj;
use clanbft_types::{Micros, PartyId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Default bound on [`MemRecorder`]'s event log. Generous enough for every
/// experiment in the repo (the fig5 full-scale sweep stays well under it),
/// small enough that a runaway sim cannot grow memory without bound.
pub const DEFAULT_EVENT_CAP: usize = 1_000_000;

/// Sink for metrics and protocol events.
pub trait Recorder: Send + Sync {
    /// Records `value` into the named histogram.
    fn record(&self, metric: &'static str, value: u64);

    /// Adds `delta` to the named counter.
    fn add(&self, counter: &'static str, delta: u64);

    /// Sets the named gauge to `value`.
    fn gauge(&self, gauge: &'static str, value: u64);

    /// Appends a stamped protocol event.
    fn event(&self, at: Micros, party: PartyId, event: Event);
}

/// A recorder that discards everything (used behind the disabled handle).
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _metric: &'static str, _value: u64) {}
    fn add(&self, _counter: &'static str, _delta: u64) {}
    fn gauge(&self, _gauge: &'static str, _value: u64) {}
    fn event(&self, _at: Micros, _party: PartyId, _event: Event) {}
}

/// Bound on [`MemRecorder`]'s log of recent gauge samples.
pub const GAUGE_LOG_CAP: usize = 1_024;

/// Newest events a [`MemRecorder::snapshot_ndjson`] black box holds:
/// enough to cover several rounds of a mid-size tribe.
pub const SNAPSHOT_EVENTS: usize = 4_096;

#[derive(Default)]
struct MemInner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    events: VecDeque<Stamped>,
    /// The newest [`GAUGE_LOG_CAP`] gauge samples, stamped with
    /// `last_at`.
    gauge_log: VecDeque<(Micros, &'static str, u64)>,
    /// Stamp of the newest event (a `Recorder::gauge` call carries no
    /// clock of its own).
    last_at: Micros,
}

/// In-memory recorder: counters, gauges, histograms, the event log and a
/// bounded log of recent gauge samples.
///
/// The event log is a ring: once `event_cap` events are held, each new
/// event evicts the oldest one and ticks [`counters::EVENTS_DROPPED`], so
/// the retained log is always the newest suffix of the run. Its
/// [`snapshot_ndjson`](MemRecorder::snapshot_ndjson) is the black box
/// [`crate::flight`] dumps on panic or on request.
pub struct MemRecorder {
    inner: Mutex<MemInner>,
    event_cap: usize,
}

impl Default for MemRecorder {
    fn default() -> MemRecorder {
        MemRecorder::with_capacity(DEFAULT_EVENT_CAP)
    }
}

impl MemRecorder {
    /// A fresh, empty recorder with the default event cap
    /// ([`DEFAULT_EVENT_CAP`]).
    pub fn new() -> MemRecorder {
        MemRecorder::default()
    }

    /// A fresh recorder bounding the event log at `event_cap` events
    /// (clamped to at least 1).
    pub fn with_capacity(event_cap: usize) -> MemRecorder {
        MemRecorder {
            inner: Mutex::default(),
            event_cap: event_cap.max(1),
        }
    }

    /// Events evicted from the ring so far (same value as the
    /// [`counters::EVENTS_DROPPED`] counter).
    pub fn dropped_events(&self) -> u64 {
        self.counter(counters::EVENTS_DROPPED)
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        *self
            .inner
            .lock()
            .expect("telemetry lock")
            .counters
            .get(name)
            .unwrap_or(&0)
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        self.inner
            .lock()
            .expect("telemetry lock")
            .gauges
            .get(name)
            .copied()
    }

    /// Snapshot of a named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .lock()
            .expect("telemetry lock")
            .histograms
            .get(name)
            .cloned()
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner
            .lock()
            .expect("telemetry lock")
            .counters
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// A clone of the retained event log, in emission order.
    pub fn events(&self) -> Vec<Stamped> {
        self.inner
            .lock()
            .expect("telemetry lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        self.inner.lock().expect("telemetry lock").events.len()
    }

    /// The whole event log as NDJSON (one event per line, trailing
    /// newline).
    pub fn to_ndjson(&self) -> String {
        let inner = self.inner.lock().expect("telemetry lock");
        let mut out = String::new();
        for ev in &inner.events {
            out.push_str(&ev.to_ndjson());
            out.push('\n');
        }
        out
    }

    /// Renders the black box as NDJSON: a header line, one line per
    /// counter, per latest gauge value and per logged gauge sample, then
    /// the newest [`SNAPSHOT_EVENTS`] events oldest-first (each in the
    /// standard trace format, so the dump parses as a trace). Framing
    /// lines carry a `"flight"` key, which trace readers count as skips.
    pub fn snapshot_ndjson(&self) -> String {
        let inner = self.inner.lock().expect("telemetry lock");
        let shown = inner.events.len().min(SNAPSHOT_EVENTS);
        let skipped = inner.events.len() - shown;
        let dropped = inner.counters.get(counters::EVENTS_DROPPED).unwrap_or(&0);
        let mut lines = vec![JsonObj::new()
            .str("flight", "header")
            .u64("events_retained", shown as u64)
            .u64("events_dropped", dropped + skipped as u64)
            .u64("last_at", inner.last_at.0)
            .finish()];
        for (kind, map) in [("counter", &inner.counters), ("gauge", &inner.gauges)] {
            lines.extend(map.iter().map(|(name, value)| {
                JsonObj::new()
                    .str("flight", kind)
                    .str("name", name)
                    .u64("value", *value)
                    .finish()
            }));
        }
        lines.extend(inner.gauge_log.iter().map(|(at, name, value)| {
            JsonObj::new()
                .str("flight", "gauge_sample")
                .u64("at", at.0)
                .str("name", name)
                .u64("value", *value)
                .finish()
        }));
        lines.extend(inner.events.range(skipped..).map(Stamped::to_ndjson));
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }
}

impl Recorder for MemRecorder {
    fn record(&self, metric: &'static str, value: u64) {
        self.inner
            .lock()
            .expect("telemetry lock")
            .histograms
            .entry(metric)
            .or_default()
            .record(value);
    }

    fn add(&self, counter: &'static str, delta: u64) {
        *self
            .inner
            .lock()
            .expect("telemetry lock")
            .counters
            .entry(counter)
            .or_insert(0) += delta;
    }

    fn gauge(&self, gauge: &'static str, value: u64) {
        let mut inner = self.inner.lock().expect("telemetry lock");
        inner.gauges.insert(gauge, value);
        if inner.gauge_log.len() >= GAUGE_LOG_CAP {
            inner.gauge_log.pop_front();
        }
        let at = inner.last_at;
        inner.gauge_log.push_back((at, gauge, value));
    }

    fn event(&self, at: Micros, party: PartyId, event: Event) {
        let mut inner = self.inner.lock().expect("telemetry lock");
        inner.last_at = at;
        if inner.events.len() >= self.event_cap {
            inner.events.pop_front();
            *inner.counters.entry(counters::EVENTS_DROPPED).or_insert(0) += 1;
        }
        inner.events.push_back(Stamped { at, party, event });
    }
}

/// Fans every call out to two recorders (e.g. a [`MemRecorder`] plus a
/// live health-monitor probe).
pub struct TeeRecorder {
    a: Arc<dyn Recorder>,
    b: Arc<dyn Recorder>,
}

impl TeeRecorder {
    /// A recorder duplicating every call into `a` then `b`.
    pub fn new(a: Arc<dyn Recorder>, b: Arc<dyn Recorder>) -> TeeRecorder {
        TeeRecorder { a, b }
    }
}

impl Recorder for TeeRecorder {
    fn record(&self, metric: &'static str, value: u64) {
        self.a.record(metric, value);
        self.b.record(metric, value);
    }

    fn add(&self, counter: &'static str, delta: u64) {
        self.a.add(counter, delta);
        self.b.add(counter, delta);
    }

    fn gauge(&self, gauge: &'static str, value: u64) {
        self.a.gauge(gauge, value);
        self.b.gauge(gauge, value);
    }

    fn event(&self, at: Micros, party: PartyId, event: Event) {
        self.a.event(at, party, event.clone());
        self.b.event(at, party, event);
    }
}

/// The cloneable handle threaded through the stack.
///
/// `enabled` is checked before touching the recorder, so a disabled handle
/// (the default everywhere) costs exactly one branch per instrumentation
/// point and never dereferences the trait object.
#[derive(Clone)]
pub struct Telemetry {
    enabled: bool,
    rec: Arc<dyn Recorder>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::null()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Telemetry(enabled={})", self.enabled)
    }
}

impl Telemetry {
    /// The disabled handle (default): all calls are one-branch no-ops.
    pub fn null() -> Telemetry {
        Telemetry {
            enabled: false,
            rec: Arc::new(NullRecorder),
        }
    }

    /// An enabled handle backed by a fresh [`MemRecorder`]; the recorder is
    /// returned alongside for readout after the run.
    pub fn mem() -> (Telemetry, Arc<MemRecorder>) {
        let rec = Arc::new(MemRecorder::new());
        (
            Telemetry {
                enabled: true,
                rec: Arc::clone(&rec) as Arc<dyn Recorder>,
            },
            rec,
        )
    }

    /// Like [`Telemetry::mem`] with an explicit event-log bound.
    pub fn mem_with_capacity(event_cap: usize) -> (Telemetry, Arc<MemRecorder>) {
        let rec = Arc::new(MemRecorder::with_capacity(event_cap));
        (
            Telemetry {
                enabled: true,
                rec: Arc::clone(&rec) as Arc<dyn Recorder>,
            },
            rec,
        )
    }

    /// An enabled handle over an arbitrary recorder implementation.
    pub fn with_recorder(rec: Arc<dyn Recorder>) -> Telemetry {
        Telemetry { enabled: true, rec }
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An enabled handle that fans every call into this handle's recorder
    /// *and* `other` (via [`TeeRecorder`]). If this handle is disabled,
    /// `other` simply becomes the recorder — the disabled side stays free.
    pub fn tee_with(&self, other: Arc<dyn Recorder>) -> Telemetry {
        if self.enabled {
            Telemetry::with_recorder(Arc::new(TeeRecorder::new(Arc::clone(&self.rec), other)))
        } else {
            Telemetry::with_recorder(other)
        }
    }

    /// Records `value` into the named histogram.
    #[inline]
    pub fn record(&self, metric: &'static str, value: u64) {
        if self.enabled {
            self.rec.record(metric, value);
        }
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn add(&self, counter: &'static str, delta: u64) {
        if self.enabled {
            self.rec.add(counter, delta);
        }
    }

    /// Sets the named gauge.
    #[inline]
    pub fn gauge(&self, gauge: &'static str, value: u64) {
        if self.enabled {
            self.rec.gauge(gauge, value);
        }
    }

    /// Appends a stamped protocol event.
    #[inline]
    pub fn event(&self, at: Micros, party: PartyId, event: Event) {
        if self.enabled {
            self.rec.event(at, party, event);
        }
    }
}

/// One NDJSON line summarising the client-ingress telemetry a recorder
/// collected: the admission/rejection counters and the queue-delay,
/// batch-size and batch-occupancy histogram readouts (p50/p99/max each).
/// Zero everywhere when the run had no ingress.
pub fn mempool_summary(rec: &MemRecorder) -> String {
    let hist = |name: &str| -> (u64, u64, u64) {
        rec.histogram(name)
            .map(|h| {
                let (p50, _p90, p99, max) = h.readout();
                (p50, p99, max)
            })
            .unwrap_or((0, 0, 0))
    };
    let (qd50, qd99, qdmax) = hist(counters::MEMPOOL_QUEUE_DELAY);
    let (bs50, bs99, bsmax) = hist(counters::MEMPOOL_BATCH_SIZE);
    let (oc50, _, _) = hist(counters::MEMPOOL_BATCH_OCCUPANCY);
    crate::JsonObj::new()
        .str("report", "mempool")
        .u64("admitted", rec.counter(counters::MEMPOOL_ADMITTED))
        .u64("pulled", rec.counter(counters::MEMPOOL_PULLED))
        .u64(
            "rejected_full",
            rec.counter(counters::MEMPOOL_REJECTED_FULL),
        )
        .u64(
            "rejected_duplicate",
            rec.counter(counters::MEMPOOL_REJECTED_DUPLICATE),
        )
        .u64("rejected_gap", rec.counter(counters::MEMPOOL_REJECTED_GAP))
        .u64(
            "rejected_client_cap",
            rec.counter(counters::MEMPOOL_REJECTED_CLIENT_CAP),
        )
        .u64("queue_delay_p50_us", qd50)
        .u64("queue_delay_p99_us", qd99)
        .u64("queue_delay_max_us", qdmax)
        .u64("batch_size_p50", bs50)
        .u64("batch_size_p99", bs99)
        .u64("batch_size_max", bsmax)
        .u64("batch_occupancy_p50_pct", oc50)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_types::Round;

    #[test]
    fn null_handle_is_disabled() {
        let t = Telemetry::null();
        assert!(!t.enabled());
        // All calls are no-ops (this is the hot-path branch).
        t.record("m", 1);
        t.add("c", 1);
        t.event(
            Micros(1),
            PartyId(0),
            Event::RoundEntered { round: Round(1) },
        );
    }

    #[test]
    fn mem_recorder_collects() {
        let (t, rec) = Telemetry::mem();
        assert!(t.enabled());
        t.add("net.sent_msgs", 2);
        t.add("net.sent_msgs", 3);
        t.gauge("dag.rounds", 7);
        t.record("lat", 100);
        t.record("lat", 300);
        t.event(
            Micros(5),
            PartyId(1),
            Event::RoundEntered { round: Round(2) },
        );
        assert_eq!(rec.counter("net.sent_msgs"), 5);
        assert_eq!(rec.gauge_value("dag.rounds"), Some(7));
        let h = rec.histogram("lat").expect("histogram exists");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 300);
        assert_eq!(rec.event_count(), 1);
        let nd = rec.to_ndjson();
        assert_eq!(
            nd,
            "{\"at\":5,\"party\":1,\"ev\":\"round_entered\",\"round\":2}\n"
        );
    }

    #[test]
    fn clones_share_the_recorder() {
        let (t, rec) = Telemetry::mem();
        let t2 = t.clone();
        t.add("c", 1);
        t2.add("c", 1);
        assert_eq!(rec.counter("c"), 2);
    }

    #[test]
    fn event_log_is_a_bounded_ring() {
        let (t, rec) = Telemetry::mem_with_capacity(3);
        for i in 0..5u64 {
            t.event(
                Micros(i),
                PartyId(0),
                Event::RoundEntered {
                    round: Round(i + 1),
                },
            );
        }
        // The newest 3 events are retained; the 2 oldest were evicted and
        // counted.
        assert_eq!(rec.event_count(), 3);
        assert_eq!(rec.dropped_events(), 2);
        assert_eq!(rec.counter(counters::EVENTS_DROPPED), 2);
        let rounds: Vec<u64> = rec
            .events()
            .iter()
            .map(|s| match s.event {
                Event::RoundEntered { round } => round.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rounds, vec![3, 4, 5]);
    }

    #[test]
    fn mempool_summary_reads_counters_and_histograms() {
        let (t, rec) = Telemetry::mem();
        let line = mempool_summary(&rec);
        assert!(line.contains("\"admitted\":0"), "empty recorder: {line}");
        t.add(counters::MEMPOOL_ADMITTED, 12);
        t.add(counters::MEMPOOL_REJECTED_FULL, 3);
        t.record(counters::MEMPOOL_QUEUE_DELAY, 800);
        t.record(counters::MEMPOOL_BATCH_SIZE, 64);
        let line = mempool_summary(&rec);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"report\":\"mempool\""));
        assert!(line.contains("\"admitted\":12"));
        assert!(line.contains("\"rejected_full\":3"));
        assert!(line.contains("\"queue_delay_p50_us\":"));
        assert!(line.contains("\"batch_size_p50\":"));
    }

    #[test]
    fn tee_duplicates_into_both_recorders() {
        let a = Arc::new(MemRecorder::new());
        let b = Arc::new(MemRecorder::new());
        let t = Telemetry::with_recorder(Arc::new(TeeRecorder::new(
            Arc::clone(&a) as Arc<dyn Recorder>,
            Arc::clone(&b) as Arc<dyn Recorder>,
        )));
        t.add("c", 4);
        t.gauge("g", 9);
        t.event(
            Micros(1),
            PartyId(2),
            Event::RoundEntered { round: Round(3) },
        );
        for rec in [&a, &b] {
            assert_eq!(rec.counter("c"), 4);
            assert_eq!(rec.gauge_value("g"), Some(9));
            assert_eq!(rec.event_count(), 1);
        }
    }
}
