//! Online health monitoring for clanbft runs (zero external deps).
//!
//! The rest of the observability stack explains a run after it ends
//! (flight recorder, spans, `clanbft-inspect`); this crate watches a run
//! while it is alive. A [`HealthMonitor`] taps the existing telemetry
//! stream — fanned out per party with [`TeeRecorder`] via
//! [`Telemetry::tee_with`] — and feeds a streaming [`DetectorBank`]:
//!
//! * **commit-stall watchdog** — a party's newest commit lags the cluster
//!   frontier beyond the threshold (judged by the *other* parties'
//!   progress, never by wall time, so quiescent run tails stay silent);
//! * **round skew** — a party's entered round trails the cluster maximum;
//! * **buffer growth** — a `buf.*` occupancy gauge crosses its high-water
//!   mark (clears only when all are back below the low-water mark);
//! * **pull-retry storm** — retries clustered in a rolling window, the
//!   signature of withholding;
//! * **evidence spike** — Byzantine evidence accumulating against a
//!   culprit;
//! * **mempool collapse** — capacity rejections clustered in a window;
//! * **WAL degradation** — slow fsyncs or oversized checkpoints.
//!
//! Each detector emits typed [`Alert`]s with hysteresis (fire/clear pairs,
//! dedup while held, per-detector rate caps), so a benign run's alert
//! stream is empty *by construction*. A tribe-level aggregation
//! ([`DetectorBank::assess`]) merges per-party state into one
//! [`Verdict`] — healthy / degraded / stalled — with the minority view
//! attributed to specific parties, and periodic [`HealthSnapshot`]s are
//! exportable as NDJSON lines or a Prometheus-style text exposition.
//!
//! The same [`DetectorBank`] replays recorded traces offline
//! ([`replay_events`], used by `clanbft-inspect alerts`), so online and
//! post-mortem verdicts cannot drift.
//!
//! [`TeeRecorder`]: clanbft_telemetry::TeeRecorder
//! [`Telemetry::tee_with`]: clanbft_telemetry::Telemetry::tee_with

pub mod alert;
pub mod detect;
pub mod health;

pub use alert::{Alert, AlertKind, Detector, Severity, DETECTOR_COUNT};
pub use detect::DetectorBank;
pub use health::{prometheus_exposition, HealthSnapshot, Verdict};

use clanbft_telemetry::{Event, Recorder, Stamped};
use clanbft_types::{Micros, PartyId};
use std::sync::{Arc, Mutex};

/// The shared online monitor: a cloneable handle over one [`DetectorBank`].
///
/// Wire-up: for each party, tee `monitor.probe(party)` into the node's
/// telemetry so party-anonymous gauge/counter/histogram samples arrive
/// attributed; tee `monitor.observer()` into the simulator's handle so the
/// globally-stamped event stream (which carries its own party) arrives
/// exactly once.
///
/// The bank sits behind a mutex. In the single-threaded simulator the lock
/// is never contended; under the threaded live transport it serialises the
/// parties' streams, which is exactly the merge the detectors need.
#[derive(Clone)]
pub struct HealthMonitor {
    bank: Arc<Mutex<DetectorBank>>,
}

impl Default for HealthMonitor {
    fn default() -> HealthMonitor {
        HealthMonitor::new()
    }
}

impl HealthMonitor {
    /// A fresh monitor.
    pub fn new() -> HealthMonitor {
        HealthMonitor {
            bank: Arc::new(Mutex::new(DetectorBank::new())),
        }
    }

    /// Registers `n` parties (0..n) up front so cluster verdicts cover
    /// parties that never produce an event (e.g. crashed at startup).
    pub fn expect_parties(&self, n: u32) {
        let mut bank = self.lock();
        for p in 0..n {
            bank.register(PartyId(p));
        }
    }

    /// A recorder that attributes metric samples to `party` and forwards
    /// events (which carry their own stamp party). Tee it into that
    /// party's node telemetry.
    pub fn probe(&self, party: PartyId) -> Arc<dyn Recorder> {
        Arc::new(PartyProbe {
            monitor: self.clone(),
            party,
        })
    }

    /// An event-only recorder for globally-scoped telemetry handles (the
    /// simulator's): events flow to the detectors, metric samples are
    /// dropped because they cannot be attributed to a party.
    pub fn observer(&self) -> Arc<dyn Recorder> {
        Arc::new(Observer {
            monitor: self.clone(),
        })
    }

    /// Runs `f` against the bank (alerts, snapshots, assess, settle, ...).
    pub fn with_bank<T>(&self, f: impl FnOnce(&mut DetectorBank) -> T) -> T {
        f(&mut self.lock())
    }

    /// Expires rolling windows at the current event-time and emits
    /// resulting clears. Call once at end of run, before the final verdict.
    pub fn settle(&self) {
        self.lock().settle();
    }

    /// The current cluster-health verdict.
    pub fn assess(&self) -> HealthSnapshot {
        self.lock().assess()
    }

    /// Every alert emitted so far.
    pub fn alerts(&self) -> Vec<Alert> {
        self.lock().alerts().to_vec()
    }

    /// The full alert stream as NDJSON, one line per alert (empty string
    /// for an alert-free run).
    pub fn alerts_ndjson(&self) -> String {
        let bank = self.lock();
        let mut out = String::new();
        for a in bank.alerts() {
            out.push_str(&a.to_ndjson());
            out.push('\n');
        }
        out
    }

    /// The periodic snapshot history as NDJSON, one line per snapshot.
    pub fn snapshots_ndjson(&self) -> String {
        let bank = self.lock();
        let mut out = String::new();
        for s in bank.snapshots() {
            out.push_str(&s.to_ndjson());
            out.push('\n');
        }
        out
    }

    /// Prometheus-style text exposition of the current health state.
    pub fn prometheus(&self) -> String {
        let bank = self.lock();
        prometheus_exposition(&bank.assess(), &bank.active(), &bank.fire_totals())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DetectorBank> {
        self.bank.lock().expect("monitor lock")
    }
}

struct PartyProbe {
    monitor: HealthMonitor,
    party: PartyId,
}

impl Recorder for PartyProbe {
    fn record(&self, metric: &'static str, value: u64) {
        self.monitor
            .lock()
            .observe_histogram(self.party, metric, value);
    }

    fn add(&self, counter: &'static str, delta: u64) {
        self.monitor
            .lock()
            .observe_counter(self.party, counter, delta);
    }

    fn gauge(&self, gauge: &'static str, value: u64) {
        self.monitor.lock().observe_gauge(self.party, gauge, value);
    }

    fn event(&self, at: Micros, party: PartyId, event: Event) {
        self.monitor
            .lock()
            .observe_event(&Stamped { at, party, event });
    }
}

struct Observer {
    monitor: HealthMonitor,
}

impl Recorder for Observer {
    fn record(&self, _metric: &'static str, _value: u64) {}
    fn add(&self, _counter: &'static str, _delta: u64) {}
    fn gauge(&self, _gauge: &'static str, _value: u64) {}

    fn event(&self, at: Micros, party: PartyId, event: Event) {
        self.monitor
            .lock()
            .observe_event(&Stamped { at, party, event });
    }
}

/// Replays a recorded event stream through the detector catalogue offline.
///
/// Only the event-driven detectors (commit stall, round skew, pull-retry
/// storm, evidence spike) see input here: gauge/counter/histogram samples
/// are not part of the event log, so buffer-growth, mempool-collapse and
/// WAL-degradation verdicts are online-only. The bank is settled (windows
/// expired, tail clears emitted) before being returned.
pub fn replay_events(events: &[Stamped], parties: u32) -> DetectorBank {
    let mut bank = DetectorBank::new();
    for p in 0..parties {
        bank.register(PartyId(p));
    }
    for s in events {
        bank.observe_event(s);
    }
    bank.settle();
    bank
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_telemetry::Telemetry;
    use clanbft_types::Round;

    #[test]
    fn probe_attributes_metrics_and_routes_events() {
        let monitor = HealthMonitor::default();
        monitor.expect_parties(4);
        let probe = monitor.probe(PartyId(2));
        // A buffer gauge sample through party 2's probe fires for party 2.
        probe.gauge(clanbft_telemetry::counters::BUF_DAG_PENDING, 10_000);
        assert!(monitor.with_bank(|b| b.is_active(Detector::BufferGrowth, PartyId(2))));
        // An event through the probe keeps its own stamp party.
        probe.event(
            Micros::from_millis(100),
            PartyId(0),
            Event::EvidenceRecorded {
                kind: "double_vote".into(),
                round: Round(1),
                culprit: PartyId(3),
            },
        );
        assert!(monitor.with_bank(|b| b.is_active(Detector::EvidenceSpike, PartyId(3))));
    }

    #[test]
    fn observer_drops_metrics_keeps_events() {
        let monitor = HealthMonitor::default();
        monitor.expect_parties(2);
        let obs = monitor.observer();
        obs.gauge(clanbft_telemetry::counters::BUF_DAG_PENDING, 10_000);
        assert!(monitor.alerts().is_empty());
        obs.event(
            Micros::from_millis(10),
            PartyId(1),
            Event::RoundEntered { round: Round(1) },
        );
        assert_eq!(monitor.with_bank(|b| b.max_round()), 1);
    }

    #[test]
    fn tee_with_fans_into_the_monitor() {
        let monitor = HealthMonitor::default();
        monitor.expect_parties(2);
        let (base, rec) = Telemetry::mem();
        let teed = base.tee_with(monitor.probe(PartyId(0)));
        teed.event(
            Micros::from_millis(5),
            PartyId(0),
            Event::RoundEntered { round: Round(2) },
        );
        // Both sinks saw the event.
        assert_eq!(rec.events().len(), 1);
        assert_eq!(monitor.with_bank(|b| b.max_round()), 2);
    }

    #[test]
    fn replay_matches_online_for_event_detectors() {
        let events: Vec<Stamped> = (0..8u64)
            .flat_map(|step| {
                (0..3u32).map(move |p| Stamped {
                    at: Micros::from_millis(step * 400 + p as u64),
                    party: PartyId(p),
                    event: Event::VertexCommitted {
                        round: Round(step),
                        source: PartyId(p),
                        leader: true,
                        sequence: step,
                    },
                })
            })
            .collect();
        // Party 3 never commits: replay must fire its stall.
        let bank = replay_events(&events, 4);
        assert!(bank.is_active(Detector::CommitStall, PartyId(3)));
        let online = HealthMonitor::default();
        online.expect_parties(4);
        let obs = online.observer();
        for s in &events {
            obs.event(s.at, s.party, s.event.clone());
        }
        online.settle();
        let online_ndjson = online.alerts_ndjson();
        let offline_ndjson: String = bank.alerts().iter().map(|a| a.to_ndjson() + "\n").collect();
        assert_eq!(online_ndjson, offline_ndjson);
    }

    #[test]
    fn prometheus_export_covers_verdict_and_actives() {
        let monitor = HealthMonitor::default();
        monitor.expect_parties(2);
        monitor
            .probe(PartyId(1))
            .gauge(clanbft_telemetry::counters::BUF_RBC_INSTANCES, 1 << 20);
        let text = monitor.prometheus();
        assert!(text.contains("clanbft_health_verdict 1\n"), "{text}");
        assert!(
            text.contains("clanbft_alert_active{detector=\"buffer_growth\",party=\"1\"} 1\n"),
            "{text}"
        );
    }
}
