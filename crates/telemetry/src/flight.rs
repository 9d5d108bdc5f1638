//! The black-box dump: what were the last moments before the crash?
//!
//! [`MemRecorder::snapshot_ndjson`] renders the recorder's running
//! counters, the latest value of every gauge, its bounded log of recent
//! gauge samples (the bounded buffers: round-window occupancy, echo-digest
//! counts, pending pulls, evidence backlog) and the newest events. This
//! module writes that snapshot out.
//!
//! Safety violations in this workspace are `assert!`s, i.e. panics:
//! [`install_panic_dump`] hooks the panic handler to write the snapshot to
//! `CLANBFT_DUMP` (or `clanbft-flight.ndjson`) before unwinding, and
//! [`MemRecorder::dump_if_requested`] writes the same snapshot at the end
//! of a healthy run when `CLANBFT_DUMP` is set.

use crate::recorder::MemRecorder;
use std::sync::Arc;

/// Environment variable naming the dump file.
pub const DUMP_ENV: &str = "CLANBFT_DUMP";

/// Fallback dump path when [`DUMP_ENV`] is unset at panic time.
pub const DEFAULT_DUMP_PATH: &str = "clanbft-flight.ndjson";

impl MemRecorder {
    /// Writes the snapshot to `path`. Errors are returned, not panicked on
    /// — this runs inside panic handlers.
    pub fn dump_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.snapshot_ndjson())
    }

    /// Writes the snapshot to `$CLANBFT_DUMP` if the variable is set.
    /// Returns the path written, if any.
    pub fn dump_if_requested(&self) -> Option<String> {
        let path = std::env::var(DUMP_ENV).ok()?;
        if path.is_empty() {
            return None;
        }
        match self.dump_to(&path) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("flight recorder: failed to write {path}: {e}");
                None
            }
        }
    }
}

/// Chains a panic hook that dumps `rec`'s snapshot to `$CLANBFT_DUMP` (or
/// [`DEFAULT_DUMP_PATH`]) before the previous hook runs, so any
/// safety-check failure (they are asserts) leaves a black box behind.
pub fn install_panic_dump(rec: Arc<MemRecorder>) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let path = std::env::var(DUMP_ENV).unwrap_or_else(|_| DEFAULT_DUMP_PATH.to_string());
        if !path.is_empty() {
            match rec.dump_to(&path) {
                Ok(()) => eprintln!("flight recorder: black box written to {path}"),
                Err(e) => eprintln!("flight recorder: failed to write {path}: {e}"),
            }
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::recorder::{Recorder, GAUGE_LOG_CAP, SNAPSHOT_EVENTS};
    use clanbft_types::{Micros, PartyId, Round};

    fn enter(rec: &MemRecorder, at: u64, party: u32, round: u64) {
        rec.event(
            Micros(at),
            PartyId(party),
            Event::RoundEntered {
                round: Round(round),
            },
        );
    }

    #[test]
    fn ring_keeps_the_newest_suffix() {
        // The ring evicts 2 events and the snapshot shows only the newest
        // SNAPSHOT_EVENTS of the rest: rounds 1-3 are gone.
        let rec = MemRecorder::with_capacity(SNAPSHOT_EVENTS + 1);
        let total = SNAPSHOT_EVENTS as u64 + 3;
        for i in 0..total {
            enter(&rec, i, 0, i + 1);
        }
        let snap = rec.snapshot_ndjson();
        let header = format!(
            r#"{{"flight":"header","events_retained":{SNAPSHOT_EVENTS},"events_dropped":3,"last_at":{}}}"#,
            total - 1
        );
        assert_eq!(snap.lines().next(), Some(header.as_str()));
        let mut events = snap.lines().filter(|l| l.contains(r#""ev":"#));
        assert_eq!(
            events.next(),
            Some(r#"{"at":3,"party":0,"ev":"round_entered","round":4}"#)
        );
        assert_eq!(events.count(), SNAPSHOT_EVENTS - 1);
    }

    #[test]
    fn gauges_are_sampled_with_the_event_clock() {
        let rec = MemRecorder::new();
        enter(&rec, 100, 1, 1);
        rec.gauge("buf.rbc.instances", 3);
        enter(&rec, 200, 1, 2);
        rec.gauge("buf.rbc.instances", 5);
        for _ in 1..GAUGE_LOG_CAP {
            rec.gauge("buf.dag.pending", 1);
        }
        rec.add("pull.retries", 2);
        let snap = rec.snapshot_ndjson();
        // Latest gauge values.
        assert!(snap.contains(r#""flight":"gauge","name":"buf.rbc.instances","value":5"#));
        // The sample log is bounded: the first sample was evicted.
        assert!(!snap
            .contains(r#""flight":"gauge_sample","at":100,"name":"buf.rbc.instances","value":3"#));
        assert!(snap
            .contains(r#""flight":"gauge_sample","at":200,"name":"buf.rbc.instances","value":5"#));
        assert!(snap.contains(r#""flight":"counter","name":"pull.retries","value":2"#));
    }

    #[test]
    fn dump_to_writes_the_snapshot() {
        let rec = MemRecorder::new();
        enter(&rec, 7, 2, 9);
        let dir = std::env::temp_dir();
        let path = dir.join("clanbft-flight-test.ndjson");
        let path = path.to_str().expect("utf8 temp path");
        rec.dump_to(path).expect("dump writes");
        let written = std::fs::read_to_string(path).expect("dump readable");
        assert_eq!(written, rec.snapshot_ndjson());
        let _ = std::fs::remove_file(path);
    }
}
