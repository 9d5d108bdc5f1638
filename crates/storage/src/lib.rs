//! Durability substrate for clanbft nodes (zero external deps).
//!
//! A crashed party must come back without equivocating, without re-acking
//! committed sequence numbers, and without asking the tribe to replay the
//! whole run. This crate provides the two primitives that make that
//! possible, both hand-rolled per the workspace's zero-dependency policy:
//!
//! * [`wal`] — an fsync'd append-only write-ahead log with length-prefixed,
//!   CRC-framed records ([`records::WalRecord`]) and torn-tail truncation
//!   on replay;
//! * [`checkpoint`] — periodic, atomically-installed DAG/commit-frontier
//!   snapshots ([`checkpoint::Checkpoint`]) that bound WAL growth via log
//!   rotation.
//!
//! [`NodeStorage`] ties them together as one per-party directory:
//!
//! ```text
//! <dir>/checkpoint.bin   the newest durable snapshot (atomic rename)
//! <dir>/wal.log          records appended since that snapshot
//! ```
//!
//! Recovery = decode the checkpoint (if any), then replay the WAL records
//! on top, in order. The consensus layer owns the semantics; this crate
//! owns framing, durability ordering and corruption tolerance.

pub mod checkpoint;
pub mod crc;
pub mod records;
pub mod wal;

pub use checkpoint::{Checkpoint, EpochEntry, ProposalEntry};
pub use records::WalRecord;
pub use wal::{Replay, Wal};

use clanbft_telemetry::{counters, Telemetry};
use clanbft_types::codec::{Decode, Encode};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// File name of the checkpoint snapshot inside a node's storage directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// File name of the write-ahead log inside a node's storage directory.
pub const WAL_FILE: &str = "wal.log";

/// Everything found on disk when a node's storage directory is opened.
pub struct Recovered {
    /// The newest durable snapshot, if one was ever installed.
    pub checkpoint: Option<Checkpoint>,
    /// WAL records appended after that snapshot, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes discarded from the WAL's torn/corrupt tail.
    pub truncated_bytes: u64,
}

impl Recovered {
    /// True iff there is any durable state at all.
    pub fn is_empty(&self) -> bool {
        self.checkpoint.is_none() && self.records.is_empty()
    }
}

/// One party's durable storage: a checkpoint plus the WAL since it.
pub struct NodeStorage {
    dir: PathBuf,
    wal: Wal,
    telemetry: Telemetry,
}

impl NodeStorage {
    /// Opens (creating if needed) the storage directory, reads the
    /// checkpoint, replays the WAL (truncating any torn tail), and returns
    /// the handle plus everything recovered.
    pub fn open(dir: &Path, telemetry: Telemetry) -> io::Result<(NodeStorage, Recovered)> {
        fs::create_dir_all(dir)?;
        let checkpoint = read_checkpoint(&dir.join(CHECKPOINT_FILE));
        let (wal, replay) = Wal::open(&dir.join(WAL_FILE), telemetry.clone())?;
        let mut records = Vec::with_capacity(replay.records.len());
        for payload in &replay.records {
            // A CRC-valid frame that fails typed decoding marks the end of
            // the trustworthy prefix (same contract as a torn tail).
            match WalRecord::from_bytes(payload) {
                Ok(rec) => records.push(rec),
                Err(_) => break,
            }
        }
        Ok((
            NodeStorage {
                dir: dir.to_path_buf(),
                wal,
                telemetry,
            },
            Recovered {
                checkpoint,
                records,
                truncated_bytes: replay.truncated_bytes,
            },
        ))
    }

    /// Appends one record, durable before return (persist-before-send).
    pub fn log(&mut self, rec: &WalRecord) -> io::Result<()> {
        self.wal.append(&rec.to_bytes())
    }

    /// Atomically installs `cp` as the new checkpoint, then rotates the WAL
    /// (everything the log proved is now inside the snapshot).
    pub fn install_checkpoint(&mut self, cp: &Checkpoint) -> io::Result<()> {
        let payload = cp.to_bytes();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc::crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let tmp = self.dir.join("checkpoint.tmp");
        let live = self.dir.join(CHECKPOINT_FILE);
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&frame)?;
            let start = std::time::Instant::now();
            f.sync_data()?;
            self.telemetry.record(
                counters::WAL_FSYNC_MICROS,
                start.elapsed().as_micros() as u64,
            );
        }
        fs::rename(&tmp, &live)?;
        // Make the rename itself durable (directory entry update).
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.telemetry.add(counters::WAL_FSYNCS, 1);
        self.wal.reset()?;
        self.telemetry.add(counters::CHECKPOINT_WRITTEN, 1);
        self.telemetry
            .record(counters::CHECKPOINT_BYTES, frame.len() as u64);
        Ok(())
    }

    /// The directory backing this node's storage.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Reads and validates the checkpoint file; any I/O error, framing damage
/// or decode failure yields `None` (recovery then proceeds WAL-only).
fn read_checkpoint(path: &Path) -> Option<Checkpoint> {
    let mut buf = Vec::new();
    File::open(path).ok()?.read_to_end(&mut buf).ok()?;
    if buf.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if buf.len() - 8 < len {
        return None;
    }
    let payload = &buf[8..8 + len];
    if crc::crc32(payload) != crc {
        return None;
    }
    Checkpoint::from_bytes(payload).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_types::Round;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(name: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("clanbft-storage-{}-{n}-{name}", std::process::id()))
    }

    #[test]
    fn open_log_reopen_recovers_records() {
        let dir = scratch_dir("log");
        let (mut st, rec) = NodeStorage::open(&dir, Telemetry::null()).expect("open");
        assert!(rec.is_empty());
        st.log(&WalRecord::Voted { round: Round(3) }).expect("log");
        st.log(&WalRecord::NoVoted { round: Round(4) })
            .expect("log");
        drop(st);
        let (_, rec) = NodeStorage::open(&dir, Telemetry::null()).expect("reopen");
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.records.len(), 2);
        assert!(matches!(rec.records[0], WalRecord::Voted { round } if round == Round(3)));
        assert!(matches!(rec.records[1], WalRecord::NoVoted { round } if round == Round(4)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rotates_wal() {
        let dir = scratch_dir("cp");
        let (mut st, _) = NodeStorage::open(&dir, Telemetry::null()).expect("open");
        st.log(&WalRecord::Voted { round: Round(1) }).expect("log");
        let cp = Checkpoint {
            current_round: Round(5),
            commit_seq: 10,
            ..Checkpoint::default()
        };
        st.install_checkpoint(&cp).expect("checkpoint");
        st.log(&WalRecord::Voted { round: Round(6) }).expect("log");
        drop(st);
        let (_, rec) = NodeStorage::open(&dir, Telemetry::null()).expect("reopen");
        let got = rec.checkpoint.expect("checkpoint present");
        assert_eq!(got.current_round, Round(5));
        assert_eq!(got.commit_seq, 10);
        // Only the post-rotation record survives in the log.
        assert_eq!(rec.records.len(), 1);
        assert!(matches!(rec.records[0], WalRecord::Voted { round } if round == Round(6)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_wal_only() {
        let dir = scratch_dir("corrupt");
        let (mut st, _) = NodeStorage::open(&dir, Telemetry::null()).expect("open");
        st.install_checkpoint(&Checkpoint::default())
            .expect("checkpoint");
        st.log(&WalRecord::Voted { round: Round(2) }).expect("log");
        drop(st);
        // Flip a payload byte: the CRC must reject the snapshot.
        let path = dir.join(CHECKPOINT_FILE);
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).expect("write");
        let (_, rec) = NodeStorage::open(&dir, Telemetry::null()).expect("reopen");
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.records.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
