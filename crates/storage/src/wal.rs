//! The append-only write-ahead log.
//!
//! Frame format, repeated until end of file:
//!
//! ```text
//! [u32 len (LE)] [u32 crc32(payload) (LE)] [payload; len bytes]
//! ```
//!
//! Replay walks frames from the start and stops at the first frame that is
//! incomplete (torn tail from a crash mid-append) or whose CRC does not
//! match (bit rot, or a torn write *inside* an overwritten sector). The
//! valid prefix is returned and the file is truncated back to it, so a
//! recovered node continues appending from a clean boundary. Replay never
//! panics on arbitrary bytes — the property tests corrupt a valid log at
//! every byte offset to pin that.
//!
//! Durability: every append writes the full frame with a single `write`
//! call and follows it with `File::sync_data`. The WAL is truncated to
//! empty by [`Wal::reset`] after a checkpoint lands — that is the
//! log-rotation step bounding growth.

use crate::crc::crc32;
use clanbft_telemetry::{counters, Telemetry};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes of framing overhead per record.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Upper bound on a single record payload; a length prefix beyond this is
/// treated as corruption (prevents a flipped length bit from asking replay
/// to allocate gigabytes).
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// Result of replaying a log file or byte buffer.
pub struct Replay {
    /// Every record payload in the valid prefix, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes discarded past the valid prefix (torn tail / corruption).
    pub truncated_bytes: u64,
}

/// Parses `buf` as a sequence of frames; returns the decoded payloads of
/// the longest valid prefix and that prefix's byte length.
pub fn replay_bytes(buf: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &buf[pos..];
        if rest.len() < FRAME_HEADER_BYTES {
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES || rest.len() - FRAME_HEADER_BYTES < len {
            break;
        }
        let payload = &rest[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len];
        if crc32(payload) != crc {
            break;
        }
        records.push(payload.to_vec());
        pos += FRAME_HEADER_BYTES + len;
    }
    (records, pos)
}

/// An open write-ahead log file.
pub struct Wal {
    path: PathBuf,
    file: File,
    telemetry: Telemetry,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replays it, truncates
    /// any torn tail, and positions the cursor for appending.
    pub fn open(path: &Path, telemetry: Telemetry) -> io::Result<(Wal, Replay)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let (records, valid) = replay_bytes(&buf);
        let truncated_bytes = (buf.len() - valid) as u64;
        if truncated_bytes > 0 {
            file.set_len(valid as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid as u64))?;
        Ok((
            Wal {
                path: path.to_path_buf(),
                file,
                telemetry,
            },
            Replay {
                records,
                truncated_bytes,
            },
        ))
    }

    /// Appends one record and makes it durable (fsync) before returning —
    /// the caller's persist-before-send contract depends on this ordering.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        assert!(payload.len() <= MAX_RECORD_BYTES, "oversized WAL record");
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.sync()?;
        self.telemetry.add(counters::WAL_APPENDS, 1);
        self.telemetry.add(counters::WAL_BYTES, frame.len() as u64);
        Ok(())
    }

    /// Truncates the log to empty (rotation after a checkpoint landed: the
    /// checkpoint now carries everything the log proved).
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.sync()
    }

    /// Flushes the file to disk, counting and timing the fsync.
    fn sync(&mut self) -> io::Result<()> {
        let start = std::time::Instant::now();
        self.file.sync_data()?;
        self.telemetry.add(counters::WAL_FSYNCS, 1);
        self.telemetry.record(
            counters::WAL_FSYNC_MICROS,
            start.elapsed().as_micros() as u64,
        );
        Ok(())
    }

    /// The file backing this log.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_telemetry::Telemetry;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "clanbft-wal-{}-{}-{n}-{name}",
            std::process::id(),
            // Coarse uniqueness across test binaries sharing a tmpdir.
            std::thread::current().name().unwrap_or("t").len(),
        ))
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let path = scratch("roundtrip");
        let (mut wal, replay) = Wal::open(&path, Telemetry::null()).expect("open");
        assert!(replay.records.is_empty());
        let recs: Vec<Vec<u8>> = (0u8..10).map(|i| vec![i; (i as usize) * 7 + 1]).collect();
        for r in &recs {
            wal.append(r).expect("append");
        }
        drop(wal);
        let (_, replay) = Wal::open(&path, Telemetry::null()).expect("reopen");
        assert_eq!(replay.records, recs);
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = scratch("torn");
        let (mut wal, _) = Wal::open(&path, Telemetry::null()).expect("open");
        wal.append(b"first").expect("append");
        wal.append(b"second").expect("append");
        drop(wal);
        // Tear the last frame: drop its final byte.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 1]).expect("write");
        let (wal, replay) = Wal::open(&path, Telemetry::null()).expect("reopen");
        assert_eq!(replay.records, vec![b"first".to_vec()]);
        assert!(replay.truncated_bytes > 0);
        // The file itself was truncated back to the valid prefix.
        let len = std::fs::metadata(wal.path()).expect("meta").len();
        assert_eq!(len as usize, FRAME_HEADER_BYTES + 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_empties_the_log() {
        let path = scratch("reset");
        let (mut wal, _) = Wal::open(&path, Telemetry::null()).expect("open");
        wal.append(b"doomed").expect("append");
        wal.reset().expect("reset");
        wal.append(b"kept").expect("append");
        drop(wal);
        let (_, replay) = Wal::open(&path, Telemetry::null()).expect("reopen");
        assert_eq!(replay.records, vec![b"kept".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_length_prefix_stops_cleanly() {
        let path = scratch("hostile");
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &frame).expect("write");
        let (_, replay) = Wal::open(&path, Telemetry::null()).expect("open");
        assert!(replay.records.is_empty());
        assert_eq!(replay.truncated_bytes, frame.len() as u64);
        std::fs::remove_file(&path).ok();
    }
}
