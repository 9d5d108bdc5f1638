//! WAL corruption property suite (the PR's torn-write/bit-flip satellite).
//!
//! The contract under test: replaying a damaged log must never panic and
//! must recover exactly the longest valid prefix of records. Truncation is
//! exercised at *every* byte offset of a valid log; bit flips at every byte
//! position. Mirrors the `TxBatch::decode` hardening suite from PR 6.

use clanbft_storage::wal::{replay_bytes, Wal, FRAME_HEADER_BYTES};
use clanbft_storage::WalRecord;
use clanbft_telemetry::Telemetry;
use clanbft_testkit::{check, Gen};
use clanbft_types::{Encode, Round};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "clanbft-walprops-{}-{n}-{name}",
        std::process::id()
    ))
}

/// A random record payload mix: raw bytes (framing doesn't care) plus
/// encoded typed records (what production writes).
fn gen_records(g: &mut Gen) -> Vec<Vec<u8>> {
    g.vec(1, 12, |g| {
        if g.bool() {
            g.bytes(0, 40)
        } else {
            let round = Round(g.u64_in(0, 1 << 20));
            let rec = if g.bool() {
                WalRecord::Voted { round }
            } else {
                WalRecord::NoVoted { round }
            };
            rec.to_bytes()
        }
    })
}

/// Frames `records` the same way `Wal::append` does, returning the log
/// bytes and each record's frame boundary (cumulative end offsets).
fn frame(records: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut log = Vec::new();
    let mut ends = Vec::new();
    for rec in records {
        log.extend_from_slice(&(rec.len() as u32).to_le_bytes());
        log.extend_from_slice(&clanbft_storage::crc::crc32(rec).to_le_bytes());
        log.extend_from_slice(rec);
        ends.push(log.len());
    }
    (log, ends)
}

/// Records wholly contained in the first `len` bytes.
fn intact_prefix(ends: &[usize], len: usize) -> usize {
    ends.iter().take_while(|&&e| e <= len).count()
}

#[test]
fn truncation_at_every_byte_offset_recovers_longest_prefix() {
    check(
        "wal truncation recovers longest valid prefix",
        48,
        gen_records,
        |records| {
            let (log, ends) = frame(records);
            for cut in 0..=log.len() {
                let (got, valid) = replay_bytes(&log[..cut]);
                let want = intact_prefix(&ends, cut);
                if got.len() != want {
                    return Err(format!(
                        "cut at {cut}: recovered {} records, expected {want}",
                        got.len()
                    ));
                }
                if got != records[..want] {
                    return Err(format!("cut at {cut}: recovered records differ"));
                }
                // The valid prefix must end exactly at a frame boundary.
                let boundary = if want == 0 { 0 } else { ends[want - 1] };
                if valid != boundary {
                    return Err(format!(
                        "cut at {cut}: valid prefix {valid} != boundary {boundary}"
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn bit_flip_at_every_byte_never_panics_and_keeps_a_prefix() {
    check(
        "wal bit flips recover a clean prefix",
        24,
        |g| (gen_records(g), g.u8_in(1, 255)),
        |(records, mask)| {
            let (log, ends) = frame(records);
            for pos in 0..log.len() {
                let mut damaged = log.clone();
                damaged[pos] ^= *mask;
                let (got, valid) = replay_bytes(&damaged);
                // Replay must stop at or before the damaged frame: every
                // record it returns that lies before the flip must match
                // the original, and the valid prefix may never exceed the
                // log (no panic already proven by getting here).
                let undamaged = intact_prefix(&ends, pos);
                if got.len() > records.len() {
                    return Err(format!("flip at {pos}: invented records"));
                }
                for (i, rec) in got.iter().enumerate().take(undamaged) {
                    if rec != &records[i] {
                        return Err(format!("flip at {pos}: record {i} corrupted silently"));
                    }
                }
                if valid > damaged.len() {
                    return Err(format!("flip at {pos}: valid prefix out of range"));
                }
                // A flip inside frame k must kill frame k (CRC) unless it
                // resynthesized a parseable stream; in either case nothing
                // *before* the flip may be lost.
                if got.len() < undamaged {
                    return Err(format!(
                        "flip at {pos}: lost {} intact records before the flip",
                        undamaged - got.len()
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn file_reopen_after_truncation_matches_in_memory_replay() {
    check(
        "wal file truncation equals in-memory replay",
        16,
        |g| (gen_records(g), g.u64()),
        |(records, salt)| {
            let path = scratch(&format!("reopen-{salt}"));
            {
                let (mut wal, _) =
                    Wal::open(&path, Telemetry::null()).map_err(|e| e.to_string())?;
                for rec in records {
                    wal.append(rec).map_err(|e| e.to_string())?;
                }
            }
            let log = std::fs::read(&path).map_err(|e| e.to_string())?;
            let (_, ends) = frame(records);
            // Cut the file at a few interesting offsets: mid-header,
            // mid-payload, exact boundary.
            let cuts: Vec<usize> = ends
                .iter()
                .flat_map(|&e| {
                    [
                        e,
                        e.saturating_sub(1),
                        e.saturating_sub(FRAME_HEADER_BYTES / 2),
                    ]
                })
                .filter(|&c| c <= log.len())
                .collect();
            for cut in cuts {
                std::fs::write(&path, &log[..cut]).map_err(|e| e.to_string())?;
                let (wal, replay) =
                    Wal::open(&path, Telemetry::null()).map_err(|e| e.to_string())?;
                let want = intact_prefix(&ends, cut);
                if replay.records.len() != want {
                    return Err(format!(
                        "file cut at {cut}: {} records, expected {want}",
                        replay.records.len()
                    ));
                }
                // The open must have truncated the file back to the valid
                // prefix so the next append starts clean.
                let on_disk = std::fs::metadata(wal.path())
                    .map_err(|e| e.to_string())?
                    .len() as usize;
                let boundary = if want == 0 { 0 } else { ends[want - 1] };
                if on_disk != boundary {
                    return Err(format!(
                        "file cut at {cut}: file is {on_disk} bytes, expected {boundary}"
                    ));
                }
            }
            std::fs::remove_file(&path).ok();
            Ok(())
        },
    );
}
