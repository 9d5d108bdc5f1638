//! Round-trip properties of the trace and profile codecs: every event the
//! writer can emit decodes back to the same value and re-encodes to the
//! same bytes, as does every profile, a recorder's black-box dump reads
//! back as a trace, and the flat-object reader reads back exactly what
//! `JsonObj` writes.

use clanbft_profiler::{Report, ScopeStat};
use clanbft_telemetry::{
    decode_profile, encode_profile, parse_obj, Event, JsonObj, MemRecorder, Profile, RbcPhase,
    Recorder, Stamped, Trace, Value,
};
use clanbft_testkit::{check, tk_assert, tk_assert_eq, Gen};
use clanbft_types::{Micros, PartyId, Round};
use std::collections::BTreeSet;

/// Number of `Event` variants; [`variant_of`] numbers them `0..VARIANTS`.
const VARIANTS: usize = 17;

/// Exhaustive on purpose: a new `Event` variant fails to compile here.
/// Give it the next index and bump [`VARIANTS`]; the coverage test then
/// fails until [`arbitrary_event`] builds it and the decoder reads it.
fn variant_of(e: &Event) -> usize {
    match e {
        Event::RoundEntered { .. } => 0,
        Event::VertexProposed { .. } => 1,
        Event::Rbc { .. } => 2,
        Event::LeaderVote { .. } => 3,
        Event::TimeoutAnnounced { .. } => 4,
        Event::TimeoutCertFormed { .. } => 5,
        Event::NoVoteCertFormed { .. } => 6,
        Event::VertexCommitted { .. } => 7,
        Event::MsgDropped { .. } => 8,
        Event::PartitionHeld { .. } => 9,
        Event::EvidenceRecorded { .. } => 10,
        Event::DagBuffered { .. } => 11,
        Event::DagLive { .. } => 12,
        Event::RecoveryCompleted { .. } => 13,
        Event::EpochRotated { .. } => 14,
        Event::PoaFormed { .. } => 15,
        Event::SlotCommitted { .. } => 16,
    }
}

const PHASES: [RbcPhase; 8] = [
    RbcPhase::ValSent,
    RbcPhase::Echoed,
    RbcPhase::EchoQuorum,
    RbcPhase::Certified,
    RbcPhase::DeliverFull,
    RbcPhase::DeliverMeta,
    RbcPhase::PullStarted,
    RbcPhase::PullRetry,
];

/// Exhaustive on purpose: a new phase fails to compile until it is listed
/// in [`PHASES`] (and so generated).
fn phase_index(p: RbcPhase) -> usize {
    match p {
        RbcPhase::ValSent => 0,
        RbcPhase::Echoed => 1,
        RbcPhase::EchoQuorum => 2,
        RbcPhase::Certified => 3,
        RbcPhase::DeliverFull => 4,
        RbcPhase::DeliverMeta => 5,
        RbcPhase::PullStarted => 6,
        RbcPhase::PullRetry => 7,
    }
}

/// Characters that stress the string escaper: quotes, backslashes, the
/// short escapes, other control characters, DEL and multi-byte UTF-8.
const NASTY: [char; 12] = [
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '中', '🦀',
];

fn arbitrary_string(g: &mut Gen) -> String {
    g.vec(0, 12, |g| match g.u8_in(0, 3) {
        0 => NASTY[g.usize_in(0, NASTY.len())],
        1 => char::from(g.u8_in(0x20, 0x7f)),
        _ => char::from_u32(g.u32_in(0, 0x11_0000)).unwrap_or('\u{fffd}'),
    })
    .into_iter()
    .collect()
}

fn round(g: &mut Gen) -> Round {
    Round(g.u64())
}

fn party(g: &mut Gen) -> PartyId {
    PartyId(g.u32())
}

fn arbitrary_event(g: &mut Gen, variant: usize) -> Event {
    match variant {
        0 => Event::RoundEntered { round: round(g) },
        1 => Event::VertexProposed {
            round: round(g),
            tx_count: g.u64(),
            digest: g.u64(),
            strong: g.vec(0, 6, party),
            weak: g.u64(),
        },
        2 => Event::Rbc {
            phase: PHASES[g.usize_in(0, PHASES.len())],
            round: round(g),
            source: party(g),
        },
        3 => Event::LeaderVote {
            round: round(g),
            leader: party(g),
        },
        4 => Event::TimeoutAnnounced { round: round(g) },
        5 => Event::TimeoutCertFormed { round: round(g) },
        6 => Event::NoVoteCertFormed { round: round(g) },
        7 => Event::VertexCommitted {
            round: round(g),
            source: party(g),
            leader: g.bool(),
            sequence: g.u64(),
        },
        8 => Event::MsgDropped {
            src: party(g),
            dst: party(g),
            kind: arbitrary_string(g).into(),
            bytes: g.u64(),
        },
        9 => Event::PartitionHeld {
            src: party(g),
            dst: party(g),
            until: Micros(g.u64()),
        },
        10 => Event::EvidenceRecorded {
            kind: arbitrary_string(g).into(),
            round: round(g),
            culprit: party(g),
        },
        11 => Event::DagBuffered {
            round: round(g),
            source: party(g),
        },
        12 => Event::DagLive {
            round: round(g),
            source: party(g),
            pending: g.u64(),
        },
        13 => Event::RecoveryCompleted {
            round: round(g),
            wal_records: g.u64(),
            commit_seq: g.u64(),
            duration_us: g.u64(),
        },
        14 => Event::EpochRotated {
            epoch: g.u64(),
            from_round: round(g),
            replaced: g.u64(),
        },
        15 => Event::PoaFormed { seq: g.u64() },
        16 => Event::SlotCommitted {
            slot: g.u64(),
            txs: g.u64(),
        },
        other => unreachable!("arbitrary_event cannot build variant {other} yet"),
    }
}

fn arbitrary_stamped(g: &mut Gen, variant: usize) -> Stamped {
    Stamped {
        at: Micros(g.u64()),
        party: party(g),
        event: arbitrary_event(g, variant),
    }
}

fn decode_line(line: &str) -> Result<Option<Stamped>, String> {
    Stamped::decode(&parse_obj(line)?)
}

fn roundtrips(s: &Stamped) -> Result<(), String> {
    let line = s.to_ndjson();
    let back = decode_line(&line)?.ok_or_else(|| format!("label skipped: {line}"))?;
    tk_assert_eq!(&back, s);
    tk_assert_eq!(back.to_ndjson(), line);
    Ok(())
}

#[test]
fn every_event_variant_roundtrips() {
    check(
        "stamped_event_roundtrip",
        256,
        |g| {
            let variant = g.usize_in(0, VARIANTS);
            arbitrary_stamped(g, variant)
        },
        roundtrips,
    );
}

#[test]
fn generator_covers_every_variant_and_phase() {
    let mut variants = BTreeSet::new();
    let mut phases = BTreeSet::new();
    for case in 0..64 {
        let mut g = Gen::for_case(7, case);
        for variant in 0..VARIANTS {
            let s = arbitrary_stamped(&mut g, variant);
            assert_eq!(variant_of(&s.event), variant);
            roundtrips(&s).unwrap_or_else(|e| panic!("variant {variant}: {e}"));
            if let Event::Rbc { phase, .. } = s.event {
                phases.insert(phase_index(phase));
            }
            variants.insert(variant);
        }
    }
    assert_eq!(variants, (0..VARIANTS).collect());
    assert_eq!(phases, (0..PHASES.len()).collect());
}

/// One field value of the writer→reader property.
#[derive(Debug)]
enum Field {
    U64(u64),
    F64(f64),
    Str(String),
    Bool(bool),
    Arr(Vec<u64>),
}

fn arbitrary_field(g: &mut Gen) -> Field {
    match g.u8_in(0, 6) {
        0 => Field::U64(if g.bool() { u64::MAX } else { g.u64() }),
        // Raw bit patterns: negative, fractional, subnormal, huge, NaN, ±inf.
        1 => Field::F64(f64::from_bits(g.u64())),
        2 => Field::F64(g.u64_in(0, 1 << 20) as f64 / 4.0 - (1 << 17) as f64),
        3 => Field::Str(arbitrary_string(g)),
        4 => Field::Bool(g.bool()),
        _ => Field::Arr(g.vec(0, 4, |g| g.u64())),
    }
}

#[test]
fn json_obj_writer_reads_back() {
    check(
        "json_obj_writer_to_reader",
        256,
        |g| {
            let mut keys = BTreeSet::new();
            g.vec(0, 8, |g| (arbitrary_string(g), arbitrary_field(g)))
                .into_iter()
                .filter(|(k, _)| keys.insert(k.clone()))
                .collect::<Vec<_>>()
        },
        |fields| {
            let line = fields
                .iter()
                .fold(JsonObj::new(), |obj, (k, v)| match v {
                    Field::U64(x) => obj.u64(k, *x),
                    Field::F64(x) => obj.f64(k, *x),
                    Field::Str(s) => obj.str(k, s),
                    Field::Bool(b) => obj.bool(k, *b),
                    Field::Arr(xs) => obj.arr_u64(k, xs),
                })
                .finish();
            let read = parse_obj(&line)?;
            for (k, v) in fields {
                match v {
                    Field::U64(x) => tk_assert_eq!(read.u64(k)?, *x),
                    Field::F64(x) if x.is_finite() => {
                        tk_assert_eq!(read.f64(k)?.to_bits(), x.to_bits())
                    }
                    Field::F64(_) => tk_assert_eq!(read.get(k), Some(&Value::Null)),
                    Field::Str(s) => tk_assert_eq!(read.str(k)?, s.as_str()),
                    Field::Bool(b) => tk_assert_eq!(read.bool(k)?, *b),
                    Field::Arr(xs) => tk_assert_eq!(read.arr_u64(k)?, xs.as_slice()),
                }
            }
            tk_assert!(read == parse_obj(&line)?, "reader is not deterministic");
            Ok(())
        },
    );
}

#[test]
fn probe_values_read_back_exactly() {
    let line = JsonObj::new()
        .f64("neg", -1.5)
        .f64("frac", 2.75)
        .f64("whole_neg", -2.0)
        .f64("inf", f64::INFINITY)
        .u64("max", u64::MAX)
        .arr_u64("empty", &[])
        .str("we\"ird\\key\n", "v")
        .finish();
    let read = parse_obj(&line).expect("writer output parses");
    assert_eq!(read.f64("neg"), Ok(-1.5));
    assert_eq!(read.f64("frac"), Ok(2.75));
    assert_eq!(read.f64("whole_neg"), Ok(-2.0));
    assert_eq!(read.get("inf"), Some(&Value::Null));
    assert_eq!(read.u64("max"), Ok(u64::MAX));
    assert_eq!(read.arr_u64("empty"), Ok(&[][..]));
    assert_eq!(read.str("we\"ird\\key\n"), Ok("v"));
}

#[test]
fn trailing_bytes_after_the_object_are_rejected() {
    assert!(parse_obj(r#"{"a":1}"#).is_ok());
    for bad in [r#"{"a":1}garbage"#, r#"{"a":1} "#, r#"{"a":1}{}"#, "{}x"] {
        assert!(parse_obj(bad).is_err(), "{bad:?} parsed");
    }
}

#[test]
fn known_label_with_a_missing_or_renamed_field_is_rejected() {
    let good =
        r#"{"at":1,"party":2,"ev":"vertex_committed","round":3,"source":4,"leader":true,"seq":5}"#;
    assert!(matches!(decode_line(good), Ok(Some(_))));
    let renamed = good.replace("\"seq\"", "\"sequence\"");
    let err = decode_line(&renamed).expect_err("renamed field decodes");
    assert!(err.contains("\"seq\""), "{err}");
    let missing = r#"{"at":1,"party":2,"ev":"dag_live","round":3,"source":4}"#;
    let err = decode_line(missing).expect_err("missing field decodes");
    assert!(err.contains("\"pending\""), "{err}");
    let mistyped = good.replace("true", "1");
    let err = decode_line(&mistyped).expect_err("mistyped field decodes");
    assert!(err.contains("\"leader\""), "{err}");
}

#[test]
fn unknown_labels_are_skipped_and_drop_kinds_survive() {
    let future = r#"{"at":1,"party":2,"ev":"from_the_future","x":9}"#;
    assert_eq!(decode_line(future), Ok(None));
    let dropped =
        r#"{"at":1,"party":2,"ev":"msg_dropped","src":2,"dst":3,"kind":"sm.vote","bytes":64}"#;
    let s = decode_line(dropped).expect("decodes").expect("known label");
    assert!(matches!(&s.event, Event::MsgDropped { kind, .. } if kind == "sm.vote"));
    assert_eq!(s.to_ndjson(), dropped);
}

fn arbitrary_report(g: &mut Gen) -> Report {
    Report {
        scopes: g.vec(0, 6, |g| ScopeStat {
            path: arbitrary_string(g),
            name: arbitrary_string(g),
            depth: g.usize_in(0, 64),
            calls: g.u64(),
            total_ns: g.u64(),
            self_ns: g.u64_in(0, u64::MAX / 8),
            alloc_count: g.u64(),
            alloc_bytes: g.u64(),
            peak_bytes: g.u64(),
        }),
    }
}

#[test]
fn profile_roundtrips() {
    check(
        "profile_roundtrip",
        128,
        |g| {
            let label = format!("unit \"quoted\" {}", arbitrary_string(g));
            (arbitrary_report(g), label)
        },
        |(report, label)| {
            let text = encode_profile(report, label);
            let back = decode_profile(&text)?;
            tk_assert_eq!(
                &back,
                &Profile {
                    label: label.clone(),
                    report: report.clone(),
                }
            );
            tk_assert_eq!(encode_profile(&back.report, &back.label), text);
            Ok(())
        },
    );
}

#[test]
fn flight_dump_parses_as_a_trace() {
    let rec = MemRecorder::new();
    let mut g = Gen::for_case(11, 0);
    for variant in 0..VARIANTS {
        let s = arbitrary_stamped(&mut g, variant);
        rec.event(s.at, s.party, s.event);
        rec.gauge("buf.dag.pending", variant as u64);
    }
    rec.add("pull.retries", 3);
    let trace = Trace::parse(&rec.snapshot_ndjson()).expect("dump parses");
    assert_eq!(trace.events, rec.events());
    // Header, one counter, one latest gauge and one sample per event.
    assert_eq!(trace.skipped, 3 + VARIANTS as u64);
}
