//! Golden-file test: DOT rendering of a 4-party, 3-round DAG is pinned
//! byte for byte. Any change to the renderer must update
//! `tests/golden/dag_4p_3r.dot` deliberately.

use clanbft_inspect::dot;
use clanbft_telemetry::Trace;
use std::fmt::Write as _;

/// Builds the merged trace of a benign 4-party, 3-round run: every party
/// proposes each round with strong edges to all four round-(r-1) vertices,
/// p0's vertices are leaders, and rounds 1-2 commit everywhere.
fn four_party_three_rounds() -> String {
    let mut t = String::new();
    let _ = writeln!(
        t,
        "{{\"meta\":\"run\",\"n\":4,\"seed\":7,\"clans\":0,\"max_round\":3,\"attacks\":\"\"}}"
    );
    let mut at = 100u64;
    for round in 1..=3u64 {
        let strong = if round == 1 { "[]" } else { "[0,1,2,3]" };
        for party in 0..4u32 {
            let _ = writeln!(
                t,
                "{{\"at\":{at},\"party\":{party},\"ev\":\"vertex_proposed\",\"round\":{round},\
                 \"txs\":4,\"digest\":\"{:016x}\",\"strong\":{strong},\"weak\":0}}",
                round * 16 + u64::from(party)
            );
            at += 5;
        }
        for party in 0..4u32 {
            for source in 0..4u32 {
                let _ = writeln!(
                    t,
                    "{{\"at\":{at},\"party\":{party},\"ev\":\"rbc\",\"phase\":\"certified\",\
                     \"round\":{round},\"source\":{source}}}"
                );
                at += 1;
            }
        }
    }
    // Rounds 1 and 2 commit at every party (round 3 stays certified-only).
    let mut seq = 0u64;
    for round in 1..=2u64 {
        for source in 0..4u32 {
            for party in 0..4u32 {
                let _ = writeln!(
                    t,
                    "{{\"at\":{at},\"party\":{party},\"ev\":\"vertex_committed\",\
                     \"round\":{round},\"source\":{source},\"leader\":{},\"seq\":{seq}}}",
                    source == 0
                );
                at += 1;
            }
            seq += 1;
        }
    }
    t
}

#[test]
fn dot_matches_golden_file() {
    let trace = Trace::parse(&four_party_three_rounds()).expect("trace parses");
    let rendered = dot(&trace, None, None);
    if std::env::var_os("BLESS").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dag_4p_3r.dot");
        std::fs::write(path, &rendered).expect("write golden file");
        return;
    }
    let golden = include_str!("golden/dag_4p_3r.dot");
    assert_eq!(
        rendered, golden,
        "DOT output drifted from tests/golden/dag_4p_3r.dot; if the change \
         is intentional, regenerate with BLESS=1 cargo test -p clanbft-inspect"
    );
}
