//! DOT and ASCII rendering of a round range of the reconstructed DAG.
//!
//! The DAG structure is reconstructed purely from `vertex_proposed` events
//! (each carries its strong-edge sources), and decorated from the rest of
//! the trace: committed vertices render solid, certified-but-uncommitted
//! dashed, equivocated ones marked. Output is fully deterministic (sorted
//! by round then party) so it can be pinned by golden-file tests.

use clanbft_telemetry::span::{SpanSet, Stage};
use clanbft_telemetry::Trace;
use std::fmt::Write as _;

/// Inclusive round range selection; `None` bounds mean "from the first /
/// to the last round present".
fn selected_rounds(spans: &SpanSet, from: Option<u64>, to: Option<u64>) -> (u64, u64) {
    let lo = spans.spans.keys().map(|(r, _)| r.0).min().unwrap_or(0);
    let hi = spans.spans.keys().map(|(r, _)| r.0).max().unwrap_or(0);
    (from.unwrap_or(lo).max(lo), to.unwrap_or(hi).min(hi))
}

/// Renders the round range `[from, to]` as a Graphviz digraph.
pub fn dot(trace: &Trace, from: Option<u64>, to: Option<u64>) -> String {
    let spans = SpanSet::from_events(&trace.events);
    let (lo, hi) = selected_rounds(&spans, from, to);
    let mut out = String::new();
    out.push_str("digraph dag {\n");
    out.push_str("  rankdir=RL;\n");
    out.push_str("  node [shape=box fontname=\"monospace\"];\n");
    for r in lo..=hi {
        let mut rank = String::new();
        for ((round, proposer), span) in &spans.spans {
            if round.0 != r || span.proposed_at.is_none() {
                continue;
            }
            let stage = span.stage(&spans.committers);
            let style = if stage >= Stage::Ordered {
                "solid"
            } else if stage >= Stage::Certified {
                "dashed"
            } else {
                "dotted"
            };
            let mut label = format!("r{}p{}", round.0, proposer.0);
            if span.leader {
                label.push('*');
            }
            if span.equivocated() {
                label.push('!');
            }
            let _ = writeln!(
                out,
                "  \"r{}p{}\" [label=\"{}\" style={}];",
                round.0, proposer.0, label, style
            );
            let _ = write!(rank, " \"r{}p{}\";", round.0, proposer.0);
        }
        if !rank.is_empty() {
            let _ = writeln!(out, "  {{ rank=same;{rank} }}");
        }
    }
    for ((round, proposer), span) in &spans.spans {
        if round.0 < lo.saturating_add(1) || round.0 > hi || span.proposed_at.is_none() {
            continue;
        }
        for src in &span.strong {
            let _ = writeln!(
                out,
                "  \"r{}p{}\" -> \"r{}p{}\";",
                round.0,
                proposer.0,
                round.0 - 1,
                src.0
            );
        }
    }
    out.push_str("}\n");
    out
}

/// Renders the round range as ASCII, one round per block: each vertex with
/// its stage and strong-edge sources.
pub fn ascii(trace: &Trace, from: Option<u64>, to: Option<u64>) -> String {
    let spans = SpanSet::from_events(&trace.events);
    let (lo, hi) = selected_rounds(&spans, from, to);
    let mut out = String::new();
    for r in lo..=hi {
        let _ = writeln!(out, "round {r}:");
        for ((round, proposer), span) in &spans.spans {
            if round.0 != r || span.proposed_at.is_none() {
                continue;
            }
            let edges: Vec<String> = span.strong.iter().map(|p| format!("p{}", p.0)).collect();
            let mut marks = String::new();
            if span.leader {
                marks.push('*');
            }
            if span.equivocated() {
                marks.push('!');
            }
            let _ = writeln!(
                out,
                "  p{}{} [{}] <- {}",
                proposer.0,
                marks,
                span.stage(&spans.committers).label(),
                if edges.is_empty() {
                    "(genesis)".to_string()
                } else {
                    edges.join(" ")
                }
            );
        }
    }
    out
}

/// Parses a `--rounds a..b` style selector (either bound optional).
pub fn parse_round_range(arg: &str) -> Result<(Option<u64>, Option<u64>), String> {
    let Some((a, b)) = arg.split_once("..") else {
        let single: u64 = arg
            .parse()
            .map_err(|_| format!("bad round selector {arg:?}"))?;
        return Ok((Some(single), Some(single)));
    };
    let lo = if a.is_empty() {
        None
    } else {
        Some(a.parse().map_err(|_| format!("bad round {a:?}"))?)
    };
    let hi = if b.is_empty() {
        None
    } else {
        Some(b.parse().map_err(|_| format!("bad round {b:?}"))?)
    };
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_range_selectors_parse() {
        assert_eq!(parse_round_range("3..5"), Ok((Some(3), Some(5))));
        assert_eq!(parse_round_range("..5"), Ok((None, Some(5))));
        assert_eq!(parse_round_range("3.."), Ok((Some(3), None)));
        assert_eq!(parse_round_range("4"), Ok((Some(4), Some(4))));
        assert!(parse_round_range("x..y").is_err());
    }

    #[test]
    fn ascii_renders_edges_and_stages() {
        let text = concat!(
            "{\"at\":10,\"party\":0,\"ev\":\"vertex_proposed\",\"round\":1,\"txs\":1,",
            "\"digest\":\"0000000000000001\",\"strong\":[],\"weak\":0}\n",
            "{\"at\":20,\"party\":1,\"ev\":\"vertex_proposed\",\"round\":2,\"txs\":1,",
            "\"digest\":\"0000000000000002\",\"strong\":[0],\"weak\":0}\n",
        );
        let trace = Trace::parse(text).expect("parses");
        let text = ascii(&trace, None, None);
        assert!(text.contains("round 1:\n  p0 [proposed] <- (genesis)"));
        assert!(text.contains("round 2:\n  p1 [proposed] <- p0"));
    }

    #[test]
    fn dot_is_deterministic_and_structured() {
        let text = concat!(
            "{\"at\":10,\"party\":0,\"ev\":\"vertex_proposed\",\"round\":1,\"txs\":1,",
            "\"digest\":\"0000000000000001\",\"strong\":[],\"weak\":0}\n",
            "{\"at\":20,\"party\":1,\"ev\":\"vertex_proposed\",\"round\":2,\"txs\":1,",
            "\"digest\":\"0000000000000002\",\"strong\":[0],\"weak\":0}\n",
        );
        let trace = Trace::parse(text).expect("parses");
        let a = dot(&trace, None, None);
        let b = dot(&trace, None, None);
        assert_eq!(a, b);
        assert!(a.starts_with("digraph dag {"));
        assert!(a.contains("\"r2p1\" -> \"r1p0\";"));
        assert!(a.contains("{ rank=same; \"r1p0\"; }"));
    }
}
