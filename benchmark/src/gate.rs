//! The correctness gate every run passes before its numbers count.

use crate::outcome::{Commit, Observation};
use clanbft_types::VertexRef;
use std::collections::HashMap;

/// Checks a finished run; returns one line per violated property.
///
/// * honest total orders are prefixes of one another;
/// * the restarted party agrees with them at every sequence it emitted,
///   rebuilt itself from disk, committed again, and its new log is
///   gap-free from its resume point;
/// * no audited proposer's client sequence number is committed twice;
/// * the window committed something.
pub fn check(obs: &Observation) -> Vec<String> {
    let mut failures = Vec::new();
    let longest: &[Commit] = obs
        .logs
        .iter()
        .map(|(_, log)| log.as_slice())
        .max_by_key(|log| log.len())
        .unwrap_or(&[]);
    let order: HashMap<u64, VertexRef> = longest.iter().map(|c| (c.seq, c.vertex)).collect();
    for (p, log) in &obs.logs {
        if longest[..log.len()]
            .iter()
            .zip(log)
            .any(|(a, b)| a.vertex != b.vertex)
        {
            failures.push(format!(
                "{p}: total order is not a prefix of the longest honest order"
            ));
        }
    }
    if let Some(r) = &obs.restarted {
        let p = r.party;
        for c in r.before.iter().chain(&r.after) {
            if order.get(&c.seq).is_some_and(|v| *v != c.vertex) {
                failures.push(format!(
                    "{p}: disagrees with the honest order at sequence {}",
                    c.seq
                ));
                break;
            }
        }
        if !r.recovered {
            failures.push(format!("{p}: restarted without rebuilding from disk"));
        }
        if r.after.is_empty() {
            failures.push(format!("{p}: never committed after its restart"));
        }
        if let Some((i, c)) = r
            .after
            .iter()
            .enumerate()
            .find(|(i, c)| c.seq != r.resumed_seq + *i as u64)
        {
            failures.push(format!(
                "{p}: commit sequence gap at log index {i} (seq {})",
                c.seq
            ));
        }
    }
    for (p, ranges) in &obs.own_ranges {
        let mut ranges = ranges.clone();
        ranges.sort_unstable();
        if let Some(w) = ranges.windows(2).find(|w| w[0].0 + w[0].1 > w[1].0) {
            failures.push(format!(
                "{p}: client sequence committed twice: ranges {:?} and {:?} overlap",
                w[0], w[1]
            ));
        }
    }
    if obs.metrics().window_txs == 0 {
        failures.push("no transaction in the measured window committed everywhere".to_string());
    }
    failures
}
