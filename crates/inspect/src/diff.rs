//! Diffing two runs: per-stage latency regressions and count blow-ups.
//!
//! Compares two traces (typically benign vs. adversarial with the same
//! seed, or two seeds of the same setup) stage by stage: median latencies
//! of each lifecycle leg across committed blocks, plus the event counts an
//! attack inflates (pull retries, evidence, drops). The verdict names the
//! dimension with the largest regression ratio — for a `Withhold` attack
//! that is the pull-retry count, since victims recover exactly through the
//! retry/rotation machinery.

use clanbft_telemetry::span::SpanSet;
use clanbft_telemetry::Trace;
use std::fmt::Write as _;

/// Median of a sample set (0 for an empty set).
fn median(mut xs: Vec<u64>) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Per-stage medians and attack-sensitive counts of one trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunProfile {
    /// Blocks with at least one commit.
    pub ordered_blocks: u64,
    /// Median propose → first remote echo (µs).
    pub echo: u64,
    /// Median first echo → first certification (µs).
    pub certify: u64,
    /// Median first → last certification (µs).
    pub spread: u64,
    /// Median first certification → first commit (µs).
    pub order: u64,
    /// Median first → last commit (µs).
    pub commit_all: u64,
    /// Total pulls started.
    pub pull_starts: u64,
    /// Total pull retries.
    pub pull_retries: u64,
    /// Total evidence records.
    pub evidence: u64,
}

/// Folds a trace into its comparable profile.
pub fn profile(trace: &Trace) -> RunProfile {
    let spans = SpanSet::from_events(&trace.events);
    let mut echo = Vec::new();
    let mut certify = Vec::new();
    let mut spread = Vec::new();
    let mut order = Vec::new();
    let mut commit_all = Vec::new();
    let mut p = RunProfile::default();
    for span in spans.spans.values() {
        p.pull_starts += span.pull_starts;
        p.pull_retries += span.pull_retries;
        if span.committed.is_empty() {
            continue;
        }
        p.ordered_blocks += 1;
        let Some(prop) = span.proposed_at else {
            continue;
        };
        if let Some(e) = span.first_echo() {
            echo.push(e.0.saturating_sub(prop.0));
            if let Some(c) = span.first_certified() {
                certify.push(c.0.saturating_sub(e.0));
            }
        }
        if let (Some(c0), Some(c1)) = (span.first_certified(), span.last_certified()) {
            spread.push(c1.0.saturating_sub(c0.0));
        }
        if let (Some(c), Some(k)) = (span.first_certified(), span.first_committed()) {
            order.push(k.0.saturating_sub(c.0));
        }
        if let (Some(k0), Some(k1)) = (span.first_committed(), span.last_committed()) {
            commit_all.push(k1.0.saturating_sub(k0.0));
        }
    }
    p.echo = median(echo);
    p.certify = median(certify);
    p.spread = median(spread);
    p.order = median(order);
    p.commit_all = median(commit_all);
    p.evidence = spans.evidence.len() as u64;
    p
}

/// Regression ratio with +1 smoothing (handles zero baselines).
fn ratio(a: u64, b: u64) -> f64 {
    (b as f64 + 1.0) / (a as f64 + 1.0)
}

/// Renders the diff report between trace `a` (baseline) and `b`
/// (candidate). The verdict names the worst-regressing dimension.
pub fn diff(a: &Trace, b: &Trace) -> String {
    let pa = profile(a);
    let pb = profile(b);
    let dims: [(&str, u64, u64); 8] = [
        ("echo", pa.echo, pb.echo),
        ("certify", pa.certify, pb.certify),
        ("cert-spread", pa.spread, pb.spread),
        ("order", pa.order, pb.order),
        ("commit-spread", pa.commit_all, pb.commit_all),
        // pull-retry before pull-start: when both explode from a zero
        // baseline (the withholding signature) the verdict should name the
        // retry machinery, which is where the victims' recovery cost lives.
        ("pull-retry", pa.pull_retries, pb.pull_retries),
        ("pull-start", pa.pull_starts, pb.pull_starts),
        ("evidence", pa.evidence, pb.evidence),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "diff: baseline {} ordered blocks, candidate {}",
        pa.ordered_blocks, pb.ordered_blocks
    );
    let mut worst: Option<(&str, f64)> = None;
    for (name, va, vb) in dims {
        let r = ratio(va, vb);
        let unit = if matches!(name, "pull-start" | "pull-retry" | "evidence") {
            ""
        } else {
            "us"
        };
        let _ = writeln!(out, "  {name:<13} {va}{unit} -> {vb}{unit}  ({r:.2}x)");
        if worst.map_or(true, |(_, wr)| r > wr) {
            worst = Some((name, r));
        }
    }
    match worst {
        Some((name, r)) if r > 1.05 => {
            let _ = writeln!(out, "verdict: {name} is the dominant regression ({r:.2}x)");
        }
        _ => {
            let _ = writeln!(out, "verdict: no regression above 1.05x");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benign() -> Trace {
        let text = concat!(
            "{\"at\":100,\"party\":0,\"ev\":\"vertex_proposed\",\"round\":1,\"txs\":1,",
            "\"digest\":\"0000000000000001\",\"strong\":[],\"weak\":0}\n",
            "{\"at\":200,\"party\":1,\"ev\":\"rbc\",\"phase\":\"echoed\",\"round\":1,\"source\":0}\n",
            "{\"at\":300,\"party\":1,\"ev\":\"rbc\",\"phase\":\"certified\",\"round\":1,\"source\":0}\n",
            "{\"at\":500,\"party\":1,\"ev\":\"vertex_committed\",\"round\":1,\"source\":0,",
            "\"leader\":true,\"seq\":0}\n",
        );
        Trace::parse(text).expect("parses")
    }

    fn withheld() -> Trace {
        let text = concat!(
            "{\"at\":100,\"party\":0,\"ev\":\"vertex_proposed\",\"round\":1,\"txs\":1,",
            "\"digest\":\"0000000000000001\",\"strong\":[],\"weak\":0}\n",
            "{\"at\":200,\"party\":1,\"ev\":\"rbc\",\"phase\":\"echoed\",\"round\":1,\"source\":0}\n",
            "{\"at\":300,\"party\":1,\"ev\":\"rbc\",\"phase\":\"certified\",\"round\":1,\"source\":0}\n",
            "{\"at\":400,\"party\":2,\"ev\":\"rbc\",\"phase\":\"pull_retry\",\"round\":1,\"source\":0}\n",
            "{\"at\":450,\"party\":2,\"ev\":\"rbc\",\"phase\":\"pull_retry\",\"round\":1,\"source\":0}\n",
            "{\"at\":460,\"party\":2,\"ev\":\"rbc\",\"phase\":\"pull_retry\",\"round\":1,\"source\":0}\n",
            "{\"at\":520,\"party\":1,\"ev\":\"vertex_committed\",\"round\":1,\"source\":0,",
            "\"leader\":true,\"seq\":0}\n",
        );
        Trace::parse(text).expect("parses")
    }

    #[test]
    fn flags_pull_retry_as_the_regression() {
        let report = diff(&benign(), &withheld());
        assert!(report.contains("pull-retry"));
        assert!(report.contains("0 -> 3  (4.00x)"));
        assert!(report.contains("verdict: pull-retry is the dominant regression"));
    }

    #[test]
    fn identical_runs_have_no_verdict() {
        let report = diff(&benign(), &benign());
        assert!(report.contains("verdict: no regression above 1.05x"));
    }
}
