//! Performance-profile rendering and two-profile regression diffing.
//!
//! Consumes a profile file decoded by `clanbft_telemetry::perf` and
//! renders the three standard views — hot-scope table, indented scope tree,
//! allocation table — plus a baseline/candidate diff with per-stage %
//! deltas and a regression verdict.
//!
//! Diffs compare *self nanoseconds per call*, not absolute wall time: call
//! counts are deterministic for a fixed seed while total wall time moves
//! with host load, so per-call cost is the stable regression signal.

use clanbft_profiler::ScopeStat;
use clanbft_telemetry::Profile;
use std::collections::BTreeMap;

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn fmt_pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "   -".to_string()
    } else {
        format!("{:4.1}", part as f64 / whole as f64 * 100.0)
    }
}

fn fmt_kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// Renders the three standard views of one profile: hot scopes by self
/// time, the indented call tree, and the allocation table.
pub fn profile_report(p: &Profile) -> String {
    let scopes = &p.report.scopes;
    let total = p.report.total_self_ns();
    let mut out = String::new();
    out.push_str(&format!(
        "profile {:?}: {} scopes, {} ms profiled self time\n\n",
        p.label,
        scopes.len(),
        fmt_ms(total)
    ));

    // Hot scopes: every path ranked by self time.
    out.push_str("hot scopes (by self time)\n");
    out.push_str(&format!(
        "{:<44} {:>10} {:>12} {:>6} {:>14}\n",
        "path", "calls", "self_ms", "self%", "ns/call"
    ));
    let mut hot: Vec<&ScopeStat> = scopes.iter().collect();
    hot.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
    for s in hot.iter().take(20) {
        let per_call = s.self_ns.checked_div(s.calls).unwrap_or(0);
        out.push_str(&format!(
            "{:<44} {:>10} {:>12} {:>6} {:>14}\n",
            s.path,
            s.calls,
            fmt_ms(s.self_ns),
            fmt_pct(s.self_ns, total),
            per_call
        ));
    }

    // Scope tree: report order is tree order (parents first).
    out.push_str("\nscope tree\n");
    out.push_str(&format!(
        "{:<44} {:>10} {:>12} {:>12}\n",
        "scope", "calls", "total_ms", "self_ms"
    ));
    for s in scopes {
        let indent = "  ".repeat(s.depth);
        out.push_str(&format!(
            "{:<44} {:>10} {:>12} {:>12}\n",
            format!("{indent}{}", s.name),
            s.calls,
            fmt_ms(s.total_ns),
            fmt_ms(s.self_ns)
        ));
    }

    // Allocation table: paths that allocated, ranked by bytes.
    let mut alloc: Vec<&ScopeStat> = scopes.iter().filter(|s| s.alloc_count > 0).collect();
    alloc.sort_by(|a, b| b.alloc_bytes.cmp(&a.alloc_bytes).then(a.path.cmp(&b.path)));
    if alloc.is_empty() {
        out.push_str(
            "\nallocations: none recorded (profile captured without the counting allocator)\n",
        );
    } else {
        out.push_str("\nallocations (by bytes)\n");
        out.push_str(&format!(
            "{:<44} {:>12} {:>12} {:>12} {:>12}\n",
            "path", "allocs", "alloc_kb", "peak_kb", "bytes/call"
        ));
        for s in alloc.iter().take(15) {
            let per_call = s.alloc_bytes.checked_div(s.calls).unwrap_or(0);
            out.push_str(&format!(
                "{:<44} {:>12} {:>12} {:>12} {:>12}\n",
                s.path,
                s.alloc_count,
                fmt_kb(s.alloc_bytes),
                fmt_kb(s.peak_bytes),
                per_call
            ));
        }
    }
    out
}

/// One scope's baseline/candidate comparison.
struct DiffRow {
    path: String,
    base_ns_per_call: f64,
    cand_ns_per_call: f64,
    delta_pct: f64,
}

/// Compares `cand` against `base` on self-nanoseconds-per-call and renders
/// per-stage % deltas plus a `verdict:` line naming the worst regression at
/// or above `threshold_pct` (or declaring the run clean).
///
/// The verdict line is the machine-readable hook: CI greps for
/// `verdict: REGRESSION` after a profile-smoke run.
pub fn profile_diff(base: &Profile, cand: &Profile, threshold_pct: f64) -> String {
    let base_by_path: BTreeMap<&str, &ScopeStat> = base
        .report
        .scopes
        .iter()
        .map(|s| (s.path.as_str(), s))
        .collect();
    let mut rows: Vec<DiffRow> = Vec::new();
    let mut only_cand: Vec<&str> = Vec::new();
    for s in &cand.report.scopes {
        match base_by_path.get(s.path.as_str()) {
            Some(b) if b.calls > 0 && s.calls > 0 => {
                let bpc = b.self_ns as f64 / b.calls as f64;
                let cpc = s.self_ns as f64 / s.calls as f64;
                // Sub-microsecond stages are timer-noise dominated; a %
                // delta there is not a signal worth a verdict.
                if bpc < 100.0 && cpc < 100.0 {
                    continue;
                }
                let delta = if bpc > 0.0 {
                    (cpc - bpc) / bpc * 100.0
                } else {
                    100.0
                };
                rows.push(DiffRow {
                    path: s.path.clone(),
                    base_ns_per_call: bpc,
                    cand_ns_per_call: cpc,
                    delta_pct: delta,
                });
            }
            Some(_) => {}
            None => only_cand.push(&s.path),
        }
    }
    let cand_paths: std::collections::BTreeSet<&str> =
        cand.report.scopes.iter().map(|s| s.path.as_str()).collect();
    let only_base: Vec<&str> = base
        .report
        .scopes
        .iter()
        .map(|s| s.path.as_str())
        .filter(|p| !cand_paths.contains(p))
        .collect();

    rows.sort_by(|a, b| {
        b.delta_pct
            .abs()
            .partial_cmp(&a.delta_pct.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });

    let mut out = String::new();
    out.push_str(&format!(
        "profile diff: base {:?} ({} ms) -> candidate {:?} ({} ms), threshold {:.0}%\n\n",
        base.label,
        fmt_ms(base.report.total_self_ns()),
        cand.label,
        fmt_ms(cand.report.total_self_ns()),
        threshold_pct
    ));
    out.push_str(&format!(
        "{:<44} {:>14} {:>14} {:>9}\n",
        "path", "base ns/call", "cand ns/call", "delta"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<44} {:>14.0} {:>14.0} {:>+8.1}%\n",
            r.path, r.base_ns_per_call, r.cand_ns_per_call, r.delta_pct
        ));
    }
    for p in &only_base {
        out.push_str(&format!("{p:<44} only in baseline\n"));
    }
    for p in &only_cand {
        out.push_str(&format!("{p:<44} only in candidate\n"));
    }

    let worst = rows
        .iter()
        .filter(|r| r.delta_pct >= threshold_pct)
        .max_by(|a, b| {
            a.delta_pct
                .partial_cmp(&b.delta_pct)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    out.push('\n');
    match worst {
        Some(r) => out.push_str(&format!(
            "verdict: REGRESSION {} {:+.1}% self ns/call (threshold {:.0}%)\n",
            r.path, r.delta_pct, threshold_pct
        )),
        None => out.push_str(&format!(
            "verdict: OK — no stage regressed {:.0}% or more on self ns/call\n",
            threshold_pct
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_profiler::Report;

    fn scope(path: &str, depth: usize, calls: u64, total_ns: u64, self_ns: u64) -> ScopeStat {
        ScopeStat {
            path: path.to_string(),
            name: path.rsplit(';').next().unwrap_or(path).to_string(),
            depth,
            calls,
            total_ns,
            self_ns,
            alloc_count: calls / 2,
            alloc_bytes: calls * 80,
            peak_bytes: calls * 40,
        }
    }

    /// Three scopes; `dag.insert` spends `insert_self` microseconds of self
    /// time over 80 calls.
    fn sample(label: &str, insert_self: u64) -> Profile {
        let insert_ns = insert_self * 1_000;
        Profile {
            label: label.to_string(),
            report: Report {
                scopes: vec![
                    scope("sim.deliver", 0, 100, 9_000_000, 2_000_000),
                    scope("sim.deliver;dag.insert", 1, 80, insert_ns, insert_ns),
                    scope("sim.timer", 0, 40, 1_000_000, 1_000_000),
                ],
            },
        }
    }
    #[test]
    fn report_renders_all_three_views() {
        let p = sample("views", 4000);
        let r = profile_report(&p);
        assert!(r.contains("hot scopes"), "{r}");
        assert!(r.contains("scope tree"), "{r}");
        assert!(r.contains("allocations (by bytes)"), "{r}");
        // Tree indents the nested scope; hot table ranks by self time.
        assert!(r.contains("  dag.insert"), "{r}");
        let hot_pos = r.find("sim.deliver ").unwrap();
        let timer_pos = r.find("sim.timer").unwrap();
        assert!(hot_pos < timer_pos, "hot table is self-time ranked:\n{r}");
    }

    #[test]
    fn diff_flags_a_large_regression() {
        let base = sample("base", 4000);
        // dag.insert self: 4ms -> 6ms over the same 80 calls = +50%/call.
        let cand = sample("cand", 6000);
        let d = profile_diff(&base, &cand, 20.0);
        assert!(
            d.contains("verdict: REGRESSION sim.deliver;dag.insert +50.0%"),
            "{d}"
        );
    }

    #[test]
    fn diff_passes_within_tolerance() {
        let base = sample("base", 4000);
        let cand = sample("cand", 4400);
        // +10% stays under the 20% threshold.
        let d = profile_diff(&base, &cand, 20.0);
        assert!(d.contains("verdict: OK"), "{d}");
        assert!(d.contains("+10.0%"), "{d}");
    }

    #[test]
    fn diff_reports_asymmetric_scopes() {
        let base = sample("base", 4000);
        let mut cand = sample("cand", 4000);
        cand.report.scopes.remove(2);
        cand.report.scopes.push(ScopeStat {
            path: "mempool.admit".to_string(),
            name: "mempool.admit".to_string(),
            depth: 0,
            calls: 5,
            total_ns: 1000,
            self_ns: 1000,
            alloc_count: 0,
            alloc_bytes: 0,
            peak_bytes: 0,
        });
        let d = profile_diff(&base, &cand, 20.0);
        assert!(d.contains("sim.timer"), "{d}");
        assert!(d.contains("only in baseline"), "{d}");
        assert!(d.contains("only in candidate"), "{d}");
    }
}
