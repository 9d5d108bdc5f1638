//! Drained profile data and its collapsed-stack export (the NDJSON form
//! is `clanbft_telemetry::perf`).

/// One scope path's accumulated statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeStat {
    /// Semicolon-joined path from the root, e.g. `sim.deliver;rbc.handle`.
    pub path: String,
    /// Leaf name (last path segment).
    pub name: String,
    /// Nesting depth (0 = top-level scope).
    pub depth: usize,
    /// Completed entries into this exact path.
    pub calls: u64,
    /// Wall nanoseconds inside this scope, children included.
    pub total_ns: u64,
    /// Wall nanoseconds inside this scope, children excluded.
    pub self_ns: u64,
    /// Allocations performed while this path was innermost-or-above
    /// (children included), counted only when a
    /// [`CountingAlloc`](crate::CountingAlloc) is installed.
    pub alloc_count: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Peak growth of live bytes above the entry level across all entries.
    pub peak_bytes: u64,
}

/// A drained scope tree in depth-first discovery order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Per-path statistics; parents precede children.
    pub scopes: Vec<ScopeStat>,
}

impl Report {
    /// Flamegraph collapsed-stack lines: `a;b;c <self_ns>`, one per path
    /// with nonzero self time. Feed straight to `flamegraph.pl` /
    /// `inferno-flamegraph`.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for s in &self.scopes {
            if s.self_ns > 0 {
                out.push_str(&s.path);
                out.push(' ');
                out.push_str(&s.self_ns.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Sum of self time across all scopes — the profiled wall total.
    pub fn total_self_ns(&self) -> u64 {
        self.scopes.iter().map(|s| s.self_ns).sum()
    }

    /// `(path, calls)` pairs in report order — the deterministic shape of a
    /// run (times and allocation counts vary; paths and call counts do not
    /// for a fixed seed).
    pub fn counts(&self) -> Vec<(String, u64)> {
        self.scopes
            .iter()
            .map(|s| (s.path.clone(), s.calls))
            .collect()
    }
}
