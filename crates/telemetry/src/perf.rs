//! The profile file: a drained `clanbft_profiler::Report` as NDJSON.
//!
//! Each profile is one `{"prof":"meta",...}` header line naming its label,
//! followed by one `{"prof":"scope",...}` line per scope path in report
//! order. A file may hold several appended profiles (one per run); each
//! meta line starts a new one. [`encode_profile`] writes the format and
//! [`decode_profiles`] reads it back for `clanbft-inspect profile`.

use crate::ndjson::{parse_obj, Fields, JsonObj};
use clanbft_profiler::{Report, ScopeStat};

/// One labelled profile as a profile file holds it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// The label the producer stamped (e.g. `fig5`, `perf_smoke/a`).
    pub label: String,
    /// Scope rows, parents before children.
    pub report: Report,
}

/// Encodes `report` under `label`: the meta line, then one line per scope,
/// each newline-terminated.
pub fn encode_profile(report: &Report, label: &str) -> String {
    let mut out = JsonObj::new()
        .str("prof", "meta")
        .str("label", label)
        .u64("scopes", report.scopes.len() as u64)
        .u64("total_self_ns", report.total_self_ns())
        .finish();
    out.push('\n');
    for s in &report.scopes {
        let line = JsonObj::new()
            .str("prof", "scope")
            .str("path", &s.path)
            .str("name", &s.name)
            .u64("depth", s.depth as u64)
            .u64("calls", s.calls)
            .u64("total_ns", s.total_ns)
            .u64("self_ns", s.self_ns)
            .u64("allocs", s.alloc_count)
            .u64("alloc_bytes", s.alloc_bytes)
            .u64("peak_bytes", s.peak_bytes)
            .finish();
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Decodes one `{"prof":"scope",...}` line; every field is required.
fn decode_scope(f: &Fields) -> Result<ScopeStat, String> {
    let depth = f.u64("depth")?;
    Ok(ScopeStat {
        path: f.str("path")?.to_string(),
        name: f.str("name")?.to_string(),
        depth: usize::try_from(depth).map_err(|_| format!("field \"depth\": {depth} too large"))?,
        calls: f.u64("calls")?,
        total_ns: f.u64("total_ns")?,
        self_ns: f.u64("self_ns")?,
        alloc_count: f.u64("allocs")?,
        alloc_bytes: f.u64("alloc_bytes")?,
        peak_bytes: f.u64("peak_bytes")?,
    })
}

/// Decodes every profile in `text`. Lines without a `prof` key are
/// skipped so profiles can share a file with other NDJSON streams; scope
/// lines before any meta line form an unlabelled profile.
pub fn decode_profiles(text: &str) -> Result<Vec<Profile>, String> {
    let mut profiles: Vec<Profile> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at_line = |e: String| format!("line {}: {e}", i + 1);
        let f = parse_obj(line).map_err(at_line)?;
        match f.str("prof") {
            Ok("meta") => profiles.push(Profile {
                label: f.str("label").map_err(at_line)?.to_string(),
                report: Report::default(),
            }),
            Ok("scope") => {
                let scope = decode_scope(&f).map_err(at_line)?;
                if profiles.is_empty() {
                    profiles.push(Profile::default());
                }
                profiles
                    .last_mut()
                    .expect("pushed above")
                    .report
                    .scopes
                    .push(scope);
            }
            _ => continue,
        }
    }
    Ok(profiles)
}

/// Decodes `text` and returns its most recent profile (files accumulate
/// one profile per run; the last one describes the latest).
pub fn decode_profile(text: &str) -> Result<Profile, String> {
    decode_profiles(text)?
        .pop()
        .ok_or_else(|| "no profile lines found (expected {\"prof\":...} NDJSON)".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(label: &str, insert_self: u64) -> String {
        format!(
            concat!(
                "{{\"prof\":\"meta\",\"label\":\"{label}\",\"scopes\":3,\"total_self_ns\":0}}\n",
                "{{\"prof\":\"scope\",\"path\":\"sim.deliver\",\"name\":\"sim.deliver\",",
                "\"depth\":0,\"calls\":100,\"total_ns\":9000000,\"self_ns\":2000000,",
                "\"allocs\":50,\"alloc_bytes\":8192,\"peak_bytes\":4096}}\n",
                "{{\"prof\":\"scope\",\"path\":\"sim.deliver;dag.insert\",\"name\":\"dag.insert\",",
                "\"depth\":1,\"calls\":80,\"total_ns\":{insert}000,\"self_ns\":{insert}000,",
                "\"allocs\":10,\"alloc_bytes\":2048,\"peak_bytes\":1024}}\n",
                "{{\"prof\":\"scope\",\"path\":\"sim.timer\",\"name\":\"sim.timer\",",
                "\"depth\":0,\"calls\":40,\"total_ns\":1000000,\"self_ns\":1000000,",
                "\"allocs\":0,\"alloc_bytes\":0,\"peak_bytes\":0}}\n",
            ),
            label = label,
            insert = insert_self,
        )
    }

    #[test]
    fn parses_meta_and_scopes() {
        let p = decode_profile(&sample("unit", 4000)).unwrap();
        assert_eq!(p.label, "unit");
        assert_eq!(p.report.scopes.len(), 3);
        let insert = &p.report.scopes[1];
        assert_eq!(insert.path, "sim.deliver;dag.insert");
        assert_eq!(insert.name, "dag.insert");
        assert_eq!(insert.depth, 1);
        assert_eq!(insert.calls, 80);
        assert_eq!(insert.self_ns, 4_000_000);
        assert_eq!(insert.alloc_bytes, 2048);
    }

    #[test]
    fn multiple_appended_profiles_yield_the_last() {
        let text = format!("{}{}", sample("first", 4000), sample("second", 5000));
        assert_eq!(decode_profiles(&text).unwrap().len(), 2);
        assert_eq!(decode_profile(&text).unwrap().label, "second");
    }

    #[test]
    fn non_profile_lines_are_skipped() {
        let text = format!(
            "{{\"kind\":\"telemetry\",\"x\":1}}\n{}",
            sample("mixed", 4000)
        );
        assert_eq!(decode_profile(&text).unwrap().label, "mixed");
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(decode_profile("").is_err());
        assert!(decode_profile("{\"other\":\"line\"}\n").is_err());
    }
}
