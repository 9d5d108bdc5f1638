//! The merged-trace file: one run-meta line, then stamped events.
//!
//! A simulated tribe shares one [`MemRecorder`](crate::MemRecorder) across
//! every node and the network, so its event log *is* the merged
//! multi-party trace. The exporter (`clanbft_sim::trace`) prepends a
//! [`RunMeta`] line — tribe size (for quorums and the `Echoed(k/n)` stage),
//! seed, clan count and the attack labels active in the run — and
//! [`Trace::parse`] reads the whole file back for `clanbft-inspect`.

use crate::event::Stamped;
use crate::ndjson::{parse_obj, Fields, JsonObj};

/// Run metadata carried by the trace's leading
/// `{"meta":"run","n":8,"seed":42,...}` line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMeta {
    /// Tribe size, if the trace declared it.
    pub n: Option<u64>,
    /// Seed, if declared.
    pub seed: Option<u64>,
    /// Clan count (0 = whole-tribe baseline).
    pub clans: u64,
    /// Last proposing round, if declared.
    pub max_round: Option<u64>,
    /// Configured attacks as `(party, attack-name)` pairs.
    pub attacks: Vec<(u32, String)>,
}

impl RunMeta {
    /// Renders the meta line (no trailing newline). Absent optional fields
    /// and an empty attack list are omitted.
    pub fn to_ndjson(&self) -> String {
        let mut obj = JsonObj::new().str("meta", "run");
        for (key, v) in [("n", self.n), ("seed", self.seed)] {
            if let Some(v) = v {
                obj = obj.u64(key, v);
            }
        }
        obj = obj.u64("clans", self.clans);
        if let Some(max) = self.max_round {
            obj = obj.u64("max_round", max);
        }
        if !self.attacks.is_empty() {
            let attacks: Vec<String> = self
                .attacks
                .iter()
                .map(|(p, name)| format!("{p}:{name}"))
                .collect();
            obj = obj.str("attacks", &attacks.join(","));
        }
        obj.finish()
    }

    /// Decodes a parsed meta line (inverse of [`RunMeta::to_ndjson`]).
    fn decode(f: &Fields) -> Result<RunMeta, String> {
        let optional = |key: &str| f.get(key).map(|_| f.u64(key)).transpose();
        let attacks = match f.get("attacks") {
            None => Vec::new(),
            Some(_) => f
                .str("attacks")?
                .split(',')
                .filter(|pair| !pair.is_empty())
                .map(|pair| {
                    pair.split_once(':')
                        .and_then(|(p, name)| Some((p.parse().ok()?, name.to_string())))
                        .ok_or_else(|| format!("field \"attacks\": bad entry {pair:?}"))
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(RunMeta {
            n: optional("n")?,
            seed: optional("seed")?,
            clans: f.u64("clans")?,
            max_round: optional("max_round")?,
            attacks,
        })
    }
}

/// A fully decoded trace: metadata plus the merged stamped event stream.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Run metadata (defaulted if the trace has no meta line).
    pub meta: RunMeta,
    /// Events in file order (= deterministic emission order).
    pub events: Vec<Stamped>,
    /// Well-formed lines carrying no known `ev` label: events from a newer
    /// writer and flight-recorder framing lines.
    pub skipped: u64,
}

impl Trace {
    /// Parses a whole trace. Blank lines are ignored; malformed JSON, a
    /// bad meta line, or a known event missing a field is an error naming
    /// the line (traces are machine-written, so corruption should be
    /// loud); lines with unknown labels count in [`Trace::skipped`].
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut trace = Trace::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let at_line = |e: String| format!("line {}: {e}: {line}", i + 1);
            let f = parse_obj(line).map_err(at_line)?;
            if f.get("meta").is_some() {
                trace.meta = RunMeta::decode(&f).map_err(at_line)?;
            } else if let Some(s) = Stamped::decode(&f).map_err(at_line)? {
                trace.events.push(s);
            } else {
                trace.skipped += 1;
            }
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use clanbft_types::{Micros, PartyId, Round};

    #[test]
    fn meta_line_and_unknown_events_are_handled() {
        let text = concat!(
            "{\"meta\":\"run\",\"n\":7,\"seed\":42,\"clans\":1,\"max_round\":8,",
            "\"attacks\":\"3:withhold\"}\n",
            "{\"at\":1,\"party\":0,\"ev\":\"round_entered\",\"round\":1}\n",
            "{\"at\":2,\"party\":0,\"ev\":\"from_the_future\",\"x\":9}\n",
            "{\"flight\":\"header\",\"events_retained\":1}\n",
        );
        let trace = Trace::parse(text).expect("parses");
        let meta = RunMeta {
            n: Some(7),
            seed: Some(42),
            clans: 1,
            max_round: Some(8),
            attacks: vec![(3, "withhold".to_string())],
        };
        assert_eq!(trace.meta, meta);
        assert_eq!(meta.to_ndjson(), text.lines().next().unwrap());
        assert_eq!(
            trace.events,
            vec![Stamped {
                at: Micros(1),
                party: PartyId(0),
                event: Event::RoundEntered { round: Round(1) },
            }]
        );
        assert_eq!(trace.skipped, 2);
    }

    #[test]
    fn malformed_json_is_a_loud_error() {
        assert!(Trace::parse("{\"at\":1,").is_err());
        assert!(Trace::parse("not json at all").is_err());
        assert!(Trace::parse("{\"meta\":\"run\",\"n\":\"seven\",\"clans\":0}").is_err());
    }

    #[test]
    fn known_label_with_a_missing_field_names_line_and_field() {
        let text = concat!(
            "{\"at\":1,\"party\":0,\"ev\":\"round_entered\",\"round\":1}\n",
            "{\"at\":5,\"party\":1,\"ev\":\"dag_live\",\"round\":2,\"source\":4}\n",
        );
        let err = Trace::parse(text).expect_err("pending is required");
        assert!(
            err.starts_with("line 2: missing field \"pending\""),
            "{err}"
        );
    }
}
