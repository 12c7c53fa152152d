//! The serve wire protocol: JSON encodings of job specifications and
//! profiler options, shared by the daemon (parse) and the client
//! (build), so the two can never drift apart.
//!
//! Option values use the same names as the CLI flags (`--criterion
//! some`, `--sizing capacity`, ...), and a submission carries the guest
//! *source text* (or raw trace bytes, hex-encoded), never a path — the
//! daemon may not share a filesystem with the client.

use algoprof::{
    AlgoProfOptions, ArraySizeStrategy, EquivalenceCriterion, GroupingStrategy, JobSpec,
    SnapshotPolicy, SweepAblation,
};

use crate::json::Json;

/// One option's names: the value of its CLI flag and its wire name, for
/// every variant. Each table below is the one list of its option's names:
/// the CLI flags, the CLI's error hints and the wire codec all read it.
pub struct OptionTable<T: 'static> {
    /// What the option is called in error messages.
    pub what: &'static str,
    /// Every variant, with its name.
    pub names: &'static [(&'static str, T)],
}

impl<T: Copy + PartialEq> OptionTable<T> {
    /// The variant called `name`.
    pub fn parse(&self, name: &str) -> Option<T> {
        self.names.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The name of `value`.
    pub fn name(&self, value: T) -> &'static str {
        let found = self.names.iter().find(|(_, v)| *v == value);
        found.expect("option tables name every variant").0
    }

    /// Sets `slot` from the name in member `key` of `options`, when the
    /// member is present.
    fn decode(&self, options: &Json, key: &str, slot: &mut T) -> Result<(), String> {
        if let Some(v) = options.get(key) {
            let name = v
                .as_str()
                .ok_or_else(|| format!("options.{key} must be a string"))?;
            *slot = self
                .parse(name)
                .ok_or_else(|| format!("unknown {} {name:?}", self.what))?;
        }
        Ok(())
    }
}

/// `--criterion` names of the equivalence criteria.
pub const CRITERIA: OptionTable<EquivalenceCriterion> = OptionTable {
    what: "criterion",
    names: &[
        ("some", EquivalenceCriterion::SomeElements),
        ("all", EquivalenceCriterion::AllElements),
        ("array", EquivalenceCriterion::SameArray),
        ("type", EquivalenceCriterion::SameType),
    ],
};

/// `--sizing` names of the array sizing strategies.
pub const SIZINGS: OptionTable<ArraySizeStrategy> = OptionTable {
    what: "sizing",
    names: &[
        ("capacity", ArraySizeStrategy::Capacity),
        ("unique", ArraySizeStrategy::UniqueElements),
    ],
};

/// `--snapshots` names of the snapshot policies.
pub const SNAPSHOT_POLICIES: OptionTable<SnapshotPolicy> = OptionTable {
    what: "snapshot policy",
    names: &[
        ("firstlast", SnapshotPolicy::FirstAndLast),
        ("every", SnapshotPolicy::EveryAccess),
    ],
};

/// `--grouping` names of the grouping strategies.
pub const GROUPINGS: OptionTable<GroupingStrategy> = OptionTable {
    what: "grouping",
    names: &[
        ("input", GroupingStrategy::SharedInput),
        ("indexflow", GroupingStrategy::SharedInputOrIndexFlow),
        ("method", GroupingStrategy::SameMethod),
    ],
};

/// Encodes the CLI-visible option surface (the `incremental` cache mode
/// is an internal tuning knob with no CLI flag; it stays at default on
/// the wire too).
pub fn options_to_json(o: &AlgoProfOptions) -> Json {
    let name = |n: &str| Json::Str(n.into());
    Json::obj(vec![
        ("criterion", name(CRITERIA.name(o.criterion))),
        ("sizing", name(SIZINGS.name(o.array_strategy))),
        ("snapshots", name(SNAPSHOT_POLICIES.name(o.snapshot_policy))),
        ("grouping", name(GROUPINGS.name(o.grouping))),
    ])
}

/// Decodes options; absent object or absent members mean defaults,
/// unknown values are errors.
pub fn options_from_json(value: Option<&Json>) -> Result<AlgoProfOptions, String> {
    let mut o = AlgoProfOptions::default();
    if let Some(value) = value {
        CRITERIA.decode(value, "criterion", &mut o.criterion)?;
        SIZINGS.decode(value, "sizing", &mut o.array_strategy)?;
        SNAPSHOT_POLICIES.decode(value, "snapshots", &mut o.snapshot_policy)?;
        GROUPINGS.decode(value, "grouping", &mut o.grouping)?;
    }
    Ok(o)
}

fn hex_encode(bytes: &[u8]) -> String {
    let digit = |n: u8| char::from(b"0123456789abcdef"[usize::from(n)]);
    bytes
        .iter()
        .flat_map(|b| [digit(b >> 4), digit(b & 15)])
        .collect()
}

fn hex_decode(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err("odd-length hex string".into());
    }
    text.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            // A pair can split a multi-byte character: an error, too.
            std::str::from_utf8(pair)
                .ok()
                .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                .ok_or_else(|| format!("bad hex byte {:?}", String::from_utf8_lossy(pair)))
        })
        .collect()
}

/// Encodes a job for `POST /api/v1/jobs`.
pub fn job_to_json(spec: &JobSpec) -> Json {
    match spec {
        JobSpec::Profile {
            program,
            source,
            input,
            options,
        } => Json::obj(vec![
            ("kind", Json::Str("profile".into())),
            ("program", Json::Str(program.clone())),
            ("source", Json::Str(source.clone())),
            (
                "input",
                Json::Arr(input.iter().map(|&v| Json::Num(v as f64)).collect()),
            ),
            ("options", options_to_json(options)),
        ]),
        JobSpec::Sweep {
            program,
            source,
            sizes,
            ablations,
        } => Json::obj(vec![
            ("kind", Json::Str("sweep".into())),
            ("program", Json::Str(program.clone())),
            ("source", Json::Str(source.clone())),
            (
                "sizes",
                Json::Arr(sizes.iter().map(|&n| Json::Num(n as f64)).collect()),
            ),
            (
                "ablations",
                Json::Arr(
                    ablations
                        .iter()
                        .map(|a| {
                            Json::obj(vec![
                                ("name", Json::Str(a.name.clone())),
                                ("options", options_to_json(&a.options)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        JobSpec::Analyze { trace, options } => Json::obj(vec![
            ("kind", Json::Str("analyze".into())),
            ("trace_hex", Json::Str(hex_encode(trace))),
            ("options", options_to_json(options)),
        ]),
    }
}

/// Decodes a `POST /api/v1/jobs` body. Error strings are relayed to the
/// client verbatim in a 400 response.
pub fn job_from_json(value: &Json) -> Result<JobSpec, String> {
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing job kind")?;
    let text_field = |key: &str| -> Result<String, String> {
        value
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{kind} job needs a string {key:?} field"))
    };
    match kind {
        "profile" => {
            let input = match value.get("input") {
                None => Vec::new(),
                Some(v) => v
                    .as_arr()
                    .ok_or("input must be an array")?
                    .iter()
                    .map(|n| n.as_i64().ok_or("input values must be integers"))
                    .collect::<Result<Vec<i64>, _>>()?,
            };
            Ok(JobSpec::Profile {
                program: text_field("program")?,
                source: text_field("source")?,
                input,
                options: options_from_json(value.get("options"))?,
            })
        }
        "sweep" => {
            let sizes = value
                .get("sizes")
                .and_then(Json::as_arr)
                .ok_or("sweep job needs a sizes array")?
                .iter()
                .map(|n| n.as_u64().ok_or("sizes must be non-negative integers"))
                .collect::<Result<Vec<u64>, _>>()?;
            if sizes.is_empty() {
                return Err("sweep job needs at least one size".into());
            }
            let ablations = match value.get("ablations") {
                None => vec![SweepAblation {
                    name: "default".to_owned(),
                    options: AlgoProfOptions::default(),
                }],
                Some(v) => v
                    .as_arr()
                    .ok_or("ablations must be an array")?
                    .iter()
                    .map(|a| {
                        Ok(SweepAblation {
                            name: a
                                .get("name")
                                .and_then(Json::as_str)
                                .ok_or("each ablation needs a name")?
                                .to_owned(),
                            options: options_from_json(a.get("options"))?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            };
            if ablations.is_empty() {
                return Err("sweep job needs at least one ablation".into());
            }
            Ok(JobSpec::Sweep {
                program: text_field("program")?,
                source: text_field("source")?,
                sizes,
                ablations,
            })
        }
        "analyze" => Ok(JobSpec::Analyze {
            trace: hex_decode(&text_field("trace_hex")?)?,
            options: options_from_json(value.get("options"))?,
        }),
        other => Err(format!(
            "unknown job kind {other:?} (expected profile|sweep|analyze)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn round_trip(spec: &JobSpec) -> JobSpec {
        let wire = job_to_json(spec).to_string_compact();
        job_from_json(&parse(&wire).expect("parses")).expect("decodes")
    }

    #[test]
    fn jobs_round_trip_with_identical_cache_keys() {
        let options = AlgoProfOptions {
            criterion: EquivalenceCriterion::AllElements,
            snapshot_policy: SnapshotPolicy::EveryAccess,
            ..AlgoProfOptions::default()
        };
        let specs = [
            JobSpec::Profile {
                program: "p.jay".into(),
                source: "class Main { static int main() { return 0; } }".into(),
                input: vec![3, -1, 9],
                options,
            },
            JobSpec::Sweep {
                program: "s.jay".into(),
                source: "class Main { static int main() { return readInput(); } }".into(),
                sizes: vec![4, 8, 16],
                ablations: vec![
                    SweepAblation {
                        name: "default".into(),
                        options: AlgoProfOptions::default(),
                    },
                    SweepAblation {
                        name: "all".into(),
                        options,
                    },
                ],
            },
            JobSpec::Analyze {
                trace: vec![0x41, 0x50, 0x54, 0x52, 0x00, 0xff],
                options: AlgoProfOptions::default(),
            },
        ];
        for spec in &specs {
            let back = round_trip(spec);
            // The codec is faithful exactly when the content address is
            // preserved (cache_key covers every field execution reads).
            assert_eq!(back.cache_key(), spec.cache_key());
            assert_eq!(back.kind(), spec.kind());
        }
    }

    #[test]
    fn defaults_apply_when_fields_are_absent() {
        let wire = r#"{"kind":"sweep","program":"p","source":"s","sizes":[4]}"#;
        let spec = job_from_json(&parse(wire).expect("parses")).expect("decodes");
        let JobSpec::Sweep { ablations, .. } = &spec else {
            panic!("expected sweep");
        };
        assert_eq!(ablations.len(), 1);
        assert_eq!(ablations[0].name, "default");
    }

    #[test]
    fn malformed_jobs_are_rejected_with_useful_messages() {
        let cases = [
            (r#"{"program":"p"}"#, "missing job kind"),
            (r#"{"kind":"frobnicate"}"#, "unknown job kind"),
            (r#"{"kind":"profile","source":"s"}"#, "program"),
            (r#"{"kind":"sweep","program":"p","source":"s"}"#, "sizes"),
            (
                r#"{"kind":"sweep","program":"p","source":"s","sizes":[]}"#,
                "at least one size",
            ),
            (
                r#"{"kind":"profile","program":"p","source":"s","options":{"criterion":"bogus"}}"#,
                "unknown criterion",
            ),
            (r#"{"kind":"analyze","trace_hex":"abc"}"#, "odd-length"),
            (r#"{"kind":"analyze","trace_hex":"zz"}"#, "bad hex"),
            (r#"{"kind":"analyze","trace_hex":"a\u00e9a"}"#, "bad hex"),
        ];
        for (wire, needle) in cases {
            let err = job_from_json(&parse(wire).expect("parses")).unwrap_err();
            assert!(err.contains(needle), "{wire}: {err:?} lacks {needle:?}");
        }
    }

    #[test]
    fn hex_codec_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).expect("decodes"), bytes);
    }
}
