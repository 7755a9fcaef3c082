//! The `tbaad` wire protocol: newline-delimited JSON requests/replies.
//!
//! Every request is one JSON object on one line with an `"op"` field;
//! every reply is one JSON object on one line with an `"ok"` boolean.
//! Verbs:
//!
//! | op | request fields | success reply fields |
//! |---|---|---|
//! | `load` | `source` *or* `bench` (+`scale`, `paths?`) | `session`, `cached`, `funcs`, `instrs`, `heap_refs` (+`paths` when asked) |
//! | `alias` | `session`, `pairs:[[ap,ap],..]` *or* `ap1`+`ap2`, `level?`, `world?` | `session`, `level`, `world`, `results:[bool,..]` |
//! | `pairs` | `session`, `level?`, `world?` | `references`, `local_pairs`, `global_pairs` |
//! | `rle` | `session`, `level?`, `world?` | `hoisted`, `eliminated`, `removed` |
//! | `stats` | — | `stats` (metrics snapshot), `sessions` |
//! | `unload` | `session` | `unloaded` |
//! | `shutdown` | — | `draining` |
//!
//! Error replies are `{"ok":false,"error":{"kind":..,"message":..}}`;
//! compile failures additionally carry the front end's structured
//! diagnostics (`phase`, byte `span`, `message` — the same data
//! `Pipeline::run` returns in-process).
//!
//! [`Request`] borrows its string payloads from the request line — a
//! decoded `alias` batch allocates only its pair `Vec`, never copies of
//! the access paths or session id.

use std::borrow::Cow;

use mini_m3::Diagnostics;
use tbaa::analysis::Level;
use tbaa::World;

use crate::json::{parse, JsonError, Value};

/// Default workload scale for benchsuite loads that omit `scale`
/// (matches `tbaa_bench::DEFAULT_SCALE`).
pub const DEFAULT_SCALE: u32 = 2;
/// Default analysis level when a request omits `level`.
pub const DEFAULT_LEVEL: Level = Level::SmFieldTypeRefs;
/// Default world assumption when a request omits `world`.
pub const DEFAULT_WORLD: World = World::Closed;

/// A decoded request, borrowing strings from the request line where the
/// decoder could (escape-free payloads — the common case).
#[derive(Debug, Clone, PartialEq)]
pub enum Request<'a> {
    /// Compile a program into a session (idempotent per content).
    Load {
        /// Inline MiniM3 source (exclusive with `bench`).
        source: Option<Cow<'a, str>>,
        /// A `tbaa-benchsuite` program name (exclusive with `source`).
        bench: Option<Cow<'a, str>>,
        /// Workload scale for benchsuite programs.
        scale: u32,
        /// Whether the reply should list the addressable access paths.
        paths: bool,
    },
    /// One or more `may_alias` queries against a session.
    Alias {
        /// Session id from `load`.
        session: Cow<'a, str>,
        /// Analysis precision.
        level: Level,
        /// World assumption.
        world: World,
        /// Access-path pairs, e.g. `[["t.f","u.f"]]`.
        pairs: Vec<(Cow<'a, str>, Cow<'a, str>)>,
    },
    /// Table-5 style static pair counts for a session.
    Pairs {
        /// Session id from `load`.
        session: Cow<'a, str>,
        /// Analysis precision.
        level: Level,
        /// World assumption.
        world: World,
    },
    /// Run RLE on a copy of the session's program; return static stats.
    Rle {
        /// Session id from `load`.
        session: Cow<'a, str>,
        /// Analysis precision.
        level: Level,
        /// World assumption.
        world: World,
    },
    /// Server metrics snapshot.
    Stats,
    /// Drop a session from the cache.
    Unload {
        /// Session id from `load`.
        session: Cow<'a, str>,
    },
    /// Drain in-flight requests and exit.
    Shutdown,
}

/// Why a request could not be decoded or served.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The line was not valid JSON.
    Json(JsonError),
    /// The JSON did not match the protocol (missing/mistyped fields…).
    Invalid(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Json(e) => write!(f, "{e}"),
            ProtoError::Invalid(m) => f.write_str(m),
        }
    }
}

/// Parses the `level` wire names (both the CLI spellings and the paper's).
pub fn parse_level(s: &str) -> Option<Level> {
    match s.to_ascii_lowercase().as_str() {
        "typedecl" => Some(Level::TypeDecl),
        "fields" | "fieldtypedecl" => Some(Level::FieldTypeDecl),
        "merges" | "smfieldtyperefs" => Some(Level::SmFieldTypeRefs),
        _ => None,
    }
}

/// Parses the `world` wire names.
pub fn parse_world(s: &str) -> Option<World> {
    match s.to_ascii_lowercase().as_str() {
        "closed" => Some(World::Closed),
        "open" => Some(World::Open),
        _ => None,
    }
}

/// The canonical wire spelling of a level (the paper's table name).
pub fn level_name(level: Level) -> &'static str {
    level.name()
}

/// The canonical wire spelling of a world.
pub fn world_name(world: World) -> &'static str {
    match world {
        World::Closed => "Closed",
        World::Open => "Open",
    }
}

fn take_str<'a>(v: &mut Value<'a>, key: &str) -> Result<Cow<'a, str>, ProtoError> {
    v.take(key)
        .and_then(Value::into_str)
        .ok_or_else(|| ProtoError::Invalid(format!("missing or non-string `{key}`")))
}

fn level_field(v: &Value<'_>) -> Result<Level, ProtoError> {
    match v.get("level") {
        None | Some(Value::Null) => Ok(DEFAULT_LEVEL),
        Some(Value::Str(s)) => {
            parse_level(s).ok_or_else(|| ProtoError::Invalid(format!("unknown level `{s}`")))
        }
        Some(_) => Err(ProtoError::Invalid("`level` must be a string".into())),
    }
}

fn world_field(v: &Value<'_>) -> Result<World, ProtoError> {
    match v.get("world") {
        None | Some(Value::Null) => Ok(DEFAULT_WORLD),
        Some(Value::Str(s)) => {
            parse_world(s).ok_or_else(|| ProtoError::Invalid(format!("unknown world `{s}`")))
        }
        Some(_) => Err(ProtoError::Invalid("`world` must be a string".into())),
    }
}

/// Decodes one request line. The result borrows from `line`.
pub fn decode_request(line: &str) -> Result<Request<'_>, ProtoError> {
    let mut v = parse(line).map_err(ProtoError::Json)?;
    let op = take_str(&mut v, "op")?;
    match op.as_ref() {
        "load" => {
            let source = v.take("source").and_then(Value::into_str);
            let bench = v.take("bench").and_then(Value::into_str);
            if source.is_some() == bench.is_some() {
                return Err(ProtoError::Invalid(
                    "`load` takes exactly one of `source` or `bench`".into(),
                ));
            }
            let scale = match v.get("scale") {
                None | Some(Value::Null) => DEFAULT_SCALE,
                Some(s) => s
                    .as_i64()
                    .filter(|n| (1..=64).contains(n))
                    .ok_or_else(|| ProtoError::Invalid("`scale` must be 1..=64".into()))?
                    as u32,
            };
            let paths = match v.get("paths") {
                None | Some(Value::Null) => false,
                Some(Value::Bool(b)) => *b,
                Some(_) => {
                    return Err(ProtoError::Invalid("`paths` must be a boolean".into()))
                }
            };
            Ok(Request::Load {
                source,
                bench,
                scale,
                paths,
            })
        }
        "alias" => {
            let session = take_str(&mut v, "session")?;
            let level = level_field(&v)?;
            let world = world_field(&v)?;
            let mut pairs = Vec::new();
            match (v.take("pairs"), v.take("ap1"), v.take("ap2")) {
                (Some(Value::Array(items)), None, None) => {
                    pairs.reserve(items.len());
                    for item in items {
                        let pair = match item {
                            Value::Array(a) if a.len() == 2 => a,
                            _ => {
                                return Err(ProtoError::Invalid(
                                    "`pairs` entries must be [ap, ap]".into(),
                                ))
                            }
                        };
                        let mut it = pair.into_iter();
                        let a = it.next().unwrap().into_str().ok_or_else(|| {
                            ProtoError::Invalid("access paths must be strings".into())
                        })?;
                        let b = it.next().unwrap().into_str().ok_or_else(|| {
                            ProtoError::Invalid("access paths must be strings".into())
                        })?;
                        pairs.push((a, b));
                    }
                }
                (None, Some(a), Some(b)) => {
                    let a = a.into_str().ok_or_else(|| {
                        ProtoError::Invalid("`ap1` must be a string".into())
                    })?;
                    let b = b.into_str().ok_or_else(|| {
                        ProtoError::Invalid("`ap2` must be a string".into())
                    })?;
                    pairs.push((a, b));
                }
                _ => {
                    return Err(ProtoError::Invalid(
                        "`alias` takes `pairs:[[ap,ap],..]` or `ap1`+`ap2`".into(),
                    ))
                }
            }
            if pairs.is_empty() {
                return Err(ProtoError::Invalid("`pairs` must be non-empty".into()));
            }
            Ok(Request::Alias {
                session,
                level,
                world,
                pairs,
            })
        }
        "pairs" => Ok(Request::Pairs {
            session: take_str(&mut v, "session")?,
            level: level_field(&v)?,
            world: world_field(&v)?,
        }),
        "rle" => Ok(Request::Rle {
            session: take_str(&mut v, "session")?,
            level: level_field(&v)?,
            world: world_field(&v)?,
        }),
        "stats" => Ok(Request::Stats),
        "unload" => Ok(Request::Unload {
            session: take_str(&mut v, "session")?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtoError::Invalid(format!("unknown op `{other}`"))),
    }
}

/// Every verb's wire name, indexed by [`Request::index`]: the order of
/// the per-verb metric handles.
pub const VERBS: [&str; 7] = ["load", "alias", "pairs", "rle", "stats", "unload", "shutdown"];

impl Request<'_> {
    /// This request's verb as an index into [`VERBS`].
    pub fn index(&self) -> usize {
        match self {
            Request::Load { .. } => 0,
            Request::Alias { .. } => 1,
            Request::Pairs { .. } => 2,
            Request::Rle { .. } => 3,
            Request::Stats => 4,
            Request::Unload { .. } => 5,
            Request::Shutdown => 6,
        }
    }
}

/// Builds a success reply: `{"ok":true, ...fields}`.
pub fn ok_reply<'a>(fields: Vec<(&'a str, Value<'a>)>) -> Value<'a> {
    let mut pairs = vec![("ok", Value::Bool(true))];
    pairs.extend(fields);
    Value::object(pairs)
}

/// Builds an error reply: `{"ok":false,"error":{"kind":..,"message":..}}`.
/// Owned (`'static`) — error paths are cold, so the copies don't matter.
pub fn error_reply(kind: &str, message: &str) -> Value<'static> {
    Value::object(vec![
        ("ok", Value::Bool(false)),
        (
            "error",
            Value::object(vec![
                ("kind", Value::Str(kind.to_owned().into())),
                ("message", Value::Str(message.to_owned().into())),
            ]),
        ),
    ])
}

/// Encodes front-end diagnostics the way the wire carries them: an array
/// of `{"phase","start","end","message"}`.
pub fn diagnostics_json(diags: &Diagnostics) -> Value<'static> {
    Value::Array(
        diags
            .iter()
            .map(|d| {
                Value::object(vec![
                    ("phase", Value::Str(d.phase.to_string().into())),
                    ("start", Value::Int(d.span.start as i64)),
                    ("end", Value::Int(d.span.end as i64)),
                    ("message", Value::Str(d.message.clone().into())),
                ])
            })
            .collect(),
    )
}

/// Builds a compile-failure reply carrying structured diagnostics.
pub fn compile_error_reply(diags: &Diagnostics) -> Value<'static> {
    Value::object(vec![
        ("ok", Value::Bool(false)),
        (
            "error",
            Value::object(vec![
                ("kind", Value::Str("compile".into())),
                (
                    "message",
                    Value::Str(
                        format!(
                            "source does not compile ({} diagnostic{})",
                            diags.len(),
                            if diags.len() == 1 { "" } else { "s" }
                        )
                        .into(),
                    ),
                ),
                ("diagnostics", diagnostics_json(diags)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_load_variants() {
        let r = decode_request(r#"{"op":"load","bench":"ktree","scale":2}"#).unwrap();
        assert_eq!(
            r,
            Request::Load {
                source: None,
                bench: Some("ktree".into()),
                scale: 2,
                paths: false
            }
        );
        let r = decode_request(r#"{"op":"load","source":"MODULE M; BEGIN END M."}"#).unwrap();
        assert!(matches!(r, Request::Load { source: Some(_), bench: None, .. }));
        assert!(decode_request(r#"{"op":"load"}"#).is_err());
        assert!(decode_request(r#"{"op":"load","bench":"x","source":"y"}"#).is_err());
        assert!(decode_request(r#"{"op":"load","bench":"x","scale":0}"#).is_err());
    }

    #[test]
    fn decodes_alias_batch_and_single() {
        let batched =
            decode_request(r#"{"op":"alias","session":"s1","pairs":[["a.f","b.f"],["a.f","a.g"]]}"#)
                .unwrap();
        match batched {
            Request::Alias { pairs, level, world, .. } => {
                assert_eq!(pairs.len(), 2);
                assert_eq!(level, DEFAULT_LEVEL);
                assert_eq!(world, DEFAULT_WORLD);
            }
            other => panic!("{other:?}"),
        }
        let single = decode_request(
            r#"{"op":"alias","session":"s1","ap1":"a.f","ap2":"b.f","level":"typedecl","world":"open"}"#,
        )
        .unwrap();
        match single {
            Request::Alias { pairs, level, world, .. } => {
                assert_eq!(pairs, vec![("a.f".into(), "b.f".into())]);
                assert_eq!(level, Level::TypeDecl);
                assert_eq!(world, World::Open);
            }
            other => panic!("{other:?}"),
        }
        assert!(decode_request(r#"{"op":"alias","session":"s1"}"#).is_err());
        assert!(decode_request(r#"{"op":"alias","session":"s1","pairs":[]}"#).is_err());
        assert!(decode_request(r#"{"op":"alias","session":"s1","pairs":[["a"]]}"#).is_err());
    }

    #[test]
    fn decoded_requests_borrow_from_the_line() {
        let line = r#"{"op":"alias","session":"s1","pairs":[["a.f","b.f"]]}"#;
        match decode_request(line).unwrap() {
            Request::Alias { session, pairs, .. } => {
                assert!(matches!(session, Cow::Borrowed(_)));
                assert!(pairs
                    .iter()
                    .all(|(a, b)| matches!(a, Cow::Borrowed(_)) && matches!(b, Cow::Borrowed(_))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn level_world_spellings() {
        assert_eq!(parse_level("SMFieldTypeRefs"), Some(Level::SmFieldTypeRefs));
        assert_eq!(parse_level("merges"), Some(Level::SmFieldTypeRefs));
        assert_eq!(parse_level("fields"), Some(Level::FieldTypeDecl));
        assert_eq!(parse_level("bogus"), None);
        assert_eq!(parse_world("Open"), Some(World::Open));
        assert_eq!(parse_world("bogus"), None);
    }

    #[test]
    fn simple_ops() {
        assert_eq!(decode_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            decode_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            decode_request(r#"{"op":"unload","session":"s9"}"#).unwrap(),
            Request::Unload { session: "s9".into() }
        );
        assert!(decode_request(r#"{"op":"frobnicate"}"#).is_err());
        assert!(decode_request("not json").is_err());
    }

    #[test]
    fn replies_are_single_line_objects() {
        let ok = ok_reply(vec![("x", Value::Int(1))]).encode();
        assert_eq!(ok, r#"{"ok":true,"x":1}"#);
        let err = error_reply("proto", "bad").encode();
        assert_eq!(err, r#"{"ok":false,"error":{"kind":"proto","message":"bad"}}"#);
        assert!(!ok.contains('\n'));
    }

    #[test]
    fn compile_errors_carry_structured_diagnostics() {
        let diags = match tbaa_ir::compile_to_ir("MODULE Broken") {
            Err(d) => d,
            Ok(_) => panic!("must not compile"),
        };
        let reply = compile_error_reply(&diags);
        let err = reply.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("compile"));
        let ds = err.get("diagnostics").unwrap().as_array().unwrap();
        assert!(!ds.is_empty());
        assert!(ds[0].get("phase").unwrap().as_str().is_some());
        assert!(ds[0].get("start").unwrap().as_i64().is_some());
        assert!(ds[0].get("message").unwrap().as_str().is_some());
    }
}
