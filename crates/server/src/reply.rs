//! Typed protocol replies.
//!
//! Every wire reply line decodes into a [`Reply`], discriminated by the
//! fields the server puts on it (the protocol has no reply-type tag;
//! field presence is the tag). The raw line is kept on every variant so
//! byte-differential harnesses can compare wire bytes, not just decoded
//! values.

use crate::json::{parse, Value};

/// Machine-matchable error categories, parsed from the wire `kind`.
///
/// [`ErrCode::Other`] absorbs kinds newer than this client; match on
/// [`ErrorReply::kind`] for exact forward-compatible dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The request line was not valid JSON.
    Parse,
    /// The request violated the protocol (unknown op, bad fields).
    Proto,
    /// The source failed to compile (diagnostics attached).
    Compile,
    /// Unknown benchmark name.
    NoBench,
    /// The session id is not live (never existed, evicted, unloaded).
    NoSession,
    /// An access path the session's program does not contain.
    UnknownPath,
    /// The request panicked server-side (contained; the connection lives on).
    Panic,
    /// A router could not reach the owning backend after retries.
    Unavailable,
    /// The server was at its connection cap; the connection was closed.
    Overloaded,
    /// The request line passed `net::MAX_LINE_BYTES`; the connection
    /// was closed.
    LineTooLong,
    /// Any kind this client does not know.
    Other,
}

impl ErrCode {
    /// Maps a wire `kind` string to its code.
    pub fn from_kind(kind: &str) -> ErrCode {
        match kind {
            "parse" => ErrCode::Parse,
            "proto" => ErrCode::Proto,
            "compile" => ErrCode::Compile,
            "no_bench" => ErrCode::NoBench,
            "no_session" => ErrCode::NoSession,
            "unknown_path" => ErrCode::UnknownPath,
            "panic" => ErrCode::Panic,
            "unavailable" => ErrCode::Unavailable,
            "overloaded" => ErrCode::Overloaded,
            "line_too_long" => ErrCode::LineTooLong,
            _ => ErrCode::Other,
        }
    }
}

/// One front-end diagnostic as carried over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiagnostic {
    /// Compiler phase (`lex`, `parse`, `check`, `lower`).
    pub phase: String,
    /// Byte span start.
    pub start: i64,
    /// Byte span end.
    pub end: i64,
    /// The message.
    pub message: String,
}

/// A structured `{"ok":false,...}` reply.
#[derive(Debug, Clone)]
pub struct ErrorReply {
    /// The machine-matchable category of [`ErrorReply::kind`].
    pub code: ErrCode,
    /// The wire `kind` string, verbatim.
    pub kind: String,
    /// Human-readable message.
    pub message: String,
    /// Structured compiler diagnostics, when `kind == "compile"`.
    pub diagnostics: Vec<WireDiagnostic>,
    /// The raw reply line.
    pub raw: String,
}

/// A successful `load` reply.
#[derive(Debug, Clone)]
pub struct LoadReply {
    /// Session id to use in subsequent queries.
    pub session: String,
    /// Whether the program was already warm in the server's cache.
    pub cached: bool,
    /// Stable content key (`bench:ktree@2`, `src:…`).
    pub key: String,
    /// Heap reference sites in the program.
    pub heap_refs: i64,
    /// Addressable access paths (only when requested via `paths:true`).
    pub paths: Vec<String>,
    /// The raw reply line.
    pub raw: String,
}

/// A successful `alias` reply.
#[derive(Debug, Clone)]
pub struct AliasReply {
    /// One verdict per queried pair, in request order.
    pub results: Vec<bool>,
    /// The raw reply line.
    pub raw: String,
}

/// A successful `pairs` reply (Table-5 style counts).
#[derive(Debug, Clone)]
pub struct PairsReply {
    /// Heap reference expressions in the program.
    pub references: i64,
    /// Intraprocedural may-alias pairs.
    pub local_pairs: i64,
    /// Whole-program may-alias pairs.
    pub global_pairs: i64,
    /// The raw reply line.
    pub raw: String,
}

/// A successful `rle` reply (static RLE report).
#[derive(Debug, Clone)]
pub struct RleReply {
    /// Loads hoisted out of loops.
    pub hoisted: i64,
    /// Loads replaced by register references.
    pub eliminated: i64,
    /// Total removed (the Table 6 metric).
    pub removed: i64,
    /// The raw reply line.
    pub raw: String,
}

/// A successful `stats` reply.
#[derive(Debug, Clone)]
pub struct StatsReply {
    /// Microseconds since the server bound its listeners (always ≥ 1).
    pub uptime_us: i64,
    /// Live sessions.
    pub live_sessions: i64,
    /// Session capacity (LRU bound).
    pub session_capacity: i64,
    /// The full decoded reply object (counters, gauges, histograms,
    /// engines, and — through a router — the merged `router` section).
    pub value: Value<'static>,
    /// The raw reply line.
    pub raw: String,
}

impl StatsReply {
    /// A counter from the `stats.counters` section (0 when absent).
    pub fn counter(&self, name: &str) -> i64 {
        self.section("counters", name)
    }

    /// A gauge from the `stats.gauges` section (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.section("gauges", name)
    }

    fn section(&self, section: &str, name: &str) -> i64 {
        self.value
            .get("stats")
            .and_then(|s| s.get(section))
            .and_then(|c| c.get(name))
            .and_then(Value::as_i64)
            .unwrap_or(0)
    }
}

/// One decoded reply line, success or failure.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A `load` succeeded.
    Loaded(LoadReply),
    /// An `alias` batch was answered.
    Alias(AliasReply),
    /// A `pairs` count was answered.
    Pairs(PairsReply),
    /// An `rle` report was produced.
    Rle(RleReply),
    /// A `stats` snapshot.
    Stats(StatsReply),
    /// An `unload` was processed; `unloaded` says whether it was live.
    Unloaded {
        /// Whether the session was live.
        unloaded: bool,
        /// The raw reply line.
        raw: String,
    },
    /// The server acknowledged `shutdown` and is draining.
    Draining {
        /// The raw reply line.
        raw: String,
    },
    /// The server answered `{"ok":false,...}`.
    Err(ErrorReply),
}

fn int(v: &Value, key: &str) -> i64 {
    v.get(key).and_then(Value::as_i64).unwrap_or(-1)
}

fn text(v: &Value, key: &str) -> String {
    v.get(key).and_then(Value::as_str).unwrap_or("").to_string()
}

impl Reply {
    /// Decodes one raw reply line. Fails (with a description) only when
    /// the line is not a protocol reply at all — a server error is a
    /// successful decode to [`Reply::Err`].
    pub fn decode(raw: &str) -> Result<Reply, String> {
        let v = parse(raw).map_err(|e| format!("bad reply: {e}: {raw}"))?;
        match v.get("ok").and_then(Value::as_bool) {
            Some(true) => {}
            Some(false) => return Ok(Reply::Err(decode_error(&v, raw))),
            None => return Err(format!("reply without `ok`: {raw}")),
        }
        // Field presence is the reply-type tag.
        if v.get("results").is_some() {
            return Ok(Reply::Alias(AliasReply {
                results: v
                    .get("results")
                    .and_then(Value::as_array)
                    .map(|a| a.iter().map(|r| r.as_bool().unwrap_or(false)).collect())
                    .unwrap_or_default(),
                raw: raw.to_string(),
            }));
        }
        if v.get("references").is_some() {
            return Ok(Reply::Pairs(PairsReply {
                references: int(&v, "references"),
                local_pairs: int(&v, "local_pairs"),
                global_pairs: int(&v, "global_pairs"),
                raw: raw.to_string(),
            }));
        }
        if v.get("hoisted").is_some() {
            return Ok(Reply::Rle(RleReply {
                hoisted: int(&v, "hoisted"),
                eliminated: int(&v, "eliminated"),
                removed: int(&v, "removed"),
                raw: raw.to_string(),
            }));
        }
        if v.get("cached").is_some() {
            return Ok(Reply::Loaded(LoadReply {
                session: text(&v, "session"),
                cached: v.get("cached").and_then(Value::as_bool).unwrap_or(false),
                key: text(&v, "key"),
                heap_refs: int(&v, "heap_refs"),
                paths: v
                    .get("paths")
                    .and_then(Value::as_array)
                    .map(|a| {
                        a.iter()
                            .filter_map(Value::as_str)
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default(),
                raw: raw.to_string(),
            }));
        }
        if v.get("stats").is_some() {
            let sessions = v.get("sessions");
            return Ok(Reply::Stats(StatsReply {
                uptime_us: int(&v, "uptime_us"),
                live_sessions: sessions
                    .and_then(|s| s.get("live"))
                    .and_then(Value::as_i64)
                    .unwrap_or(0),
                session_capacity: sessions
                    .and_then(|s| s.get("capacity"))
                    .and_then(Value::as_i64)
                    .unwrap_or(0),
                value: v.into_owned(),
                raw: raw.to_string(),
            }));
        }
        if let Some(unloaded) = v.get("unloaded").and_then(Value::as_bool) {
            return Ok(Reply::Unloaded {
                unloaded,
                raw: raw.to_string(),
            });
        }
        if v.get("draining").is_some() {
            return Ok(Reply::Draining {
                raw: raw.to_string(),
            });
        }
        Err(format!("unrecognized ok reply shape: {raw}"))
    }

    /// The raw wire line this reply decoded from.
    pub fn raw(&self) -> &str {
        match self {
            Reply::Loaded(r) => &r.raw,
            Reply::Alias(r) => &r.raw,
            Reply::Pairs(r) => &r.raw,
            Reply::Rle(r) => &r.raw,
            Reply::Stats(r) => &r.raw,
            Reply::Unloaded { raw, .. } | Reply::Draining { raw } => raw,
            Reply::Err(e) => &e.raw,
        }
    }

    /// Promotes [`Reply::Err`] to a `Result` error, passing every
    /// success variant through.
    pub fn into_result(self) -> Result<Reply, ErrorReply> {
        match self {
            Reply::Err(e) => Err(e),
            ok => Ok(ok),
        }
    }
}

fn decode_error(v: &Value, raw: &str) -> ErrorReply {
    let err = v.get("error");
    let get = |k: &str| {
        err.and_then(|e| e.get(k))
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    let diagnostics = err
        .and_then(|e| e.get("diagnostics"))
        .and_then(Value::as_array)
        .map(|ds| {
            ds.iter()
                .map(|d| WireDiagnostic {
                    phase: text(d, "phase"),
                    start: d.get("start").and_then(Value::as_i64).unwrap_or(-1),
                    end: d.get("end").and_then(Value::as_i64).unwrap_or(-1),
                    message: text(d, "message"),
                })
                .collect()
        })
        .unwrap_or_default();
    let kind = get("kind");
    ErrorReply {
        code: ErrCode::from_kind(&kind),
        kind,
        message: get("message"),
        diagnostics,
        raw: raw.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type ShapeCheck = fn(&Reply) -> bool;

    #[test]
    fn decode_discriminates_every_reply_shape() {
        let cases: Vec<(&str, ShapeCheck)> = vec![
            (
                r#"{"ok":true,"session":"s1","key":"bench:ktree@1","cached":false,"funcs":3,"instrs":10,"heap_refs":4}"#,
                |r| matches!(r, Reply::Loaded(l) if l.session == "s1" && !l.cached),
            ),
            (
                r#"{"ok":true,"session":"s1","level":"SMFieldTypeRefs","world":"Closed","results":[true,false]}"#,
                |r| matches!(r, Reply::Alias(a) if a.results == vec![true, false]),
            ),
            (
                r#"{"ok":true,"session":"s1","level":"TypeDecl","world":"Open","references":9,"local_pairs":3,"global_pairs":7}"#,
                |r| matches!(r, Reply::Pairs(p) if p.references == 9 && p.global_pairs == 7),
            ),
            (
                r#"{"ok":true,"session":"s1","level":"TypeDecl","world":"Open","hoisted":1,"eliminated":2,"removed":3}"#,
                |r| matches!(r, Reply::Rle(x) if x.removed == 3),
            ),
            (
                r#"{"ok":true,"uptime_us":42,"stats":{"counters":{"requests.alias":5}},"sessions":{"live":2,"capacity":32},"engines":{}}"#,
                |r| {
                    matches!(r, Reply::Stats(s)
                        if s.uptime_us == 42 && s.live_sessions == 2 && s.counter("requests.alias") == 5)
                },
            ),
            (r#"{"ok":true,"unloaded":true}"#, |r| {
                matches!(r, Reply::Unloaded { unloaded: true, .. })
            }),
            (r#"{"ok":true,"draining":true}"#, |r| {
                matches!(r, Reply::Draining { .. })
            }),
        ];
        for (raw, check) in cases {
            let reply = Reply::decode(raw).expect(raw);
            assert!(check(&reply), "wrong variant for {raw}: {reply:?}");
            assert_eq!(reply.raw(), raw);
        }
    }

    #[test]
    fn decode_errors_are_typed() {
        let raw = r#"{"ok":false,"error":{"kind":"no_session","message":"no live session `s9`"}}"#;
        let Reply::Err(e) = Reply::decode(raw).unwrap() else {
            panic!("expected Err variant");
        };
        assert_eq!(e.code, ErrCode::NoSession);
        assert_eq!(e.kind, "no_session");
        assert!(e.message.contains("s9"));
        assert!(e.diagnostics.is_empty());

        let raw = r#"{"ok":false,"error":{"kind":"compile","message":"2 errors","diagnostics":[{"phase":"parse","start":0,"end":6,"message":"bad"}]}}"#;
        let Reply::Err(e) = Reply::decode(raw).unwrap() else {
            panic!("expected Err variant");
        };
        assert_eq!(e.code, ErrCode::Compile);
        assert_eq!(e.diagnostics.len(), 1);
        assert_eq!(e.diagnostics[0].phase, "parse");

        let Reply::Err(e) =
            Reply::decode(r#"{"ok":false,"error":{"kind":"from_the_future","message":"?"}}"#)
                .unwrap()
        else {
            panic!("expected Err variant");
        };
        assert_eq!(e.code, ErrCode::Other);
        assert_eq!(e.kind, "from_the_future");
    }

    #[test]
    fn junk_is_a_decode_failure_not_a_variant() {
        assert!(Reply::decode("not json").is_err());
        assert!(Reply::decode(r#"{"no_ok_field":1}"#).is_err());
        assert!(Reply::decode(r#"{"ok":true,"mystery":1}"#).is_err());
    }
}
