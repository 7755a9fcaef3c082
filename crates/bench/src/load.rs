//! Load-generation and differential-checking machinery for `tbaad`.
//!
//! This module is the reusable half of the `tbaa-loadgen` binary; the
//! differential soak test (`tests/server_differential.rs` in the facade
//! crate) and the server's own churn tests drive the same types, so the
//! harness and the test suite cannot drift apart.
//!
//! Three layers:
//!
//! * **Measurement** — [`VerbLatencies`], one
//!   [`Histogram`](tbaa_server::metrics::Histogram) per protocol verb
//!   with p50/p95/p99/max extraction: the daemon's own histogram type,
//!   recorded per client thread and merged at join time.
//! * **Workload** — [`WorkloadGen`], a seeded generator of protocol
//!   request lines (mixed `load`/`alias`/`pairs`/`rle`/`stats` traffic
//!   over several sessions) paired with the [`ReqKind`] needed to check
//!   the reply. Same seed, same script: every run is reproducible.
//! * **Truth** — [`Oracle`] and [`DiffChecker`]. The oracle answers
//!   every query *in process* through the facade [`Pipeline`]
//!   (`tbaa_repro::Pipeline`): the naive tree-walking [`Tbaa`] analysis
//!   for `alias`/`pairs` and a full `Pipeline::optimize` run for `rle` —
//!   deliberately **not** the [`CompiledAliasEngine`] the daemon serves
//!   from, so a byte comparison spans both the server plumbing and the
//!   compiled-engine-vs-oracle equivalence (the Steensgaard discipline:
//!   a fast analysis is only trustworthy against a slower oracle). The
//!   checker reconstructs the exact reply bytes the daemon must produce
//!   and fails on any difference.
//!
//! [`Pipeline`]: tbaa_repro::Pipeline
//! [`Tbaa`]: tbaa::analysis::Tbaa
//! [`CompiledAliasEngine`]: tbaa::CompiledAliasEngine

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tbaa::analysis::{AliasAnalysis, Level, Tbaa};
use tbaa::memo::Memo;
use tbaa::{count_alias_pairs, World};
use tbaa_benchsuite::Benchmark;
use tbaa_ir::ir::Program;
use tbaa_ir::path::ApId;
use tbaa_ir::pretty;
use tbaa_opt::{OptOptions, RleStats};
use tbaa_repro::Pipeline;
use tbaa_server::json::{parse, Value};
use tbaa_server::metrics::Histogram;
use tbaa_server::proto::{self, ok_reply};
use tbaa_server::session::{content_hash, SessionKey};

use crate::rng::XorShift64;

// ---- measurement -----------------------------------------------------------

/// The protocol verbs the workload issues (reply-checkable subset), in
/// [`Verb::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `load`.
    Load,
    /// `alias`.
    Alias,
    /// `pairs`.
    Pairs,
    /// `rle`.
    Rle,
    /// `stats`.
    Stats,
}

impl Verb {
    /// All verbs, wire order.
    pub const ALL: [Verb; 5] = [Verb::Load, Verb::Alias, Verb::Pairs, Verb::Rle, Verb::Stats];

    /// The wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Load => "load",
            Verb::Alias => "alias",
            Verb::Pairs => "pairs",
            Verb::Rle => "rle",
            Verb::Stats => "stats",
        }
    }
}

/// One latency histogram per verb: the daemon's own
/// [`Histogram`], recorded per client thread and merged at the end.
#[derive(Debug, Default)]
pub struct VerbLatencies {
    hists: [Histogram; 5],
}

impl VerbLatencies {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation under `verb`.
    pub fn observe(&self, verb: Verb, d: Duration) {
        self.hists[verb as usize].record(d);
    }

    /// Folds another set into this one.
    pub fn merge(&self, other: &VerbLatencies) {
        for (a, b) in self.hists.iter().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// Total observations across all verbs.
    pub fn total(&self) -> u64 {
        self.hists.iter().map(Histogram::count).sum()
    }

    /// Renders `{verb: {count, mean_us, p50_us, p95_us, p99_us, max_us}}`
    /// (verbs with traffic only).
    pub fn to_json(&self) -> Value<'static> {
        let quantiles = |h: &Histogram| {
            Value::object(vec![
                ("count", Value::Int(h.count() as i64)),
                ("mean_us", Value::Float((h.mean_us() * 10.0).round() / 10.0)),
                ("p50_us", Value::Int(h.quantile_us(0.50) as i64)),
                ("p95_us", Value::Int(h.quantile_us(0.95) as i64)),
                ("p99_us", Value::Int(h.quantile_us(0.99) as i64)),
                ("max_us", Value::Int(h.max_us() as i64)),
            ])
        };
        Value::Object(
            Verb::ALL
                .iter()
                .zip(&self.hists)
                .filter(|(_, h)| h.count() > 0)
                .map(|(v, h)| (v.name().into(), quantiles(h)))
                .collect(),
        )
    }
}

// ---- wire helpers ----------------------------------------------------------
//
// The transport layer used to live here; it is now the server crate's
// [`tbaa_server::net`] module, shared by `tbaad`, `tbaa-router`, and
// this harness. The old names are kept as aliases so harness code reads
// the same: note that [`Tick::Idle`] now carries whether partial bytes
// are buffered (`Tick::Idle(_)` in matches).

pub use tbaa_server::net::{Conn as Wire, LineReader as LineSource, Tick};

// ---- workload --------------------------------------------------------------

/// One loadable program content: a benchsuite entry or inline source.
#[derive(Debug, Clone)]
pub enum Content {
    /// A named benchsuite program at a workload scale.
    Bench {
        /// Program name.
        name: String,
        /// Workload scale.
        scale: u32,
    },
    /// Inline MiniM3 source.
    Source {
        /// The source text.
        text: String,
    },
}

impl Content {
    /// The server-side content identity this will load as.
    pub fn key(&self) -> SessionKey {
        match self {
            Content::Bench { name, scale } => SessionKey::Bench {
                name: name.clone(),
                scale: *scale,
            },
            Content::Source { text } => SessionKey::Source {
                hash: content_hash(text.as_bytes()),
            },
        }
    }

    /// The MiniM3 source text (benchsuite programs at their scale).
    pub fn source(&self) -> Result<String, String> {
        match self {
            Content::Bench { name, scale } => Benchmark::by_name(name)
                .map(|b| b.source_at_scale(*scale))
                .ok_or_else(|| format!("unknown benchmark `{name}`")),
            Content::Source { text } => Ok(text.clone()),
        }
    }

    /// The `load` request line for this content.
    pub fn load_line(&self) -> String {
        match self {
            Content::Bench { name, scale } => Value::object(vec![
                ("op", Value::Str("load".into())),
                ("bench", Value::Str(name.as_str().into())),
                ("scale", Value::Int(*scale as i64)),
            ])
            .encode(),
            Content::Source { text } => Value::object(vec![
                ("op", Value::Str("load".into())),
                ("source", Value::Str(text.as_str().into())),
            ])
            .encode(),
        }
    }
}

// ---- mutate workload -------------------------------------------------------

/// Number of procedures in the mutate program family (plus the module
/// body, which the incremental compiler treats as one more unit).
pub const MUTATE_PROCS: usize = 6;

/// One version of the edit-heavy workload program: a linked-cell module
/// with [`MUTATE_PROCS`] procedures, each carrying one tunable literal.
/// Bumping a single `tunings[i]` is a localized one-function edit;
/// bumping `generation` rewrites a `CONST` the module body reads, which
/// the incremental compiler must treat as a whole-program change.
fn mutate_source(generation: u64, tunings: &[u64; MUTATE_PROCS]) -> String {
    format!(
        "MODULE Mutate;

CONST
  Gen = {gen};

TYPE
  Cell = OBJECT
    val: INTEGER;
    next: Cell;
  END;
  Pair = OBJECT
    a: Cell;
    b: Cell;
  END;

VAR
  head: Cell;
  link: Pair;
  acc: INTEGER;

PROCEDURE Mk (v: INTEGER): Cell =
VAR c: Cell;
BEGIN
  c := NEW(Cell);
  c.val := v + {t0};
  c.next := head;
  RETURN c;
END Mk;

PROCEDURE Push (v: INTEGER) =
BEGIN
  head := Mk(v * {t1});
END Push;

PROCEDURE SumList (c: Cell): INTEGER =
VAR s: INTEGER;
BEGIN
  s := {t2};
  WHILE c # NIL DO
    s := s + c.val;
    c := c.next;
  END;
  RETURN s;
END SumList;

PROCEDURE Twist (p: Pair) =
VAR t: Cell;
BEGIN
  t := p.a;
  p.a := p.b;
  p.b := t;
  p.a.val := {t3};
END Twist;

PROCEDURE Weave (n: INTEGER) =
BEGIN
  FOR i := 1 TO n DO
    Push(i + {t4});
  END;
  link.a := head;
  link.b := Mk({t5});
END Weave;

PROCEDURE Settle (): INTEGER =
BEGIN
  IF link.a # NIL THEN
    RETURN link.a.val;
  END;
  RETURN 0;
END Settle;

BEGIN
  head := NIL;
  link := NEW(Pair);
  Weave(Gen MOD 7 + 3);
  Twist(link);
  acc := SumList(head) + Settle();
END Mutate.
",
        gen = generation,
        t0 = tunings[0],
        t1 = tunings[1],
        t2 = tunings[2],
        t3 = tunings[3],
        t4 = tunings[4],
        t5 = tunings[5],
    )
}

/// A deterministic corpus of superseding program versions for the
/// `--mutate` workload: version 0 is the base, and each later version
/// applies either a localized single-procedure edit (the common case —
/// the incremental compiler should replay every other function from
/// cache) or, roughly one version in five, a whole-program rewrite (a
/// `CONST` bump the module body depends on — every unit must re-lower).
///
/// The versions are pairwise distinct sources, so each `load` supersedes
/// the previous one under a fresh content key and the standard
/// [`Oracle`]/[`DiffChecker`] machinery verifies byte-identical replies
/// per version with no special cases.
pub fn mutate_contents(seed: u64, versions: usize) -> Vec<Content> {
    let mut rng = XorShift64::new(seed ^ 0x6d75_7461_7465); // "mutate"
    let mut generation = 1u64;
    let mut tunings = [1u64; MUTATE_PROCS];
    let mut out = Vec::with_capacity(versions.max(1));
    out.push(Content::Source {
        text: mutate_source(generation, &tunings),
    });
    for _ in 1..versions.max(1) {
        if rng.chance(1, 5) {
            generation += 1 + rng.below(9); // whole-program rewrite
        } else {
            tunings[rng.index(MUTATE_PROCS)] += 1; // one-function edit
        }
        out.push(Content::Source {
            text: mutate_source(generation, &tunings),
        });
    }
    out
}

/// What a generated request was, with everything needed to verify the
/// reply against the oracle.
#[derive(Debug, Clone)]
pub enum ReqKind {
    /// A `load` of the given content.
    Load {
        /// Content identity.
        key: SessionKey,
    },
    /// An `alias` batch.
    Alias {
        /// Content identity of the session.
        key: SessionKey,
        /// Session id the request named.
        sid: String,
        /// Resolved level (after wire defaults).
        level: Level,
        /// Resolved world.
        world: World,
        /// The queried access-path pairs.
        pairs: Vec<(String, String)>,
    },
    /// A `pairs` census.
    Pairs {
        /// Content identity of the session.
        key: SessionKey,
        /// Session id the request named.
        sid: String,
        /// Resolved level.
        level: Level,
        /// Resolved world.
        world: World,
    },
    /// An `rle` run.
    Rle {
        /// Content identity of the session.
        key: SessionKey,
        /// Session id the request named.
        sid: String,
        /// Resolved level.
        level: Level,
        /// Resolved world.
        world: World,
    },
    /// A `stats` snapshot (schema-checked, not byte-checked).
    Stats,
}

impl ReqKind {
    /// The verb this counts under.
    pub fn verb(&self) -> Verb {
        match self {
            ReqKind::Load { .. } => Verb::Load,
            ReqKind::Alias { .. } => Verb::Alias,
            ReqKind::Pairs { .. } => Verb::Pairs,
            ReqKind::Rle { .. } => Verb::Rle,
            ReqKind::Stats => Verb::Stats,
        }
    }
}

/// One generated request: the wire line plus its checkable identity.
#[derive(Debug, Clone)]
pub struct GenReq {
    /// The request line (no newline).
    pub line: String,
    /// What it was.
    pub kind: ReqKind,
}

/// A seeded generator of mixed protocol traffic over several contents.
///
/// The generator starts by loading contents (it cannot query before it
/// holds a session id) and then issues weighted mixed traffic. Levels
/// and worlds are chosen randomly, in randomly chosen wire spellings,
/// and are sometimes omitted so the server-side defaults get exercised
/// too.
pub struct WorkloadGen {
    rng: XorShift64,
    contents: Arc<Vec<Content>>,
    /// Sessions learned from load replies: `(sid, content index)`.
    sessions: Vec<(String, usize)>,
    /// Next content to load (round-robin so every content gets a session).
    next_load: usize,
}

/// Verb weights out of 100: load, alias, pairs, rle, stats.
const WEIGHTS: [(Verb, u64); 5] = [
    (Verb::Load, 8),
    (Verb::Alias, 57),
    (Verb::Pairs, 12),
    (Verb::Rle, 8),
    (Verb::Stats, 15),
];

impl WorkloadGen {
    /// A generator over `contents`, deterministic per `seed`.
    pub fn new(seed: u64, contents: Arc<Vec<Content>>) -> Self {
        assert!(!contents.is_empty(), "workload needs at least one content");
        WorkloadGen {
            rng: XorShift64::new(seed),
            contents,
            sessions: Vec::new(),
            next_load: 0,
        }
    }

    /// Registers a session id learned from a `load` reply so subsequent
    /// queries can target it.
    pub fn observe_load(&mut self, key: &SessionKey, sid: &str) {
        let idx = self
            .contents
            .iter()
            .position(|c| &c.key() == key)
            .expect("load reply for an unknown content");
        if !self.sessions.iter().any(|(s, i)| s == sid && *i == idx) {
            self.sessions.push((sid.to_string(), idx));
        }
    }

    fn pick_level_world(&mut self) -> (Level, World, Option<&'static str>, Option<&'static str>) {
        // Several wire spellings per level; None = rely on the default.
        const LEVELS: [(&str, Level); 6] = [
            ("typedecl", Level::TypeDecl),
            ("TypeDecl", Level::TypeDecl),
            ("fields", Level::FieldTypeDecl),
            ("FieldTypeDecl", Level::FieldTypeDecl),
            ("merges", Level::SmFieldTypeRefs),
            ("SMFieldTypeRefs", Level::SmFieldTypeRefs),
        ];
        let (level_str, level) = if self.rng.chance(1, 4) {
            (None, proto::DEFAULT_LEVEL)
        } else {
            let (s, l) = *self.rng.pick(&LEVELS);
            (Some(s), l)
        };
        let (world_str, world) = if self.rng.chance(1, 3) {
            (None, proto::DEFAULT_WORLD)
        } else if self.rng.chance(1, 2) {
            (Some("closed"), World::Closed)
        } else {
            (Some("open"), World::Open)
        };
        (level, world, level_str, world_str)
    }

    fn query_line(
        op: &str,
        sid: &str,
        level: Option<&str>,
        world: Option<&str>,
        extra: Vec<(&str, Value)>,
    ) -> String {
        let mut fields = vec![
            ("op", Value::Str(op.into())),
            ("session", Value::Str(sid.into())),
        ];
        if let Some(l) = level {
            fields.push(("level", Value::Str(l.into())));
        }
        if let Some(w) = world {
            fields.push(("world", Value::Str(w.into())));
        }
        fields.extend(extra);
        Value::object(fields).encode()
    }

    /// Generates the next request. `oracle` supplies the addressable
    /// paths for alias queries.
    pub fn next(&mut self, oracle: &Oracle) -> GenReq {
        // Load each content once before mixing traffic.
        if self.sessions.len() < self.contents.len() && self.next_load < self.contents.len() {
            let content = &self.contents[self.next_load];
            self.next_load += 1;
            return GenReq {
                line: content.load_line(),
                kind: ReqKind::Load { key: content.key() },
            };
        }
        let roll = self.rng.below(100);
        let mut acc = 0;
        let mut verb = Verb::Alias;
        for (v, w) in WEIGHTS {
            acc += w;
            if roll < acc {
                verb = v;
                break;
            }
        }
        if self.sessions.is_empty() {
            verb = Verb::Load;
        }
        match verb {
            Verb::Load => {
                let content = self.rng.pick(&self.contents).clone();
                GenReq {
                    line: content.load_line(),
                    kind: ReqKind::Load { key: content.key() },
                }
            }
            Verb::Stats => GenReq {
                line: r#"{"op":"stats"}"#.to_string(),
                kind: ReqKind::Stats,
            },
            Verb::Alias => {
                let (sid, idx) = self.rng.pick(&self.sessions).clone();
                let key = self.contents[idx].key();
                let (level, world, level_str, world_str) = self.pick_level_world();
                let paths = oracle.paths(&key);
                let n_pairs = 1 + self.rng.index(4);
                let pairs: Vec<(String, String)> = (0..n_pairs)
                    .map(|_| {
                        (
                            self.rng.pick(&paths).clone(),
                            self.rng.pick(&paths).clone(),
                        )
                    })
                    .collect();
                let line = Self::query_line(
                    "alias",
                    &sid,
                    level_str,
                    world_str,
                    vec![(
                        "pairs",
                        Value::Array(
                            pairs
                                .iter()
                                .map(|(a, b)| {
                                    Value::Array(vec![
                                        Value::Str(a.as_str().into()),
                                        Value::Str(b.as_str().into()),
                                    ])
                                })
                                .collect(),
                        ),
                    )],
                );
                GenReq {
                    line,
                    kind: ReqKind::Alias {
                        key,
                        sid,
                        level,
                        world,
                        pairs,
                    },
                }
            }
            Verb::Pairs => {
                let (sid, idx) = self.rng.pick(&self.sessions).clone();
                let key = self.contents[idx].key();
                let (level, world, level_str, world_str) = self.pick_level_world();
                GenReq {
                    line: Self::query_line("pairs", &sid, level_str, world_str, vec![]),
                    kind: ReqKind::Pairs {
                        key,
                        sid,
                        level,
                        world,
                    },
                }
            }
            Verb::Rle => {
                let (sid, idx) = self.rng.pick(&self.sessions).clone();
                let key = self.contents[idx].key();
                let (level, world, level_str, world_str) = self.pick_level_world();
                GenReq {
                    line: Self::query_line("rle", &sid, level_str, world_str, vec![]),
                    kind: ReqKind::Rle {
                        key,
                        sid,
                        level,
                        world,
                    },
                }
            }
        }
    }
}

// ---- oracle ----------------------------------------------------------------

/// Load-reply facts the oracle can predict.
struct ProgramFacts {
    funcs: usize,
    instrs: usize,
    heap_refs: usize,
    /// Addressable access paths, sorted (the generator draws from this).
    paths: Vec<String>,
}

/// A compiled program plus the *naive* analysis at one `(level, world)`.
struct Analyzed {
    program: Program,
    analysis: Tbaa,
    path_ids: HashMap<String, ApId>,
}

/// The in-process ground truth, built entirely through the facade
/// [`Pipeline`](tbaa_repro::Pipeline).
///
/// Everything is memoized per content / `(content, level, world)`, so a
/// soak of millions of requests compiles each configuration once — the
/// same compile-once discipline as the daemon, arrived at independently.
pub struct Oracle {
    sources: HashMap<SessionKey, String>,
    facts: Memo<SessionKey, ProgramFacts>,
    analyzed: Memo<(SessionKey, Level, World), Analyzed>,
    rle: Memo<(SessionKey, Level, World), RleStats>,
}

impl Oracle {
    /// An oracle over the given contents. Panics on unknown benchmark
    /// names (the workload would be meaningless).
    pub fn new(contents: &[Content]) -> Self {
        let mut sources = HashMap::new();
        for c in contents {
            sources.insert(c.key(), c.source().expect("workload content resolves"));
        }
        Oracle {
            sources,
            facts: Memo::new(),
            analyzed: Memo::new(),
            rle: Memo::new(),
        }
    }

    fn source(&self, key: &SessionKey) -> &str {
        self.sources
            .get(key)
            .unwrap_or_else(|| panic!("oracle was not built over {}", key.display()))
    }

    fn facts(&self, key: &SessionKey) -> Arc<ProgramFacts> {
        self.facts.get_or_build(key.clone(), || {
            let result = Pipeline::new(self.source(key))
                .run()
                .expect("workload content compiles");
            let mut paths: Vec<String> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for (_f, ap, _is_store) in result.program.heap_ref_sites() {
                let p = pretty::access_path(&result.program, ap);
                if seen.insert(p.clone()) {
                    paths.push(p);
                }
            }
            paths.sort_unstable();
            ProgramFacts {
                funcs: result.program.funcs.len(),
                instrs: result.program.instr_count(),
                heap_refs: result.program.heap_ref_sites().len(),
                paths,
            }
        })
    }

    fn analyzed(&self, key: &SessionKey, level: Level, world: World) -> Arc<Analyzed> {
        self.analyzed
            .get_or_build((key.clone(), level, world), || {
                let result = Pipeline::new(self.source(key))
                    .level(level)
                    .world(world)
                    .run()
                    .expect("workload content compiles");
                let mut path_ids = HashMap::new();
                for (_f, ap, _is_store) in result.program.heap_ref_sites() {
                    path_ids
                        .entry(pretty::access_path(&result.program, ap))
                        .or_insert(ap);
                }
                Analyzed {
                    program: result.program,
                    analysis: result.analysis,
                    path_ids,
                }
            })
    }

    fn rle_stats(&self, key: &SessionKey, level: Level, world: World) -> Arc<RleStats> {
        self.rle.get_or_build((key.clone(), level, world), || {
            let result = Pipeline::new(self.source(key))
                .level(level)
                .world(world)
                .optimize(OptOptions::builder().rle(true).build())
                .run()
                .expect("workload content compiles");
            result.report.rle
        })
    }

    /// The addressable access paths of a content, sorted.
    pub fn paths(&self, key: &SessionKey) -> Vec<String> {
        self.facts(key).paths.clone()
    }

    /// The naive-analysis alias verdicts for a pair batch.
    pub fn alias_verdicts(
        &self,
        key: &SessionKey,
        level: Level,
        world: World,
        pairs: &[(String, String)],
    ) -> Vec<bool> {
        let a = self.analyzed(key, level, world);
        pairs
            .iter()
            .map(|(p, q)| {
                let (Some(&x), Some(&y)) = (a.path_ids.get(p), a.path_ids.get(q)) else {
                    panic!("workload generated an unknown path: {p} / {q}");
                };
                a.analysis.may_alias(&a.program.aps, x, y)
            })
            .collect()
    }

    /// The exact reply bytes the daemon must produce for an `alias`.
    pub fn expected_alias_reply(
        &self,
        sid: &str,
        key: &SessionKey,
        level: Level,
        world: World,
        pairs: &[(String, String)],
    ) -> String {
        let results = self
            .alias_verdicts(key, level, world, pairs)
            .into_iter()
            .map(Value::Bool)
            .collect();
        ok_reply(vec![
            ("session", Value::Str(sid.into())),
            ("level", Value::Str(proto::level_name(level).into())),
            ("world", Value::Str(proto::world_name(world).into())),
            ("results", Value::Array(results)),
        ])
        .encode()
    }

    /// The exact reply bytes the daemon must produce for a `pairs`.
    pub fn expected_pairs_reply(
        &self,
        sid: &str,
        key: &SessionKey,
        level: Level,
        world: World,
    ) -> String {
        let a = self.analyzed(key, level, world);
        let counts = count_alias_pairs(&a.program, &a.analysis);
        ok_reply(vec![
            ("session", Value::Str(sid.into())),
            ("level", Value::Str(proto::level_name(level).into())),
            ("world", Value::Str(proto::world_name(world).into())),
            ("references", Value::Int(counts.references as i64)),
            ("local_pairs", Value::Int(counts.local_pairs as i64)),
            ("global_pairs", Value::Int(counts.global_pairs as i64)),
        ])
        .encode()
    }

    /// The exact reply bytes the daemon must produce for an `rle`.
    pub fn expected_rle_reply(
        &self,
        sid: &str,
        key: &SessionKey,
        level: Level,
        world: World,
    ) -> String {
        let stats = self.rle_stats(key, level, world);
        ok_reply(vec![
            ("session", Value::Str(sid.into())),
            ("level", Value::Str(proto::level_name(level).into())),
            ("world", Value::Str(proto::world_name(world).into())),
            ("hoisted", Value::Int(stats.hoisted as i64)),
            ("eliminated", Value::Int(stats.eliminated as i64)),
            ("removed", Value::Int(stats.removed() as i64)),
        ])
        .encode()
    }
}

// ---- differential checker --------------------------------------------------

/// How a checked reply came out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Reply matched the oracle.
    Ok,
    /// A `load` reply matched; the session id to query with.
    Loaded {
        /// The session id from the reply.
        sid: String,
    },
    /// Reply diverged from the oracle (details recorded).
    Mismatch,
}

/// Compares daemon replies byte-for-byte against [`Oracle`] answers.
///
/// Shared across client threads (`Arc<DiffChecker>`): counters are
/// atomic, the first few mismatch details are kept for the report.
pub struct DiffChecker {
    oracle: Oracle,
    /// sid → content identity, learned from load replies. A sid must
    /// never denote two different contents.
    sids: Mutex<HashMap<String, SessionKey>>,
    checked: AtomicU64,
    mismatches: AtomicU64,
    details: Mutex<Vec<String>>,
}

/// How many mismatch details to keep verbatim.
const DETAIL_CAP: usize = 8;

impl DiffChecker {
    /// A checker over the given contents.
    pub fn new(contents: &[Content]) -> Self {
        DiffChecker {
            oracle: Oracle::new(contents),
            sids: Mutex::new(HashMap::new()),
            checked: AtomicU64::new(0),
            mismatches: AtomicU64::new(0),
            details: Mutex::new(Vec::new()),
        }
    }

    /// The oracle (for path lookups during generation).
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Replies checked so far.
    pub fn checked(&self) -> u64 {
        self.checked.load(Ordering::Relaxed)
    }

    /// Byte mismatches observed so far.
    pub fn mismatches(&self) -> u64 {
        self.mismatches.load(Ordering::Relaxed)
    }

    /// The first few mismatch details.
    pub fn details(&self) -> Vec<String> {
        self.details.lock().expect("details poisoned").clone()
    }

    /// Every `(sid, key)` binding learned from load replies so far.
    /// Crash-restart harnesses replay these after a recovery: a daemon
    /// that restored its journal must answer a re-`load` of `key` with
    /// one of the sids previously learned for it, never a stranger's.
    pub fn known_sids(&self) -> Vec<(String, SessionKey)> {
        self.sids
            .lock()
            .expect("sids poisoned")
            .iter()
            .map(|(sid, key)| (sid.clone(), key.clone()))
            .collect()
    }

    fn fail(&self, detail: String) -> CheckOutcome {
        self.mismatches.fetch_add(1, Ordering::Relaxed);
        let mut d = self.details.lock().expect("details poisoned");
        if d.len() < DETAIL_CAP {
            d.push(detail);
        }
        CheckOutcome::Mismatch
    }

    /// Checks one reply line against the oracle.
    pub fn check(&self, kind: &ReqKind, raw: &str) -> CheckOutcome {
        self.checked.fetch_add(1, Ordering::Relaxed);
        match kind {
            ReqKind::Load { key } => self.check_load(key, raw),
            ReqKind::Alias {
                key,
                sid,
                level,
                world,
                pairs,
            } => {
                let want = self
                    .oracle
                    .expected_alias_reply(sid, key, *level, *world, pairs);
                if raw == want {
                    CheckOutcome::Ok
                } else {
                    self.fail(format!("alias reply diverged:\n  got  {raw}\n  want {want}"))
                }
            }
            ReqKind::Pairs {
                key,
                sid,
                level,
                world,
            } => {
                let want = self.oracle.expected_pairs_reply(sid, key, *level, *world);
                if raw == want {
                    CheckOutcome::Ok
                } else {
                    self.fail(format!("pairs reply diverged:\n  got  {raw}\n  want {want}"))
                }
            }
            ReqKind::Rle {
                key,
                sid,
                level,
                world,
            } => {
                let want = self.oracle.expected_rle_reply(sid, key, *level, *world);
                if raw == want {
                    CheckOutcome::Ok
                } else {
                    self.fail(format!("rle reply diverged:\n  got  {raw}\n  want {want}"))
                }
            }
            ReqKind::Stats => self.check_stats(raw),
        }
    }

    /// `load` replies embed nondeterministic fields (`session` numbering
    /// depends on global load order, `cached` on who got there first),
    /// so they are checked field-by-field against the oracle's compile
    /// instead of byte-for-byte.
    fn check_load(&self, key: &SessionKey, raw: &str) -> CheckOutcome {
        let v = match parse(raw) {
            Ok(v) => v,
            Err(e) => return self.fail(format!("load reply is not JSON ({e}): {raw}")),
        };
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            return self.fail(format!("load of {} failed: {raw}", key.display()));
        }
        let facts = self.oracle.facts(key);
        let sid = v
            .get("session")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        if sid.is_empty() {
            return self.fail(format!("load reply without session id: {raw}"));
        }
        if v.get("key").and_then(Value::as_str) != Some(&key.display()) {
            return self.fail(format!(
                "load reply key mismatch (want {}): {raw}",
                key.display()
            ));
        }
        for (field, want) in [
            ("funcs", facts.funcs as i64),
            ("instrs", facts.instrs as i64),
            ("heap_refs", facts.heap_refs as i64),
        ] {
            if v.get(field).and_then(Value::as_i64) != Some(want) {
                return self.fail(format!(
                    "load reply `{field}` diverged (oracle says {want}): {raw}"
                ));
            }
        }
        if v.get("cached").and_then(Value::as_bool).is_none() {
            return self.fail(format!("load reply without `cached`: {raw}"));
        }
        // A session id must be stable per content: two different
        // contents answering with the same sid means the store served a
        // stale or crossed session.
        let crossed = {
            let mut sids = self.sids.lock().expect("sids poisoned");
            match sids.get(&sid) {
                Some(prev) if prev != key => Some(prev.display()),
                _ => {
                    sids.insert(sid.clone(), key.clone());
                    None
                }
            }
        };
        if let Some(prev) = crossed {
            return self.fail(format!(
                "session id {sid} served for both {prev} and {}",
                key.display()
            ));
        }
        CheckOutcome::Loaded { sid }
    }

    /// `stats` replies are nondeterministic; validate shape, not bytes.
    fn check_stats(&self, raw: &str) -> CheckOutcome {
        let v = match parse(raw) {
            Ok(v) => v,
            Err(e) => return self.fail(format!("stats reply is not JSON ({e}): {raw}")),
        };
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            return self.fail(format!("stats failed: {raw}"));
        }
        let has_counters = v
            .get("stats")
            .and_then(|s| s.get("counters"))
            .map(|c| matches!(c, Value::Object(_)))
            .unwrap_or(false);
        let has_sessions = v
            .get("sessions")
            .and_then(|s| s.get("live"))
            .and_then(Value::as_i64)
            .is_some();
        if !has_counters || !has_sessions {
            return self.fail(format!("stats reply missing counters/sessions: {raw}"));
        }
        CheckOutcome::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_per_seed() {
        let contents = Arc::new(vec![Content::Bench {
            name: "ktree".into(),
            scale: 1,
        }]);
        let oracle = Oracle::new(&contents);
        let run = |seed| {
            let mut g = WorkloadGen::new(seed, contents.clone());
            let mut lines = Vec::new();
            for i in 0..20 {
                let req = g.next(&oracle);
                if let ReqKind::Load { key } = &req.kind {
                    let sid = format!("s{}", i % 2 + 1);
                    g.observe_load(key, &sid);
                }
                lines.push(req.line);
            }
            lines
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds take different paths");
    }

    #[test]
    fn mutate_corpus_is_distinct_deterministic_and_compiles() {
        let contents = mutate_contents(7, 10);
        assert_eq!(contents.len(), 10);
        let keys: std::collections::HashSet<String> =
            contents.iter().map(|c| c.key().display()).collect();
        assert_eq!(keys.len(), 10, "every version is a distinct content");
        let again = mutate_contents(7, 10);
        for (a, b) in contents.iter().zip(&again) {
            assert_eq!(a.source().unwrap(), b.source().unwrap(), "seeded = reproducible");
        }
        // The oracle machinery must accept every version: compile each
        // one and demand addressable paths for the alias generator.
        let oracle = Oracle::new(&contents);
        for c in &contents {
            assert!(
                !oracle.paths(&c.key()).is_empty(),
                "mutate program exposes heap paths"
            );
        }
    }

    #[test]
    fn mutate_corpus_exercises_the_incremental_path() {
        use tbaa_incr::IncrCompiler;
        let contents = mutate_contents(42, 12);
        let incr = IncrCompiler::new();
        let mut hits = 0;
        let mut full_misses = 0;
        for c in &contents {
            let (program, report) = incr.compile(&c.source().unwrap());
            assert!(program.is_ok(), "every mutate version compiles");
            hits += report.func_hits;
            if report.func_hits == 0 {
                full_misses += 1;
            } else {
                // A localized edit replays all but the edited unit.
                assert_eq!(
                    report.func_misses, 1,
                    "single-function edit re-lowers exactly one unit"
                );
            }
        }
        assert!(hits > 0, "superseding versions reuse cached units");
        assert!(
            full_misses >= 1,
            "the corpus includes at least the cold base version"
        );
    }

    #[test]
    fn checker_accepts_oracle_built_replies_and_rejects_flips() {
        let contents = vec![Content::Bench {
            name: "ktree".into(),
            scale: 1,
        }];
        let checker = DiffChecker::new(&contents);
        let key = contents[0].key();
        let paths = checker.oracle().paths(&key);
        let pairs = vec![(paths[0].clone(), paths[0].clone())];
        let kind = ReqKind::Alias {
            key: key.clone(),
            sid: "s1".into(),
            level: Level::SmFieldTypeRefs,
            world: World::Closed,
            pairs: pairs.clone(),
        };
        let good =
            checker
                .oracle()
                .expected_alias_reply("s1", &key, Level::SmFieldTypeRefs, World::Closed, &pairs);
        assert_eq!(checker.check(&kind, &good), CheckOutcome::Ok);
        // An identical path must alias itself, so the good reply says
        // true; flip it and the checker must object.
        let bad = good.replace("true", "false");
        assert_eq!(checker.check(&kind, &bad), CheckOutcome::Mismatch);
        assert_eq!(checker.mismatches(), 1);
        assert_eq!(checker.checked(), 2);
        assert!(!checker.details().is_empty());
    }
}
