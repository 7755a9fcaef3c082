//! Incremental-compilation differential: the function-granular cache in
//! `tbaa-incr` must be *invisible* in the daemon's output.
//!
//! Three proofs, in the counter-walk style of the server's `lru_churn`
//! suite (one sequential connection → fully deterministic counters):
//!
//! * **Byte identity across an edit corpus** — a seeded sequence of
//!   superseding program versions (mostly single-function edits, with
//!   whole-program rewrites mixed in) is loaded and queried at every
//!   analysis level and world assumption; every `alias`/`pairs`/`rle`
//!   reply must match the from-scratch `Pipeline` oracle byte-for-byte,
//!   and the `incr.*` counters must account for every unit walked.
//! * **Exact `n−1` reuse** — a superseding load that differs from its
//!   predecessor in exactly one function takes every other unit from
//!   cache: `incr.func_hits` advances by exactly `n−1` and
//!   `incr.func_misses` by exactly 1 — also when the edit changes that
//!   function's effects (a new access path shifts every module id after
//!   it; the cached units are rebased, not re-lowered).
//! * **Eviction + reload is an all-hit rebuild** — the unit cache lives
//!   on the *store*, not the session, so recompiling a session the
//!   capacity-1 LRU evicted takes every unit from cache while still
//!   producing byte-exact replies. Every library-level program compared
//!   also passes `tbaa_ir::verify`.

use tbaa::analysis::Level;
use tbaa::World;
use tbaa_bench::load::{
    mutate_contents, CheckOutcome, Content, DiffChecker, LineSource, ReqKind, Wire, MUTATE_PROCS,
};
use tbaa_incr::IncrCompiler;
use tbaa_server::json::{parse, Value};
use tbaa_server::{Server, ServerConfig};

fn counter(stats: &Value, name: &str) -> i64 {
    stats
        .get("stats")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_i64)
        .unwrap_or(0)
}

struct Driver {
    writer: Wire,
    src: LineSource,
}

impl Driver {
    fn connect(addr: std::net::SocketAddr) -> Driver {
        let wire = Wire::connect_tcp(addr).expect("connect");
        let writer = wire.try_clone().expect("clone");
        Driver {
            writer,
            src: LineSource::new(wire),
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer.write_line(line).expect("send");
        self.src.read_line_blocking().expect("reply")
    }

    fn stats(&mut self) -> Value<'static> {
        let raw = self.request(r#"{"op":"stats"}"#);
        parse(&raw).expect("stats parses").into_owned()
    }

    /// Loads a content, byte-checks the reply, returns `(sid, cached)`.
    fn load(&mut self, content: &Content, checker: &DiffChecker) -> (String, bool) {
        let raw = self.request(&content.load_line());
        let kind = ReqKind::Load {
            key: content.key(),
        };
        let CheckOutcome::Loaded { sid } = checker.check(&kind, &raw) else {
            panic!("load failed: {raw}");
        };
        let cached = parse(&raw)
            .unwrap()
            .get("cached")
            .and_then(Value::as_bool)
            .unwrap();
        (sid, cached)
    }
}

const LEVELS: [(&str, Level); 3] = [
    ("typedecl", Level::TypeDecl),
    ("fields", Level::FieldTypeDecl),
    ("merges", Level::SmFieldTypeRefs),
];
const WORLDS: [(&str, World); 2] = [("closed", World::Closed), ("open", World::Open)];

/// Fires `alias`, `pairs`, and `rle` for every level × world against a
/// session and byte-checks each reply against the oracle.
fn sweep_queries(d: &mut Driver, checker: &DiffChecker, content: &Content, sid: &str) {
    let key = content.key();
    let paths = checker.oracle().paths(&key);
    let pairs = vec![
        (paths[0].clone(), paths[paths.len() / 2].clone()),
        (paths.last().unwrap().clone(), paths[0].clone()),
    ];
    for (level_str, level) in LEVELS {
        for (world_str, world) in WORLDS {
            let alias = format!(
                r#"{{"op":"alias","session":"{sid}","level":"{level_str}","world":"{world_str}","pairs":[["{}","{}"],["{}","{}"]]}}"#,
                pairs[0].0, pairs[0].1, pairs[1].0, pairs[1].1
            );
            let raw = d.request(&alias);
            let kind = ReqKind::Alias {
                key: key.clone(),
                sid: sid.to_string(),
                level,
                world,
                pairs: pairs.clone(),
            };
            assert!(
                matches!(checker.check(&kind, &raw), CheckOutcome::Ok),
                "alias diverged at {level_str}/{world_str}:\n{}",
                checker.details().join("\n")
            );
            for op in ["pairs", "rle"] {
                let line = format!(
                    r#"{{"op":"{op}","session":"{sid}","level":"{level_str}","world":"{world_str}"}}"#
                );
                let raw = d.request(&line);
                let kind = match op {
                    "pairs" => ReqKind::Pairs {
                        key: key.clone(),
                        sid: sid.to_string(),
                        level,
                        world,
                    },
                    _ => ReqKind::Rle {
                        key: key.clone(),
                        sid: sid.to_string(),
                        level,
                        world,
                    },
                };
                assert!(
                    matches!(checker.check(&kind, &raw), CheckOutcome::Ok),
                    "{op} diverged at {level_str}/{world_str}:\n{}",
                    checker.details().join("\n")
                );
            }
        }
    }
}

/// The seeded edit corpus, loaded version by version: every reply at
/// every level/world must be byte-identical to the from-scratch oracle,
/// and the incremental counters must account for every unit exactly.
#[test]
fn edit_corpus_is_byte_identical_at_every_level_and_world() {
    const VERSIONS: usize = 6;
    let contents = mutate_contents(11, VERSIONS);
    let checker = DiffChecker::new(&contents);

    let handle = Server::bind(ServerConfig::builder().build())
        .expect("bind")
        .spawn();
    let mut d = Driver::connect(handle.addr());

    for content in &contents {
        let (sid, cached) = d.load(content, &checker);
        assert!(!cached, "every version is new content, so it compiles");
        sweep_queries(&mut d, &checker, content, &sid);
    }

    // Unit conservation: each of the `VERSIONS` compiles walked all
    // `MUTATE_PROCS + 1` units (the module body is one more unit), and
    // every walk classified each unit as exactly one of hit or miss.
    let s = d.stats();
    let hits = counter(&s, "incr.func_hits");
    let misses = counter(&s, "incr.func_misses");
    let units = (MUTATE_PROCS + 1) as i64;
    assert_eq!(
        hits + misses,
        VERSIONS as i64 * units,
        "every unit of every version classified"
    );
    assert!(hits > 0, "superseding versions reuse cached units");
    assert!(
        misses >= units,
        "the cold first version misses all {units} units"
    );
    assert_eq!(checker.mismatches(), 0, "{:?}", checker.details());

    handle.state().request_shutdown();
    handle.join().expect("clean shutdown");
}

/// The base program for the exact counter-walk: 3 procedures + the
/// module body = 4 units, with heap references so every query verb has
/// paths to chew on.
const WALK_BASE: &str = "MODULE Walk;

TYPE
  Box = OBJECT
    val: INTEGER;
    next: Box;
  END;

VAR
  head: Box;
  total: INTEGER;

PROCEDURE Mk (v: INTEGER): Box =
VAR b: Box;
BEGIN
  b := NEW(Box);
  b.val := v + 1;
  b.next := head;
  RETURN b;
END Mk;

PROCEDURE Grow (n: INTEGER) =
BEGIN
  FOR i := 1 TO n DO
    head := Mk(i);
  END;
END Grow;

PROCEDURE Tally (): INTEGER =
VAR b: Box; s: INTEGER;
BEGIN
  s := 0;
  b := head;
  WHILE b # NIL DO
    s := s + b.val;
    b := b.next;
  END;
  RETURN s;
END Tally;

BEGIN
  head := NIL;
  Grow(8);
  total := Tally();
END Walk.
";

/// Units in [`WALK_BASE`]: three procedures plus the module body.
const WALK_UNITS: i64 = 4;

/// A superseding load differing in exactly one function advances
/// `incr.func_hits` by exactly `n−1` and `incr.func_misses` by exactly
/// 1 — and a session the capacity-1 LRU evicted rebuilds from cached
/// units alone, because the unit cache belongs to the store, not the
/// session.
#[test]
fn one_function_edit_reuses_n_minus_1_and_eviction_reload_is_all_hit() {
    let base = Content::Source {
        text: WALK_BASE.to_string(),
    };
    let edited = Content::Source {
        // A constant-only edit to `Mk`: only that unit's text changes.
        text: WALK_BASE.replace("b.val := v + 1;", "b.val := v + 2;"),
    };
    assert_ne!(base.key(), edited.key(), "the edit must change the content");
    let contents = vec![base.clone(), edited.clone()];
    let checker = DiffChecker::new(&contents);

    let handle = Server::bind(ServerConfig::builder().session_capacity(1).build())
        .expect("bind")
        .spawn();
    let mut d = Driver::connect(handle.addr());

    // Cold load: every unit misses.
    let (sid_base, cached) = d.load(&base, &checker);
    assert!(!cached);
    let s = d.stats();
    assert_eq!(counter(&s, "incr.func_hits"), 0, "cold compile has no hits");
    assert_eq!(counter(&s, "incr.func_misses"), WALK_UNITS);
    sweep_queries(&mut d, &checker, &base, &sid_base);

    // Superseding load of the one-function edit (evicts the base session
    // at capacity 1): exactly n−1 hits, exactly 1 miss.
    let (sid_edit, cached) = d.load(&edited, &checker);
    assert!(!cached, "new content compiles");
    let s = d.stats();
    assert_eq!(
        counter(&s, "incr.func_hits"),
        WALK_UNITS - 1,
        "a one-function edit reuses every other unit"
    );
    assert_eq!(
        counter(&s, "incr.func_misses"),
        WALK_UNITS + 1,
        "only the edited unit re-lowers"
    );
    assert_eq!(counter(&s, "sessions.evictions"), 1, "capacity-1 store");
    sweep_queries(&mut d, &checker, &edited, &sid_edit);

    // Reload the evicted base: the *session* is gone (fresh id, a real
    // recompile), but every one of its units is still in the store-level
    // cache — the rebuild is all hits.
    let (sid_base2, cached) = d.load(&base, &checker);
    assert!(!cached, "evicted session must recompile, not hit");
    assert_ne!(sid_base2, sid_base, "recompiled session gets a fresh id");
    let s = d.stats();
    assert_eq!(
        counter(&s, "incr.func_hits"),
        (WALK_UNITS - 1) + WALK_UNITS,
        "eviction+reload takes all {WALK_UNITS} units from cache"
    );
    assert_eq!(
        counter(&s, "incr.func_misses"),
        WALK_UNITS + 1,
        "no new lowering work on reload"
    );
    assert_eq!(counter(&s, "sessions.compiles"), 3);
    sweep_queries(&mut d, &checker, &base, &sid_base2);

    assert_eq!(checker.mismatches(), 0, "{:?}", checker.details());

    handle.state().request_shutdown();
    handle.join().expect("clean shutdown");
}

/// An edit that changes one function's effects — `Mk`, the first unit,
/// now interns a new access path, `head.val`, which shifts every path id
/// the later units use — still re-lowers only `Mk`: the other `n−1` units
/// are absorbed from cache and rebased, and every reply stays
/// byte-identical to the from-scratch oracle.
#[test]
fn effect_changing_edit_relowers_only_that_unit_through_the_daemon() {
    let base = Content::Source {
        text: WALK_BASE.to_string(),
    };
    let edited = Content::Source {
        text: WALK_BASE.replace(
            "b.next := head;",
            "b.next := head;\n  IF head # NIL THEN b.val := head.val END;",
        ),
    };
    assert_ne!(base.key(), edited.key(), "the edit must change the content");
    let contents = vec![base.clone(), edited.clone()];
    let checker = DiffChecker::new(&contents);

    let handle = Server::bind(ServerConfig::builder().build())
        .expect("bind")
        .spawn();
    let mut d = Driver::connect(handle.addr());

    let (sid_base, _) = d.load(&base, &checker);
    sweep_queries(&mut d, &checker, &base, &sid_base);
    let (sid_edit, cached) = d.load(&edited, &checker);
    assert!(!cached, "new content compiles");
    let s = d.stats();
    assert_eq!(
        counter(&s, "incr.func_hits"),
        WALK_UNITS - 1,
        "every unit but the edited one comes from cache"
    );
    assert_eq!(
        counter(&s, "incr.func_misses"),
        WALK_UNITS + 1,
        "the cold load, then only the edited unit"
    );
    sweep_queries(&mut d, &checker, &edited, &sid_edit);
    assert_eq!(checker.mismatches(), 0, "{:?}", checker.details());

    handle.state().request_shutdown();
    handle.join().expect("clean shutdown");
}

/// Library-level spot check riding the same corpus: the incremental
/// compiler's output must be *identical* (pretty-printed IR fingerprint)
/// to a from-scratch lowering for every seeded version — hits or not.
#[test]
fn incremental_programs_fingerprint_identical_to_fresh() {
    for seed in [3u64, 11, 42] {
        let incr = IncrCompiler::new();
        for content in mutate_contents(seed, 8) {
            let source = content.source().expect("mutate source resolves");
            let (program, _report) = incr.compile(&source);
            let program = program.expect("mutate version compiles");
            let fresh = tbaa_ir::compile_to_ir(&source).expect("fresh compile");
            tbaa_ir::verify(&program).expect("incremental program verifies");
            assert_eq!(
                tbaa_ir::pretty::program(&program),
                tbaa_ir::pretty::program(&fresh),
                "seed {seed}: incremental output diverged from fresh"
            );
        }
    }
}
