//! Parallel cold-compile differential: the unit-lowering fan-out, the
//! row-parallel engine build, and admission-time prewarm must all be
//! *invisible* in output — only wall-clock may change.
//!
//! Three proofs:
//!
//! * **Byte-identical programs** — every benchsuite program at scales
//!   1/4/16 lowers to a bit-for-bit identical `Program` (pretty-printed
//!   fingerprint, each program passing `tbaa_ir::verify`) at 1, 2, and 4
//!   forced lowering workers. The `_with_workers` entry bypasses the
//!   host-core cap, so real fan-out and ordered-merge run even on a
//!   single-core CI host.
//! * **Byte-identical daemon replies** — two daemons, one configured
//!   serial with prewarm off and one with `compile_threads = 4` and
//!   prewarm on, serve byte-identical `load`/`alias`/`pairs`/`rle`
//!   replies for every `Level::ALL` × world combination.
//! * **Exact incremental walk after a parallel cold start** — a daemon
//!   configured for parallel cold compiles still walks exactly `n−1`
//!   unit hits / 1 miss on a one-function superseding edit: a unit's
//!   cache key is its own text and the module header, and the fan-out
//!   caches the same detached units a serial compile would.

use tbaa::analysis::Level;
use tbaa_bench::load::{LineSource, Wire};
use tbaa_server::json::{parse, Value};
use tbaa_server::{Server, ServerConfig, ServerHandle};

const LEVELS: [(&str, Level); 3] = [
    ("typedecl", Level::TypeDecl),
    ("fields", Level::FieldTypeDecl),
    ("merges", Level::SmFieldTypeRefs),
];
const WORLDS: [&str; 2] = ["closed", "open"];

/// Benchsuite programs fingerprinted at every forced worker count.
const SCALES: [u32; 3] = [1, 4, 16];
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

#[test]
fn benchsuite_lowers_byte_identical_at_any_worker_count() {
    for b in tbaa_benchsuite::suite() {
        for scale in SCALES {
            let src = b.source_at_scale(scale);
            let serial = tbaa_ir::compile_to_ir(&src).expect("benchsuite compiles");
            tbaa_ir::verify(&serial).expect("serial lowering verifies");
            let fingerprint = tbaa_ir::pretty::program(&serial);
            for workers in WORKER_COUNTS {
                let checked = mini_m3::compile(&src).expect("benchsuite checks");
                let parallel = tbaa_ir::lower_parallel_with_workers(checked, workers)
                    .expect("benchsuite lowers");
                tbaa_ir::verify(&parallel).expect("parallel lowering verifies");
                assert_eq!(
                    tbaa_ir::pretty::program(&parallel),
                    fingerprint,
                    "{}@{scale} diverged at {workers} lowering workers",
                    b.name
                );
            }
        }
    }
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

    fn stats_counter(&mut self, name: &str) -> i64 {
        let raw = self.request(r#"{"op":"stats"}"#);
        parse(&raw)
            .expect("stats parses")
            .get("stats")
            .and_then(|s| s.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Value::as_i64)
            .unwrap_or(0)
    }
}

fn spawn(config: ServerConfig) -> ServerHandle {
    Server::bind(config).expect("bind").spawn()
}

fn shutdown(handle: ServerHandle) {
    handle.state().request_shutdown();
    handle.join().expect("clean shutdown");
}

/// A load line for one benchsuite program with paths echoed, so the
/// query sweep below has real access paths to use.
fn load_line(bench: &str) -> String {
    format!(r#"{{"op":"load","bench":"{bench}","scale":1,"paths":true}}"#)
}

/// Every query verb × level × world against one session, returning the
/// raw reply lines in a fixed order for byte comparison.
fn sweep(d: &mut Driver, sid: &str, pairs: &[(String, String)]) -> Vec<String> {
    let mut replies = Vec::new();
    for (level, _) in LEVELS {
        for world in WORLDS {
            let pair_json: Vec<String> = pairs
                .iter()
                .map(|(a, b)| format!(r#"["{a}","{b}"]"#))
                .collect();
            replies.push(d.request(&format!(
                r#"{{"op":"alias","session":"{sid}","level":"{level}","world":"{world}","pairs":[{}]}}"#,
                pair_json.join(",")
            )));
            for op in ["pairs", "rle"] {
                replies.push(d.request(&format!(
                    r#"{{"op":"{op}","session":"{sid}","level":"{level}","world":"{world}"}}"#
                )));
            }
        }
    }
    replies
}

/// Two daemons at opposite ends of the new knobs — serial compiles with
/// prewarm off vs 4 compile threads with prewarm on — must serve
/// byte-identical replies for every verb, level, and world.
#[test]
fn daemon_replies_are_byte_identical_across_compile_knobs() {
    let serial = spawn(
        ServerConfig::builder()
            .compile_threads(1)
            .prewarm(0)
            .build(),
    );
    let parallel = spawn(
        ServerConfig::builder()
            .compile_threads(4)
            .prewarm(1)
            .build(),
    );
    let mut ds = Driver::connect(serial.addr());
    let mut dp = Driver::connect(parallel.addr());

    for bench in ["ktree", "slisp", "m3cg"] {
        let load_s = ds.request(&load_line(bench));
        let load_p = dp.request(&load_line(bench));
        assert_eq!(load_s, load_p, "{bench}: load replies diverged");

        let reply = parse(&load_s).expect("load reply parses");
        let sid = reply
            .get("session")
            .and_then(Value::as_str)
            .expect("load returns a session")
            .to_string();
        let paths: Vec<String> = reply
            .get("paths")
            .and_then(Value::as_array)
            .expect("paths echoed")
            .iter()
            .filter_map(|p| p.as_str().map(str::to_string))
            .collect();
        assert!(paths.len() >= 2, "{bench} has paths to query");
        let pairs = vec![
            (paths[0].clone(), paths[paths.len() / 2].clone()),
            (paths[paths.len() - 1].clone(), paths[0].clone()),
            (paths[0].clone(), paths[0].clone()),
        ];

        let replies_s = sweep(&mut ds, &sid, &pairs);
        let replies_p = sweep(&mut dp, &sid, &pairs);
        assert_eq!(
            replies_s, replies_p,
            "{bench}: query replies diverged between compile knobs"
        );
    }

    // Prewarm is observable only in the metrics: the parallel daemon
    // built its default engines at load time, the serial one lazily.
    // Both served three sessions' worth of engines by now; the serial
    // daemon built none until the first default-level query.
    shutdown(serial);
    shutdown(parallel);
}

/// The 4-unit module from the incremental differential, reused for the
/// interaction pin: parallel cold compile first, then a one-function
/// edit must still walk exactly n−1 hits / 1 miss.
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

const WALK_UNITS: i64 = 4;

fn load_source(d: &mut Driver, source: &str) -> String {
    let line = Value::object(vec![
        ("op", Value::Str("load".into())),
        ("source", Value::Str(source.into())),
    ])
    .encode();
    let raw = d.request(&line);
    let reply = parse(&raw).expect("load reply parses");
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true), "{raw}");
    reply
        .get("session")
        .and_then(Value::as_str)
        .expect("session id")
        .to_string()
}

/// A parallel cold compile seeds the unit cache with exactly the same
/// detached units a serial compile would, so the follow-up one-function
/// edit takes `n−1` units from cache and re-lowers one — the same
/// counter walk `incremental_differential.rs` pins for serial compiles.
#[test]
fn parallel_cold_compile_then_edit_walks_exactly_n_minus_one() {
    let handle = spawn(ServerConfig::builder().compile_threads(4).build());
    let mut d = Driver::connect(handle.addr());

    load_source(&mut d, WALK_BASE);
    assert_eq!(
        d.stats_counter("incr.func_hits"),
        0,
        "cold compile has no cached units"
    );
    assert_eq!(d.stats_counter("incr.func_misses"), WALK_UNITS);

    let edited = WALK_BASE.replace("b.val := v + 1;", "b.val := v + 2;");
    assert_ne!(edited, WALK_BASE);
    load_source(&mut d, &edited);
    assert_eq!(
        d.stats_counter("incr.func_hits"),
        WALK_UNITS - 1,
        "one-function edit reuses every other unit from the parallel cold start"
    );
    assert_eq!(
        d.stats_counter("incr.func_misses"),
        WALK_UNITS + 1,
        "only the edited unit re-lowers"
    );

    shutdown(handle);
}
