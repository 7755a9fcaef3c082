//! Differential soak for the `tbaa-router` front tier: a sharded
//! deployment must be byte-identical to the in-process `Pipeline`
//! oracle — the same property `tests/server_differential.rs` proves for
//! a single daemon, now through consistent hashing, session-id
//! rewriting, connection pooling, and pipelined proxying.
//!
//! The second test kills one backend mid-traffic and requires the
//! router to recover transparently: respawn the shard, re-`load` its
//! sessions from the content journal, and keep answering with the same
//! router-minted session ids — still byte-identical, zero divergences.

use std::sync::{Arc, Barrier};

use tbaa_bench::load::{CheckOutcome, Content, DiffChecker, LineSource, ReqKind, Wire, WorkloadGen};
use tbaa_repro::router::{BackendSpec, Router, RouterConfig, RouterHandle};
use tbaa_server::ServerConfig;

const CLIENTS: usize = 8;
const REQS_PER_CLIENT: usize = 100;

fn spawn_router(shards: usize) -> RouterHandle {
    let config = RouterConfig::builder()
        .addr("127.0.0.1:0")
        .shards(shards)
        .io_timeout(std::time::Duration::from_secs(30))
        .backend(BackendSpec::InProcess {
            config: ServerConfig::default(),
        })
        .build();
    Router::bind(config).expect("bind router").spawn()
}

#[test]
fn eight_clients_through_three_shard_router_byte_identical() {
    let contents: Arc<Vec<Content>> = Arc::new(vec![
        Content::Bench {
            name: "ktree".into(),
            scale: 1,
        },
        Content::Bench {
            name: "slisp".into(),
            scale: 1,
        },
        Content::Bench {
            name: "format".into(),
            scale: 1,
        },
    ]);
    let checker = Arc::new(DiffChecker::new(&contents));
    let handle = spawn_router(3);
    let addr = handle.addr();

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let checker = checker.clone();
            let contents = contents.clone();
            scope.spawn(move || {
                let wire = Wire::connect_tcp(addr).expect("connect");
                let mut writer = wire.try_clone().expect("clone socket");
                let mut src = LineSource::new(wire);
                let mut gen = WorkloadGen::new(0x5AAD + c as u64, contents);
                for _ in 0..REQS_PER_CLIENT {
                    let req = gen.next(checker.oracle());
                    writer.write_line(&req.line).expect("send");
                    let raw = src.read_line_blocking().expect("reply");
                    match checker.check(&req.kind, &raw) {
                        CheckOutcome::Loaded { sid } => {
                            if let ReqKind::Load { key } = &req.kind {
                                gen.observe_load(key, &sid);
                            }
                        }
                        CheckOutcome::Ok | CheckOutcome::Mismatch => {}
                    }
                }
            });
        }
    });

    assert_eq!(
        checker.mismatches(),
        0,
        "router diverged from the Pipeline oracle:\n{}",
        checker.details().join("\n")
    );
    assert_eq!(checker.checked(), (CLIENTS * REQS_PER_CLIENT) as u64);
    assert_eq!(handle.state().respawns(), 0, "no backend died in this test");

    handle.state().request_shutdown();
    handle.join().expect("router exits cleanly");
}

/// Kill one backend mid-traffic: the router must respawn it, replay the
/// journal, and keep every reply byte-identical under the *same*
/// router session ids. Zero divergences, ≥ 1 respawn.
#[test]
fn survives_backend_kill_with_respawn_and_journal_reload() {
    let contents: Arc<Vec<Content>> = Arc::new(vec![
        Content::Bench {
            name: "ktree".into(),
            scale: 1,
        },
        Content::Bench {
            name: "format".into(),
            scale: 1,
        },
    ]);
    let checker = Arc::new(DiffChecker::new(&contents));
    let handle = spawn_router(3);
    let addr = handle.addr();
    let state = handle.state().clone();

    // Preload every content so the journal has something to replay, and
    // record the router-minted session ids clients will keep using.
    let sids: Vec<String> = {
        let wire = Wire::connect_tcp(addr).expect("connect");
        let mut writer = wire.try_clone().expect("clone socket");
        let mut src = LineSource::new(wire);
        contents
            .iter()
            .map(|content| {
                writer.write_line(&content.load_line()).expect("send load");
                let raw = src.read_line_blocking().expect("load reply");
                let kind = ReqKind::Load {
                    key: content.key(),
                };
                let CheckOutcome::Loaded { sid } = checker.check(&kind, &raw) else {
                    panic!("preload failed: {raw}");
                };
                sid
            })
            .collect()
    };

    // The shard that owns the first content is the one we will murder.
    let victim = state.shard_of(&contents[0].key().display());

    const KILLER_CLIENTS: usize = 4;
    const ROUNDS: usize = 30;
    // Everyone rendezvouses after round 5, the killer strikes while the
    // clients hold at a second rendezvous, and only once the backend is
    // fully dead (`kill_backend` joins the drained server) do the
    // remaining 25 rounds flow. Without the second barrier the kill
    // races the clients: fast rounds can all complete inside the drain
    // grace window and the router never observes the death.
    let barrier = Arc::new(Barrier::new(KILLER_CLIENTS + 1));

    std::thread::scope(|scope| {
        {
            let barrier = barrier.clone();
            let state = state.clone();
            scope.spawn(move || {
                barrier.wait();
                state.kill_backend(victim);
                barrier.wait();
            });
        }
        for c in 0..KILLER_CLIENTS {
            let checker = checker.clone();
            let contents = contents.clone();
            let sids = sids.clone();
            let barrier = barrier.clone();
            scope.spawn(move || {
                let wire = Wire::connect_tcp(addr).expect("connect");
                let mut writer = wire.try_clone().expect("clone socket");
                let mut src = LineSource::new(wire);
                let mut rng = tbaa_bench::rng::XorShift64::new(0xDEAD + c as u64);
                for round in 0..ROUNDS {
                    if round == 5 {
                        barrier.wait(); // killer is about to strike
                        barrier.wait(); // backend is confirmed dead
                    }
                    let which = (round + c) % contents.len();
                    let content = &contents[which];
                    let key = content.key();
                    let sid = sids[which].clone();
                    let paths = checker.oracle().paths(&key);
                    let pairs = vec![(rng.pick(&paths).clone(), rng.pick(&paths).clone())];
                    let line = format!(
                        r#"{{"op":"alias","session":"{sid}","level":"merges","world":"closed","pairs":[["{}","{}"]]}}"#,
                        pairs[0].0, pairs[0].1
                    );
                    writer.write_line(&line).expect("send alias");
                    let raw = src.read_line_blocking().expect("alias reply");
                    let kind = ReqKind::Alias {
                        key: key.clone(),
                        sid,
                        level: tbaa::Level::SmFieldTypeRefs,
                        world: tbaa::World::Closed,
                        pairs,
                    };
                    assert!(
                        matches!(checker.check(&kind, &raw), CheckOutcome::Ok),
                        "reply diverged across backend death:\n{}",
                        checker.details().join("\n")
                    );
                }
            });
        }
    });

    assert_eq!(
        checker.mismatches(),
        0,
        "router diverged during recovery:\n{}",
        checker.details().join("\n")
    );
    assert!(
        state.respawns() >= 1,
        "the killed backend must have been respawned"
    );
    // Journal-less backends cannot self-recover, so every recovery here
    // went through the router's in-memory journal replay.
    let m = state.metrics();
    assert!(
        m.counter("router.recoveries.replayed").get() >= 1,
        "a journal-less respawn recovers via router-side replay"
    );
    assert_eq!(
        m.counter("router.recoveries.attached").get(),
        0,
        "nothing to attach to without a durable backend journal"
    );
    assert!(
        m.counter("router.journal_loads_replayed").get() >= 1,
        "the replay re-sent the victim shard's loads"
    );

    handle.state().request_shutdown();
    handle.join().expect("router exits cleanly");
}

/// A scratch journal directory, wiped on creation and on drop.
struct JournalDir(std::path::PathBuf);

impl JournalDir {
    fn new(tag: &str) -> JournalDir {
        let dir = std::env::temp_dir().join(format!("tbaa-rtr-jrn-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        JournalDir(dir)
    }
}

impl Drop for JournalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The journal-enabled kill variant — the recovery *seam*: when the
/// respawned backend self-recovers from its own durable journal, the
/// router must attach to it instead of re-sending its in-memory journal,
/// and must not double-count the backend's replayed loads as its own.
/// Same gates as above otherwise: zero divergences, same session ids.
#[test]
fn journaled_backend_self_recovers_and_router_attaches_without_replay() {
    let dir = JournalDir::new("kill");
    let contents: Arc<Vec<Content>> = Arc::new(vec![
        Content::Bench {
            name: "ktree".into(),
            scale: 1,
        },
        Content::Bench {
            name: "format".into(),
            scale: 1,
        },
    ]);
    let checker = Arc::new(DiffChecker::new(&contents));
    let config = RouterConfig::builder()
        .addr("127.0.0.1:0")
        .shards(3)
        .io_timeout(std::time::Duration::from_secs(30))
        .backend(BackendSpec::InProcess {
            config: ServerConfig::builder().journal_dir(&dir.0).build(),
        })
        .build();
    let handle = Router::bind(config).expect("bind router").spawn();
    let addr = handle.addr();
    let state = handle.state().clone();

    // Preload and remember the router-minted session ids.
    let sids: Vec<String> = {
        let wire = Wire::connect_tcp(addr).expect("connect");
        let mut writer = wire.try_clone().expect("clone socket");
        let mut src = LineSource::new(wire);
        contents
            .iter()
            .map(|content| {
                writer.write_line(&content.load_line()).expect("send load");
                let raw = src.read_line_blocking().expect("load reply");
                let kind = ReqKind::Load {
                    key: content.key(),
                };
                let CheckOutcome::Loaded { sid } = checker.check(&kind, &raw) else {
                    panic!("preload failed: {raw}");
                };
                sid
            })
            .collect()
    };

    let victim = state.shard_of(&contents[0].key().display());
    const KILLER_CLIENTS: usize = 4;
    const ROUNDS: usize = 30;
    let barrier = Arc::new(Barrier::new(KILLER_CLIENTS + 1));

    std::thread::scope(|scope| {
        {
            let barrier = barrier.clone();
            let state = state.clone();
            scope.spawn(move || {
                barrier.wait();
                state.kill_backend(victim);
                barrier.wait();
            });
        }
        for c in 0..KILLER_CLIENTS {
            let checker = checker.clone();
            let contents = contents.clone();
            let sids = sids.clone();
            let barrier = barrier.clone();
            scope.spawn(move || {
                let wire = Wire::connect_tcp(addr).expect("connect");
                let mut writer = wire.try_clone().expect("clone socket");
                let mut src = LineSource::new(wire);
                let mut rng = tbaa_bench::rng::XorShift64::new(0xBEEF + c as u64);
                for round in 0..ROUNDS {
                    if round == 5 {
                        barrier.wait(); // killer is about to strike
                        barrier.wait(); // backend is confirmed dead
                    }
                    let which = (round + c) % contents.len();
                    let content = &contents[which];
                    let key = content.key();
                    let sid = sids[which].clone();
                    let paths = checker.oracle().paths(&key);
                    let pairs = vec![(rng.pick(&paths).clone(), rng.pick(&paths).clone())];
                    let line = format!(
                        r#"{{"op":"alias","session":"{sid}","level":"merges","world":"closed","pairs":[["{}","{}"]]}}"#,
                        pairs[0].0, pairs[0].1
                    );
                    writer.write_line(&line).expect("send alias");
                    let raw = src.read_line_blocking().expect("alias reply");
                    let kind = ReqKind::Alias {
                        key: key.clone(),
                        sid,
                        level: tbaa::Level::SmFieldTypeRefs,
                        world: tbaa::World::Closed,
                        pairs,
                    };
                    assert!(
                        matches!(checker.check(&kind, &raw), CheckOutcome::Ok),
                        "reply diverged across backend death:\n{}",
                        checker.details().join("\n")
                    );
                }
            });
        }
    });

    assert_eq!(
        checker.mismatches(),
        0,
        "router diverged during journaled recovery:\n{}",
        checker.details().join("\n")
    );
    assert!(state.respawns() >= 1, "the killed backend respawned");
    let m = state.metrics();
    assert!(
        m.counter("router.recoveries.attached").get() >= 1,
        "a self-recovered backend must be attached to, not replayed at"
    );
    assert_eq!(
        m.counter("router.recoveries.replayed").get(),
        0,
        "the durable journal made router-side replay unnecessary"
    );
    assert_eq!(
        m.counter("router.journal_loads_replayed").get(),
        0,
        "the backend's own replayed loads must not be double-counted \
         as router retries"
    );

    handle.state().request_shutdown();
    handle.join().expect("router exits cleanly");
}

/// The router drains like a daemon: with an idle client connection and
/// a half-written request open, `join` returns within the router's
/// `drain_grace` plus a small slack. The router closes its pooled
/// backend connections first, so its in-process backends' much longer
/// grace windows are never waited out.
#[test]
fn router_drain_reaps_idle_and_half_written_clients() {
    use std::io::Write;
    use std::time::{Duration, Instant};
    const GRACE: Duration = Duration::from_millis(200);
    let config = RouterConfig::builder()
        .addr("127.0.0.1:0")
        .shards(2)
        .drain_grace(GRACE)
        .io_timeout(Duration::from_secs(30))
        .backend(BackendSpec::InProcess {
            config: ServerConfig::builder()
                .drain_grace(Duration::from_secs(30))
                .build(),
        })
        .build();
    let handle = Router::bind(config).expect("bind router").spawn();
    let wire = Wire::connect_tcp(handle.addr()).expect("connect");
    let mut idle = wire.try_clone().expect("clone socket");
    let mut src = LineSource::new(wire);
    idle.write_line(r#"{"op":"stats"}"#).expect("send stats");
    let raw = src.read_line_blocking().expect("stats reply");
    assert!(raw.contains(r#""ok":true"#), "{raw}");
    let mut half = Wire::connect_tcp(handle.addr()).expect("connect");
    half.write_all(br#"{"op":"stats""#).expect("half a request");
    let t0 = Instant::now();
    handle.state().request_shutdown();
    handle.join().expect("router drains and exits cleanly");
    let took = t0.elapsed();
    assert!(took < GRACE + Duration::from_secs(2), "router drain took {took:?}");
    assert!(src.read_line_blocking().is_err(), "the idle client sees EOF");
}

/// The router's merged `stats` sums each histogram's integer `count` and
/// `sum` over its shards, bucket for bucket — what perfbench and
/// `tbaa-loadgen` read through a router.
#[test]
fn merged_stats_sum_histograms_over_shards() {
    use tbaa_server::json::Value;
    use tbaa_server::Client;

    let handle = spawn_router(2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    for bench in ["ktree", "slisp", "format", "dformat"] {
        let load = client.load_bench_with(bench, 1, true).expect("load");
        let pair = (load.paths[0].clone(), load.paths[0].clone());
        client.alias(&load.session, None, None, &[pair]).expect("alias");
        client.pairs(&load.session, None, None).expect("pairs");
    }
    let merged = client.stats().expect("router stats").value;

    // Each shard's own view, fetched after the merge. A `stats` request
    // moves only `request_us` and `request_us.stats`, so every other
    // histogram must match the merge exactly.
    let shard_stats: Vec<Value<'static>> = merged
        .get("router")
        .and_then(|r| r.get("per_shard"))
        .and_then(Value::as_array)
        .expect("per_shard")
        .iter()
        .map(|s| {
            let addr = s.get("addr").and_then(Value::as_str).expect("shard addr");
            Client::connect(addr).expect("connect shard").stats().expect("shard stats").value
        })
        .collect();
    assert_eq!(shard_stats.len(), 2);
    let histograms = |v: &Value<'static>| -> Vec<(String, Value<'static>)> {
        match v.get("stats").and_then(|s| s.get("histograms")) {
            Some(Value::Object(items)) => items
                .iter()
                .map(|(k, h)| (k.to_string(), h.clone()))
                .collect(),
            _ => panic!("stats.histograms is an object"),
        }
    };
    let field = |h: &Value, f: &str| {
        h.get(f)
            .and_then(Value::as_i64)
            .unwrap_or_else(|| panic!("`{f}` must be an integer: {h:?}"))
    };
    let mut compared = 0;
    for (name, h) in histograms(&merged) {
        if name.starts_with("router.") || name == "request_us" || name == "request_us.stats" {
            continue;
        }
        let shards: Vec<Value> = shard_stats
            .iter()
            .filter_map(|s| histograms(s).into_iter().find(|(n, _)| *n == name).map(|(_, h)| h))
            .collect();
        assert_eq!(shards.len(), 2, "{name} is on every shard");
        for f in ["count", "sum"] {
            let total: i64 = shards.iter().map(|h| field(h, f)).sum();
            assert_eq!(field(&h, f), total, "merged {name}.{f} sums the shards");
        }
        compared += 1;
    }
    assert!(compared >= 10, "compared {compared} histograms");

    handle.state().request_shutdown();
    handle.join().expect("router exits cleanly");
}
