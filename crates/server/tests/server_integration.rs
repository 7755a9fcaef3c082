//! End-to-end tests driving a real `tbaad` server over TCP (and, on
//! unix, a Unix-domain socket) with the [`tbaa_server::Client`].
//!
//! The headline test is `concurrent_clients_share_compilation`: eight
//! concurrent connections over two distinct benchsuite sessions prove
//! that (a) each program compiles exactly once, (b) batched `alias`
//! replies are byte-identical to serial single-query replies, and
//! (c) `shutdown` drains in-flight requests without dropping a reply.

use std::time::{Duration, Instant};

use tbaa_server::net::CONNECTIONS_PER_WORKER;
use tbaa_server::{Client, ClientError, ErrCode, Reply, Server, ServerConfig, ServerHandle};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn spawn_server(config: ServerConfig) -> ServerHandle {
    Server::bind(config).expect("bind ephemeral server").spawn()
}

fn connect(handle: &ServerHandle) -> Client {
    let mut c = Client::connect(handle.addr()).expect("connect");
    c.set_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    c
}

/// The `"results":[...]` portion of a raw alias reply line.
fn results_bytes(raw: &str) -> &str {
    let start = raw.find("\"results\":[").expect("alias reply has results");
    let open = start + "\"results\":".len();
    let close = raw[open..].find(']').expect("results array closes") + open;
    &raw[open..=close]
}

/// Query pairs drawn from a session's addressable paths: every ordered
/// combination of the first few, so batches mix aliasing and
/// non-aliasing answers.
fn query_pairs(paths: &[String]) -> Vec<(String, String)> {
    let take = paths.len().min(4);
    let mut pairs = Vec::new();
    for i in 0..take {
        for j in i..take {
            pairs.push((paths[i].clone(), paths[j].clone()));
        }
    }
    assert!(!pairs.is_empty(), "benchsuite program has no paths");
    pairs
}

/// ISSUE acceptance test: ≥ 8 concurrent connections, ≥ 2 sessions.
#[test]
fn concurrent_clients_share_compilation() {
    let handle = spawn_server(ServerConfig::default());
    const PROGRAMS: [&str; 2] = ["ktree", "format"];
    const CLIENTS: usize = 8;

    std::thread::scope(|scope| {
        for i in 0..CLIENTS {
            let handle = &handle;
            scope.spawn(move || {
                let program = PROGRAMS[i % PROGRAMS.len()];
                let mut client = connect(handle);
                let load = client
                    .load_bench_with(program, 1, true)
                    .expect("load benchsuite program");
                assert!(!load.session.is_empty());
                assert!(load.heap_refs > 0);
                let pairs = query_pairs(&load.paths);

                // (b) batched replies must be byte-identical to the
                // concatenation of serial single-query replies.
                for _round in 0..3 {
                    let batched = client
                        .alias(&load.session, None, None, &pairs)
                        .expect("batched alias");
                    assert_eq!(batched.results.len(), pairs.len());
                    let mut serial_parts = Vec::new();
                    for pair in &pairs {
                        let single = client
                            .alias(&load.session, None, None, std::slice::from_ref(pair))
                            .expect("single alias");
                        assert_eq!(single.results.len(), 1);
                        let part = results_bytes(&single.raw);
                        // strip the brackets of the 1-element array
                        serial_parts.push(part[1..part.len() - 1].to_string());
                    }
                    let reassembled = format!("[{}]", serial_parts.join(","));
                    assert_eq!(
                        results_bytes(&batched.raw),
                        reassembled,
                        "batched vs serial results diverge for {program}"
                    );
                    // Everything but the results must also match: same
                    // session, level, world in both reply shapes.
                    let single_prefix = {
                        let single = client
                            .alias(&load.session, None, None, std::slice::from_ref(&pairs[0]))
                            .expect("single alias");
                        single.raw[..single.raw.find("\"results\"").unwrap()].to_string()
                    };
                    let batched_prefix =
                        batched.raw[..batched.raw.find("\"results\"").unwrap()].to_string();
                    assert_eq!(single_prefix, batched_prefix);
                }

                // A second load of the same content is a cache hit with
                // the same session id.
                let again = client.load_bench(program, 1).expect("reload");
                assert!(again.cached, "second load of {program} must be warm");
                assert_eq!(again.session, load.session);
            });
        }
    });

    // (a) each program compiled exactly once, via the stats verb.
    let mut observer = connect(&handle);
    let stats = observer.stats().expect("stats");
    assert_eq!(
        stats.counter("sessions.compiles"),
        PROGRAMS.len() as i64,
        "each of the {} programs must compile exactly once: {}",
        PROGRAMS.len(),
        stats.raw
    );
    let hits = stats.counter("sessions.hits");
    assert!(hits >= CLIENTS as i64, "expected ≥{CLIENTS} cache hits, got {hits}");
    assert_eq!(stats.live_sessions, PROGRAMS.len() as i64);

    // (c) shutdown drains in-flight requests without dropping a reply:
    // every client writes its query *before* anyone reads, a separate
    // connection fires `shutdown`, and only then do the clients read.
    let mut drainers: Vec<(Client, usize)> = (0..CLIENTS)
        .map(|i| {
            let program = PROGRAMS[i % PROGRAMS.len()];
            let mut client = connect(&handle);
            let load = client
                .load_bench_with(program, 1, true)
                .expect("load for drain test");
            let pairs = query_pairs(&load.paths);
            let req = format!(
                r#"{{"op":"alias","session":"{}","pairs":[{}]}}"#,
                load.session,
                pairs
                    .iter()
                    .map(|(a, b)| format!(r#"["{a}","{b}"]"#))
                    .collect::<Vec<_>>()
                    .join(",")
            );
            client.send_raw(&[req]).expect("buffer in-flight request");
            (client, pairs.len())
        })
        .collect();

    observer.shutdown().expect("shutdown acknowledged");

    for (client, expected_len) in &mut drainers {
        let raw = client.read_reply_line().expect("drained reply arrives");
        assert!(
            raw.contains(r#""ok":true"#),
            "in-flight request must be served during drain: {raw}"
        );
        let results = results_bytes(&raw);
        let count = results.matches("true").count() + results.matches("false").count();
        assert_eq!(count, *expected_len, "complete results in drained reply");
    }

    handle.join().expect("server drains and exits cleanly");
}

/// Sessions persist across connections: load in one, query in another.
#[test]
fn sessions_survive_reconnects() {
    let handle = spawn_server(ServerConfig::default());
    let session = {
        let mut c = connect(&handle);
        c.load_bench("slisp", 1).expect("load").session
    }; // connection dropped here
    let mut c2 = connect(&handle);
    let pairs = c2.pairs(&session, Some("typedecl"), None).expect("pairs");
    assert!(pairs.references > 0);
    let rle = c2.rle(&session, None, None).expect("rle");
    assert!(rle.removed >= rle.eliminated);
    assert!(c2.unload(&session).expect("unload"));
    match c2.pairs(&session, None, None) {
        Err(ClientError::Server(err)) => assert_eq!(err.code, ErrCode::NoSession),
        other => panic!("query after unload must fail: {other:?}"),
    }
    c2.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// Compile failures come back as structured diagnostics over the wire,
/// and the connection stays usable afterwards.
#[test]
fn compile_errors_are_structured_and_non_fatal() {
    let handle = spawn_server(ServerConfig::default());
    let mut c = connect(&handle);
    match c.load_source("MODULE Broken := ;") {
        Err(ClientError::Server(err)) => {
            assert_eq!(err.code, ErrCode::Compile);
            assert!(!err.diagnostics.is_empty());
            let d = &err.diagnostics[0];
            assert!(!d.phase.is_empty());
            assert!(d.start >= 0 && d.end >= d.start);
            assert!(!d.message.is_empty());
        }
        other => panic!("broken source must be a compile error: {other:?}"),
    }
    // Same connection still serves good requests.
    let load = c
        .load_source(
            "MODULE M; TYPE T = OBJECT f: INTEGER; END; VAR t: T; x: INTEGER; \
             BEGIN t := NEW(T); t.f := 1; x := t.f; END M.",
        )
        .expect("good source compiles");
    let alias = c
        .alias(
            &load.session,
            Some("merges"),
            Some("closed"),
            &[("t.f".to_string(), "t.f".to_string())],
        )
        .expect("alias");
    assert_eq!(alias.results, vec![true]);
    c.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// Garbage lines get error replies; the worker does not hang or die.
#[test]
fn malformed_lines_get_error_replies() {
    let handle = spawn_server(ServerConfig::default());
    let mut c = connect(&handle);
    let replies = c
        .pipeline_raw(&[
            "not json at all".to_string(),
            r#"{"op":"frobnicate"}"#.to_string(),
            r#"{"op":"alias","session":"s404","ap1":"a","ap2":"b"}"#.to_string(),
            r#"{"op":"stats"}"#.to_string(),
        ])
        .expect("all four lines get replies");
    assert!(replies[0].contains(r#""kind":"parse""#), "{}", replies[0]);
    assert!(replies[1].contains(r#""kind":"proto""#), "{}", replies[1]);
    assert!(replies[2].contains(r#""kind":"no_session""#), "{}", replies[2]);
    assert!(replies[3].contains(r#""ok":true"#), "{}", replies[3]);
    c.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// More connections than workers: each connection has its own thread
/// and takes a worker permit only while a batch executes, so all six are
/// served side by side.
#[test]
fn connection_queue_exceeding_workers() {
    let handle = spawn_server(ServerConfig::builder().workers(2).build());
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let handle = &handle;
            scope.spawn(move || {
                let mut c = connect(handle);
                let load = c.load_bench("pp", 1).expect("load");
                let p = c.pairs(&load.session, None, None).expect("pairs");
                assert!(p.references > 0);
            });
        }
    });
    let mut c = connect(&handle);
    c.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// The Unix-domain socket speaks the same protocol, and the socket file
/// is removed after drain.
#[cfg(unix)]
#[test]
fn unix_socket_roundtrip() {
    let sock = std::env::temp_dir().join(format!("tbaad-test-{}.sock", std::process::id()));
    let handle = spawn_server(ServerConfig::builder().unix_path(sock.clone()).build());
    let mut c = Client::connect_unix(&sock).expect("connect over unix socket");
    c.set_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let load = c.load_bench("dom", 1).expect("load over unix socket");
    let p = c.pairs(&load.session, None, None).expect("pairs");
    assert!(p.global_pairs >= p.local_pairs);
    c.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
    assert!(!sock.exists(), "socket file removed after drain");
}

/// `n` connections that each finished one request and now sit idle.
fn idle_connections(handle: &ServerHandle, n: usize) -> Vec<Client> {
    (0..n)
        .map(|_| {
            let mut c = connect(handle);
            c.stats().expect("stats");
            c
        })
        .collect()
}

/// Idle connections hold parked threads, not workers: with as many idle
/// connections open as there are workers, a new client is still served.
#[test]
fn idle_connections_do_not_starve_new_clients() {
    let handle = spawn_server(ServerConfig::builder().workers(2).build());
    let idle = idle_connections(&handle, 2);
    let mut c = connect(&handle);
    c.set_timeout(Some(Duration::from_secs(3))).unwrap();
    c.stats()
        .expect("a third client is answered while two sit idle");
    drop(idle);
    c.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// The connection one past the cap gets one `overloaded` line and EOF;
/// once the idle connections close, new ones are served again.
#[test]
fn connection_past_the_cap_is_refused_then_served_again() {
    let handle = spawn_server(ServerConfig::builder().workers(1).build());
    let idle = idle_connections(&handle, CONNECTIONS_PER_WORKER);
    let mut refused = connect(&handle);
    let raw = refused.read_reply_line().expect("an overloaded line");
    match Reply::decode(&raw) {
        Ok(Reply::Err(err)) => assert_eq!(err.code, ErrCode::Overloaded, "{raw}"),
        other => panic!("expected an overloaded error, got {other:?}"),
    }
    assert!(
        matches!(refused.read_reply_line(), Err(ClientError::Protocol(_))),
        "the refused connection is closed"
    );
    drop(idle);
    // The idle connections' threads notice EOF on their own schedule.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut c = connect(&handle);
        // Until then the request meets a refusal: an `overloaded` line,
        // EOF, or a reset.
        if c.stats().is_ok() {
            c.shutdown().expect("shutdown");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "never served again after the idle connections closed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().expect("clean exit");
}

/// Drain does not wait on idle connections or on a half-written request:
/// whether triggered in process or by the wire verb, `join` returns
/// within `drain_grace` plus a small slack, well before `io_timeout`.
#[test]
fn drain_reaps_idle_and_half_written_connections() {
    use std::io::Write;
    const GRACE: Duration = Duration::from_millis(200);
    for wire_verb in [false, true] {
        let handle = spawn_server(
            ServerConfig::builder()
                .workers(2)
                .drain_grace(GRACE)
                .io_timeout(Duration::from_secs(30))
                .build(),
        );
        let _idle = idle_connections(&handle, 3);
        let mut half = tbaa_server::net::Conn::connect_tcp(handle.addr()).expect("connect");
        half.write_all(br#"{"op":"stats""#).expect("half a request");
        let t0 = Instant::now();
        if wire_verb {
            connect(&handle).shutdown().expect("shutdown");
        } else {
            handle.state().request_shutdown();
        }
        handle.join().expect("clean exit");
        let took = t0.elapsed();
        assert!(
            took < GRACE + Duration::from_secs(2),
            "drain (wire verb: {wire_verb}) took {took:?}"
        );
    }
}
