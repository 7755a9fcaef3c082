//! The `tbaad` daemon: configuration, server lifecycle, request dispatch.
//!
//! Clients speak the newline-delimited JSON protocol of [`crate::proto`]
//! over TCP (always) and, on unix, optionally over a Unix-domain socket.
//! The accept threads, connection threads, compute permits and drain
//! live in [`crate::net`] (shared with `tbaa-router`); this module owns
//! request dispatch against the session store.
//!
//! Failure isolation: every request is dispatched inside
//! [`std::panic::catch_unwind`], so a panicking compile or analysis
//! produces a structured `{"ok":false,"error":{"kind":"panic",..}}`
//! reply and the connection lives on — one poisoned request can never
//! take down another client's session (the session cache's memo slots
//! are panic-safe: a panicked build leaves the slot unset for retry).
//!
//! Shutdown is graceful: the `shutdown` verb triggers the listener's
//! [`Drain`]; the accept threads stop taking connections, and open
//! connections keep being served for `drain_grace` — requests already
//! sent are still answered — before their reads are shut down.
//! [`Server::run`] returns once every connection thread has finished.

use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::fmt::Write as _;

use tbaa::analysis::{AliasAnalysis, Level};
use tbaa::{census_alias_pairs, World};
use tbaa_opt::rle::run_rle;

use crate::journal::Journal;
use crate::json::{write_json_string, Value};
use crate::metrics::{Counter, Gauge, Histogram, Registry};
use crate::net::{self, Drain, DualListener, LineService, ServeOptions};
use crate::proto::{
    self, compile_error_reply, decode_request, error_reply, ok_reply, Request,
};
use crate::session::{Session, SessionStore};

/// Server configuration. `Default` is suitable for tests and local use;
/// for anything else, prefer [`ServerConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Optional Unix-domain socket path (unix only; ignored elsewhere).
    pub unix_path: Option<std::path::PathBuf>,
    /// Requests executing at once. Connections are not workers: an idle
    /// connection holds a parked thread, and open connections are capped
    /// at [`net::CONNECTIONS_PER_WORKER`] times this.
    pub workers: usize,
    /// Maximum live sessions (LRU beyond this).
    pub session_capacity: usize,
    /// Per-request I/O timeout: a peer that stalls mid-line or refuses
    /// to accept its reply for longer than this is disconnected.
    pub io_timeout: Duration,
    /// How long open connections are still served after `shutdown`
    /// before their reads are shut down.
    pub drain_grace: Duration,
    /// Directory for the durable session journal ([`crate::journal`]).
    /// `None` (the default) disables journaling; with a directory set,
    /// admitted loads are logged and replayed on restart, so a daemon
    /// killed mid-run comes back with the same session ids.
    pub journal_dir: Option<std::path::PathBuf>,
    /// Worker-thread budget for cold-compile lowering fan-out and
    /// row-parallel engine builds. `0` (the default) means one worker
    /// per host core; output is byte-identical at any setting.
    pub compile_threads: usize,
    /// Engines to build eagerly right after a load is admitted: `0`
    /// disables prewarming, `1` (the default) builds the default
    /// `(level, world)` engine so the first query pays no engine build.
    pub prewarm: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            unix_path: None,
            workers: 16,
            session_capacity: 32,
            io_timeout: Duration::from_secs(10),
            drain_grace: Duration::from_millis(500),
            journal_dir: None,
            compile_threads: 0,
            prewarm: 1,
        }
    }
}

impl ServerConfig {
    /// A builder starting from [`ServerConfig::default`], mirroring
    /// `OptOptions::builder()` so daemon and router share one config
    /// idiom.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }
}

/// Builder for [`ServerConfig`]; see [`ServerConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// TCP bind address (port 0 for ephemeral).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Unix-domain socket path (unix only; ignored elsewhere).
    pub fn unix_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.config.unix_path = Some(path.into());
        self
    }

    /// Requests executing at once.
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    /// Maximum live sessions (LRU beyond this).
    pub fn session_capacity(mut self, n: usize) -> Self {
        self.config.session_capacity = n;
        self
    }

    /// Per-request I/O timeout.
    pub fn io_timeout(mut self, d: Duration) -> Self {
        self.config.io_timeout = d;
        self
    }

    /// Post-shutdown drain window.
    pub fn drain_grace(mut self, d: Duration) -> Self {
        self.config.drain_grace = d;
        self
    }

    /// Durable session-journal directory (enables crash recovery).
    pub fn journal_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.config.journal_dir = Some(dir.into());
        self
    }

    /// Worker-thread budget for compiles (0 = one per host core).
    pub fn compile_threads(mut self, n: usize) -> Self {
        self.config.compile_threads = n;
        self
    }

    /// Engines to prewarm per admitted load (0 = off, 1 = default).
    pub fn prewarm(mut self, n: usize) -> Self {
        self.config.prewarm = n;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ServerConfig {
        self.config
    }
}

/// Every instrument the request and connection paths touch, resolved
/// once when the state is built. Per-verb handles are indexed by
/// [`Request::index`].
struct ServerMetrics {
    connections_accepted: Arc<Counter>,
    connections_active: Arc<Gauge>,
    inflight: Arc<Gauge>,
    requests: [Arc<Counter>; proto::VERBS.len()],
    requests_invalid: Arc<Counter>,
    requests_panics: Arc<Counter>,
    requests_errors: Arc<Counter>,
    request_us: Arc<Histogram>,
    request_us_by_verb: [Arc<Histogram>; proto::VERBS.len()],
    query_us: Arc<Histogram>,
    queries_alias: Arc<Counter>,
    census_dense_rows: Arc<Counter>,
    census_fallback_pairs: Arc<Counter>,
    rle_us: Arc<Histogram>,
}

impl ServerMetrics {
    fn register(r: &Registry) -> Self {
        ServerMetrics {
            connections_accepted: r.counter("connections.accepted"),
            connections_active: r.gauge("connections.active"),
            inflight: r.gauge("inflight"),
            requests: proto::VERBS.map(|v| r.counter(&format!("requests.{v}"))),
            requests_invalid: r.counter("requests.invalid"),
            requests_panics: r.counter("requests.panics"),
            requests_errors: r.counter("requests.errors"),
            request_us: r.histogram("request_us"),
            // Per-verb service times: the load harness and the benchmark
            // correlate these with client-observed latencies to separate
            // queueing and transport from service.
            request_us_by_verb: proto::VERBS.map(|v| r.histogram(&format!("request_us.{v}"))),
            query_us: r.histogram("query_us"),
            queries_alias: r.counter("queries.alias"),
            census_dense_rows: r.counter("census.dense_rows"),
            census_fallback_pairs: r.counter("census.fallback_pairs"),
            rle_us: r.histogram("rle_us"),
        }
    }
}

/// Shared server state: sessions, metrics, the listener's drain switch.
pub struct ServerState {
    store: SessionStore,
    journal: Option<Arc<Journal>>,
    registry: Arc<Registry>,
    metrics: ServerMetrics,
    drain: Arc<Drain>,
    started: Instant,
    /// Engines to build eagerly after each admitted load (0 = off).
    prewarm: usize,
}

impl ServerState {
    /// `started` is the uptime epoch: [`Server::bind`] passes the moment
    /// the listeners were bound, so `stats` reports a meaningful
    /// `uptime_us` from the very first request.
    ///
    /// With a `journal_dir` configured this is also where crash
    /// recovery happens — the surviving journal prefix is replayed
    /// through the store (and its incremental compiler) *before* any
    /// listener accepts a connection, so the first client already sees
    /// the pre-crash session ids.
    fn new(config: &ServerConfig, started: Instant, drain: Arc<Drain>) -> std::io::Result<Self> {
        let registry = Arc::new(Registry::new());
        let metrics = ServerMetrics::register(&registry);
        let store = SessionStore::new(config.session_capacity, registry.clone())
            .with_compile_threads(config.compile_threads);
        let journal = match &config.journal_dir {
            None => None,
            Some(dir) => {
                let (journal, recovery) = Journal::open(dir, &registry)?;
                // Apply the session-id watermark before anything else:
                // the highest-minted pre-crash sid may belong to an
                // unloaded session the replay below never touches, and
                // re-minting it would hand a stale client's id to a
                // different session.
                store.reserve_ids(recovery.next_sid);
                for load in recovery.loads {
                    // A journaled load that no longer compiles (or names
                    // a vanished bench) is dropped, never fatal: recovery
                    // serves the sessions that still make sense and
                    // counts the rest.
                    journal.count_replay(store.restore_line(&load.sid, &load.line).is_ok());
                }
                // Attach only after replay: the restored loads are
                // already in the freshly compacted file. From here on
                // the store journals every admission and unload itself,
                // inside its admission critical section.
                let journal = Arc::new(journal);
                store.attach_journal(journal.clone());
                Some(journal)
            }
        };
        Ok(ServerState {
            store,
            journal,
            registry,
            metrics,
            drain,
            started,
            prewarm: config.prewarm,
        })
    }

    /// The durable session journal, when `--journal-dir` is configured.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_deref()
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.drain.is_draining()
    }

    /// Requests shutdown (same effect as the wire verb): stops the
    /// accept threads at once and starts the drain.
    pub fn request_shutdown(&self) {
        self.drain.trigger();
    }

    /// The metrics registry (for embedding or inspection).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The session store.
    pub fn store(&self) -> &SessionStore {
        &self.store
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    config: ServerConfig,
    state: Arc<ServerState>,
    listener: DualListener,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The TCP address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (metrics, store, shutdown flag).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Whether the server thread has exited.
    pub fn is_finished(&self) -> bool {
        self.join.is_finished()
    }

    /// Waits for the server to drain and exit.
    pub fn join(self) -> std::io::Result<()> {
        self.join.join().expect("server thread panicked")
    }
}

/// Adapts [`ServerState`] dispatch to the generic serve loop.
struct TbaadService {
    state: Arc<ServerState>,
}

impl LineService for TbaadService {
    fn handle(&self, line: &str, out: &mut String) {
        handle_line(&self.state, line, out);
    }

    fn on_connect(&self) {
        self.state.metrics.connections_accepted.inc();
        self.state.metrics.connections_active.inc();
    }

    fn on_disconnect(&self) {
        self.state.metrics.connections_active.dec();
    }
}

impl Server {
    /// Binds the listeners described by `config`. The uptime clock
    /// starts here, not at the first request.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let started = Instant::now();
        let listener = DualListener::bind(&config.addr, config.unix_path.as_deref())?;
        let state = Arc::new(ServerState::new(&config, started, listener.drain())?);
        Ok(Server {
            config,
            state,
            listener,
        })
    }

    /// The bound TCP address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The shared state.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Runs the server on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let state = self.state.clone();
        let join = std::thread::Builder::new()
            .name("tbaad-accept".into())
            .spawn(move || self.run())
            .expect("spawn server thread");
        ServerHandle { addr, state, join }
    }

    /// Serves until a `shutdown` request arrives and the drain has
    /// finished every connection.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            config,
            state,
            listener,
        } = self;
        let opts = ServeOptions {
            workers: config.workers,
            io_timeout: config.io_timeout,
            drain_grace: config.drain_grace,
        };
        net::serve(listener, opts, Arc::new(TbaadService { state }))
    }
}

/// Parses and dispatches one request line, appending exactly one reply
/// line (no newline) to `out`; never panics. The buffer is reused by the
/// connection worker across requests, so the hot verbs allocate nothing
/// per reply.
fn handle_line(state: &Arc<ServerState>, line: &str, out: &mut String) {
    let metrics = &state.metrics;
    metrics.inflight.inc();
    let t0 = Instant::now();

    let start = out.len();
    let mut verb = None;
    match decode_request(line) {
        Err(proto::ProtoError::Json(e)) => {
            metrics.requests_invalid.inc();
            error_reply("parse", &e.to_string()).encode_into(out);
        }
        Err(proto::ProtoError::Invalid(m)) => {
            metrics.requests_invalid.inc();
            error_reply("proto", &m).encode_into(out);
        }
        Ok(req) => {
            let v = req.index();
            verb = Some(v);
            metrics.requests[v].inc();
            if let Err(payload) =
                catch_unwind(AssertUnwindSafe(|| dispatch(state, req, out)))
            {
                metrics.requests_panics.inc();
                let msg = panic_message(payload.as_ref());
                // Drop whatever partial reply the panicking dispatch wrote.
                out.truncate(start);
                error_reply("panic", &format!("request panicked: {msg}")).encode_into(out);
            }
        }
    }
    // Every error reply starts with this prefix (`error_reply` /
    // `compile_error_reply` put `ok` first), every success reply with
    // `{"ok":true` — so the error counter needs no reply re-parse.
    if out[start..].starts_with(r#"{"ok":false"#) {
        metrics.requests_errors.inc();
    }
    let elapsed = t0.elapsed();
    metrics.request_us.record(elapsed);
    if let Some(v) = verb {
        metrics.request_us_by_verb[v].record(elapsed);
    }
    metrics.inflight.dec();
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn with_session(
    state: &ServerState,
    id: &str,
    out: &mut String,
    f: impl FnOnce(&Session, &mut String),
) {
    match state.store().by_id(id) {
        None => error_reply("no_session", &format!("no live session `{id}`")).encode_into(out),
        Some(slot) => match slot.as_ref() {
            Ok(session) => f(session, out),
            // Unreachable in practice: failed compiles are never admitted.
            Err(diags) => compile_error_reply(diags).encode_into(out),
        },
    }
}

/// Writes the shared `{"ok":true,"session":..,"level":..,"world":..`
/// prefix of the hot-verb replies — field order and escaping identical
/// to what `ok_reply` + `Value::encode` produced.
fn write_reply_head(session: &str, level: Level, world: World, out: &mut String) {
    out.push_str(r#"{"ok":true,"session":"#);
    write_json_string(session, out);
    out.push_str(r#","level":"#);
    write_json_string(proto::level_name(level), out);
    out.push_str(r#","world":"#);
    write_json_string(proto::world_name(world), out);
}

fn write_int_field(name: &str, v: i64, out: &mut String) {
    out.push(',');
    write_json_string(name, out);
    out.push(':');
    let _ = write!(out, "{v}");
}

fn dispatch(state: &Arc<ServerState>, req: Request<'_>, out: &mut String) {
    let metrics = &state.metrics;
    match req {
        Request::Load {
            source,
            bench,
            scale,
            paths,
        } => {
            let loaded = match (&source, &bench) {
                (Some(src), None) => Ok(state.store().load_source(src)),
                (None, Some(name)) => state.store().load_bench(name, scale),
                _ => unreachable!("decode_request enforces exactly one"),
            };
            match loaded {
                Err(msg) => error_reply("no_bench", &msg).encode_into(out),
                Ok((slot, cached)) => match slot.as_ref() {
                    Err(diags) => compile_error_reply(diags).encode_into(out),
                    Ok(session) => {
                        // Admission-time prewarm: build the default
                        // `(level, world)` engine before replying, so the
                        // first query against this session pays zero
                        // engine-build latency. Memoized — a re-load of a
                        // warm session is a no-op here.
                        if state.prewarm > 0 {
                            let _ = session.engine(proto::DEFAULT_LEVEL, proto::DEFAULT_WORLD);
                        }
                        // The admission itself was journaled by the store
                        // (inside its admission critical section), so the
                        // journal's order matches admission order.
                        let mut fields = vec![
                            ("session", Value::Str(session.id.as_str().into())),
                            ("key", Value::Str(session.key.display().into())),
                            ("cached", Value::Bool(cached)),
                            ("funcs", Value::Int(session.program.funcs.len() as i64)),
                            ("instrs", Value::Int(session.program.instr_count() as i64)),
                            (
                                "heap_refs",
                                Value::Int(session.program.heap_ref_sites().len() as i64),
                            ),
                        ];
                        if paths {
                            fields.push((
                                "paths",
                                Value::Array(
                                    session
                                        .known_paths()
                                        .into_iter()
                                        .map(|p| Value::Str(p.into()))
                                        .collect(),
                                ),
                            ));
                        }
                        ok_reply(fields).encode_into(out);
                    }
                },
            }
        }
        Request::Alias {
            session,
            level,
            world,
            pairs,
        } => with_session(state, &session, out, |s, out| {
            let engine = s.engine(level, world);
            let t0 = Instant::now();
            // Optimistic emit: write the reply head and results directly;
            // an unknown path truncates back to `reply_start` and emits
            // the error instead — one resolution per path either way.
            // Echo the id the client addressed, not `s.id`: a stale id can
            // legitimately resolve to a recompiled session of the same
            // content (load/evict races re-admit old ids), and the reply
            // must stay deterministic for the requester.
            let reply_start = out.len();
            write_reply_head(&session, level, world, out);
            out.push_str(r#","results":["#);
            for (i, (a, b)) in pairs.iter().enumerate() {
                let (Some(ap_a), Some(ap_b)) = (s.resolve_path(a), s.resolve_path(b)) else {
                    let missing = if s.resolve_path(a).is_none() { a } else { b };
                    out.truncate(reply_start);
                    error_reply(
                        "unknown_path",
                        &format!(
                            "unknown access path `{missing}` ({} addressable paths in session `{}`)",
                            s.known_paths().len(),
                            s.id
                        ),
                    )
                    .encode_into(out);
                    return;
                };
                if i > 0 {
                    out.push(',');
                }
                out.push_str(if engine.may_alias(&s.program.aps, ap_a, ap_b) {
                    "true"
                } else {
                    "false"
                });
            }
            out.push_str("]}");
            metrics.query_us.record(t0.elapsed());
            metrics.queries_alias.add(pairs.len() as u64);
            s.note_queries_served(pairs.len() as u64);
        }),
        Request::Pairs {
            session,
            level,
            world,
        } => with_session(state, &session, out, |s, out| {
            let engine = s.engine(level, world);
            let t0 = Instant::now();
            let report = census_alias_pairs(&s.program, &engine);
            metrics.query_us.record(t0.elapsed());
            metrics.census_dense_rows.add(report.dense_rows);
            metrics.census_fallback_pairs.add(report.fallback_pairs);
            write_reply_head(&session, level, world, out);
            write_int_field("references", report.counts.references as i64, out);
            write_int_field("local_pairs", report.counts.local_pairs as i64, out);
            write_int_field("global_pairs", report.counts.global_pairs as i64, out);
            out.push('}');
        }),
        Request::Rle {
            session,
            level,
            world,
        } => with_session(state, &session, out, |s, out| {
            // RLE rewrites its program clone and interns new access
            // paths; the engine answers post-compile ids through its
            // naive-oracle fallback.
            let engine = s.engine(level, world);
            let t0 = Instant::now();
            let mut prog = (*s.program).clone();
            let stats = run_rle(&mut prog, &*engine);
            metrics.rle_us.record(t0.elapsed());
            write_reply_head(&session, level, world, out);
            write_int_field("hoisted", stats.hoisted as i64, out);
            write_int_field("eliminated", stats.eliminated as i64, out);
            write_int_field("removed", stats.removed() as i64, out);
            out.push('}');
        }),
        Request::Stats => {
            let engines: Vec<_> = state
                .store()
                .engine_stats()
                .into_iter()
                .map(|(id, served, s)| {
                    (
                        id.into(),
                        Value::object(vec![
                            ("queries_served", Value::Int(served as i64)),
                            ("dense_pairs", Value::Int(s.dense_pairs as i64)),
                            ("memo_hits", Value::Int(s.memo_hits as i64)),
                            ("memo_misses", Value::Int(s.memo_misses as i64)),
                            ("fallbacks", Value::Int(s.fallbacks as i64)),
                            ("memo_len", Value::Int(s.memo_len as i64)),
                            ("nodes", Value::Int(s.nodes as i64)),
                            ("build_us", Value::Int(s.build_us as i64)),
                        ]),
                    )
                })
                .collect();
            ok_reply(vec![
                // Clamped to ≥ 1 so the field is present *and positive*
                // from the very first request after bind.
                (
                    "uptime_us",
                    Value::Int((state.started.elapsed().as_micros() as i64).max(1)),
                ),
                ("stats", state.registry.snapshot()),
                (
                    "sessions",
                    Value::object(vec![
                        ("live", Value::Int(state.store().live() as i64)),
                        ("capacity", Value::Int(state.store().capacity() as i64)),
                    ]),
                ),
                ("engines", Value::Object(engines)),
            ])
            .encode_into(out);
        }
        Request::Unload { session } => {
            // The store journals the tombstone itself, under its
            // admission lock, so it can never be reordered against a
            // racing load of the same content.
            let unloaded = state.store().unload(&session);
            ok_reply(vec![("unloaded", Value::Bool(unloaded))]).encode_into(out)
        }
        Request::Shutdown => {
            state.request_shutdown();
            if let Some(journal) = state.journal() {
                journal.sync();
            }
            ok_reply(vec![("draining", Value::Bool(true))]).encode_into(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The state of a bound (never run) server.
    fn state_with(config: ServerConfig) -> Arc<ServerState> {
        Server::bind(config).expect("bind").state().clone()
    }

    fn state() -> Arc<ServerState> {
        state_with(ServerConfig::default())
    }

    /// Buffered `handle_line` + reply re-parse, for test assertions.
    fn handle(state: &Arc<ServerState>, line: &str) -> Value<'static> {
        let mut out = String::new();
        handle_line(state, line, &mut out);
        crate::json::parse(&out).expect("reply is json").into_owned()
    }

    const SMOKE: &str = "MODULE M; TYPE T = OBJECT f: INTEGER; END; VAR t: T; x: INTEGER; BEGIN t := NEW(T); t.f := 1; x := t.f; END M.";

    fn load(state: &Arc<ServerState>, source: &str) -> String {
        let reply = handle(
            state,
            &Value::object(vec![
                ("op", Value::Str("load".into())),
                ("source", Value::Str(source.into())),
            ])
            .encode(),
        );
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true), "{reply:?}");
        reply.get("session").unwrap().as_str().unwrap().to_string()
    }

    #[test]
    fn load_alias_roundtrip_in_process() {
        let st = state();
        let sid = load(&st, SMOKE);
        let reply = handle(
            &st,
            &format!(r#"{{"op":"alias","session":"{sid}","pairs":[["t.f","t.f"]]}}"#),
        );
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
        let results = reply.get("results").unwrap().as_array().unwrap();
        assert_eq!(results, &[Value::Bool(true)]);
    }

    #[test]
    fn unknown_path_is_structured_error() {
        let st = state();
        let sid = load(&st, SMOKE);
        let reply = handle(
            &st,
            &format!(r#"{{"op":"alias","session":"{sid}","ap1":"t.f","ap2":"nope"}}"#),
        );
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
        let err = reply.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("unknown_path"));
    }

    #[test]
    fn malformed_source_returns_compile_diagnostics() {
        let st = state();
        let reply = handle(
            &st,
            &Value::object(vec![
                ("op", Value::Str("load".into())),
                ("source", Value::Str("MODULE Broken".into())),
            ])
            .encode(),
        );
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
        let err = reply.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("compile"));
        assert!(!err.get("diagnostics").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn bad_json_and_bad_ops_reply_instead_of_dropping() {
        let st = state();
        let r1 = handle(&st, "this is not json");
        assert_eq!(
            r1.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("parse")
        );
        let r2 = handle(&st, r#"{"op":"zap"}"#);
        assert_eq!(
            r2.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("proto")
        );
        let r3 = handle(&st, r#"{"op":"alias","session":"s99","ap1":"a","ap2":"b"}"#);
        assert_eq!(
            r3.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("no_session")
        );
    }

    #[test]
    fn panicking_request_is_contained() {
        let st = state();
        // A panic inside dispatch must become a structured reply. Force
        // one through the catch_unwind boundary directly.
        let reply = match catch_unwind(AssertUnwindSafe(|| -> Value {
            panic!("boom");
        })) {
            Ok(v) => v,
            Err(p) => error_reply("panic", &format!("request panicked: {}", panic_message(p.as_ref()))),
        };
        assert_eq!(
            reply.get("error").unwrap().get("message").unwrap().as_str(),
            Some("request panicked: boom")
        );
        // And the server state stays usable afterwards.
        let sid = load(&st, SMOKE);
        assert!(st.store().by_id(&sid).is_some());
    }

    #[test]
    fn stats_reflects_requests() {
        let st = state();
        let sid = load(&st, SMOKE);
        handle(
            &st,
            &format!(r#"{{"op":"alias","session":"{sid}","ap1":"t.f","ap2":"t.f"}}"#),
        );
        let stats = handle(&st, r#"{"op":"stats"}"#);
        let counters = stats.get("stats").unwrap().get("counters").unwrap();
        assert_eq!(counters.get("requests.load").unwrap().as_i64(), Some(1));
        assert_eq!(counters.get("requests.alias").unwrap().as_i64(), Some(1));
        assert_eq!(counters.get("sessions.compiles").unwrap().as_i64(), Some(1));
        assert_eq!(counters.get("engines.built").unwrap().as_i64(), Some(1));
        assert_eq!(
            stats.get("sessions").unwrap().get("live").unwrap().as_i64(),
            Some(1)
        );
        let engine = stats.get("engines").unwrap().get(&sid).unwrap();
        assert_eq!(engine.get("queries_served").unwrap().as_i64(), Some(1));
        assert!(engine.get("dense_pairs").unwrap().as_i64().unwrap() > 0);
        assert_eq!(engine.get("fallbacks").unwrap().as_i64(), Some(0));
        assert!(engine.get("nodes").unwrap().as_i64().unwrap() > 0);
    }

    /// The `engines.built` counter from a `stats` reply.
    fn engines_built(state: &Arc<ServerState>) -> i64 {
        let stats = handle(state, r#"{"op":"stats"}"#);
        stats
            .get("stats")
            .unwrap()
            .get("counters")
            .unwrap()
            .get("engines.built")
            .map_or(0, |v| v.as_i64().unwrap())
    }

    #[test]
    fn prewarm_builds_default_engine_at_load_time() {
        // Default config has prewarm = 1: the load itself builds the
        // default (level, world) engine, so the first query finds it
        // memoized and `engines.built` never moves past 1.
        let st = state();
        let sid = load(&st, SMOKE);
        assert_eq!(engines_built(&st), 1, "load alone must build the engine");
        handle(
            &st,
            &format!(r#"{{"op":"alias","session":"{sid}","ap1":"t.f","ap2":"t.f"}}"#),
        );
        assert_eq!(engines_built(&st), 1, "first query must not build again");
    }

    #[test]
    fn prewarm_zero_defers_engine_build_to_first_query() {
        let config = ServerConfig::builder().prewarm(0).build();
        let st = state_with(config);
        let sid = load(&st, SMOKE);
        assert_eq!(engines_built(&st), 0, "prewarm=0 must not build at load");
        handle(
            &st,
            &format!(r#"{{"op":"alias","session":"{sid}","ap1":"t.f","ap2":"t.f"}}"#),
        );
        assert_eq!(engines_built(&st), 1);
    }

    #[test]
    fn uptime_is_present_and_positive_from_the_first_request() {
        // The clock starts when the state is created (bind time), not
        // when the first request lands — and the clamp guarantees a
        // positive value even if the two are nanoseconds apart.
        let st = state();
        let stats = handle(&st, r#"{"op":"stats"}"#);
        let uptime = stats.get("uptime_us").unwrap().as_i64().unwrap();
        assert!(uptime >= 1, "uptime_us must be positive, got {uptime}");
    }

    #[test]
    fn shutdown_flips_the_flag() {
        let st = state();
        let reply = handle(&st, r#"{"op":"shutdown"}"#);
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
        assert!(st.is_shutting_down());
    }

    #[test]
    fn builder_mirrors_field_assignment() {
        let built = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .workers(3)
            .session_capacity(7)
            .io_timeout(Duration::from_secs(2))
            .drain_grace(Duration::from_millis(10))
            .compile_threads(5)
            .prewarm(0)
            .build();
        assert_eq!(built.workers, 3);
        assert_eq!(built.session_capacity, 7);
        assert_eq!(built.io_timeout, Duration::from_secs(2));
        assert_eq!(built.drain_grace, Duration::from_millis(10));
        assert_eq!(built.compile_threads, 5);
        assert_eq!(built.prewarm, 0);
        assert!(built.unix_path.is_none());
    }
}
