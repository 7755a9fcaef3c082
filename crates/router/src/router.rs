//! The front tier: accept loop, session table, shard proxying.
//!
//! The router speaks the exact `tbaad` wire protocol on its own
//! listener and owns a unified session-id space (`r1`, `r2`, …): a
//! `load` is hashed by content key to its owning shard, forwarded, and
//! the backend's session id is hidden behind a router id that stays
//! stable across backend respawns. Queries are rewritten to the
//! backend id on the way in and back to the router id on the way out —
//! and because the server echoes the *requested* id and the json
//! encoder is deterministic, a proxied reply is byte-identical to a
//! direct one.
//!
//! Failure model: any transport error on a backend exchange triggers
//! bounded retry-with-backoff. Between attempts the shard is probed;
//! if unreachable it is respawned and its sessions are re-`load`ed
//! from the journal (the stored `load` request lines), after which the
//! session table points at the fresh backend ids. Requests that
//! exhaust their retries return a structured
//! `{"ok":false,"error":{"kind":"unavailable",..}}` reply.

use std::borrow::Cow;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tbaa_server::json::{parse, Value};
use tbaa_server::metrics::{Counter, Histogram, Registry, LATENCY_US_BUCKETS};
use tbaa_server::net::{self, Conn, Drain, DualListener, LineReader, LineService, ServeOptions};
use tbaa_server::proto::{self, decode_request, error_reply, ok_reply, ProtoError, Request};
use tbaa_server::session::{content_hash, SessionKey};

use crate::backend::{build_hosts, BackendHost, BackendSpec};
use crate::ring::Ring;

/// Router configuration. Prefer [`RouterConfig::builder`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// TCP bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Optional Unix-domain socket path (unix only; ignored elsewhere).
    pub unix_path: Option<std::path::PathBuf>,
    /// Requests executing at once. An idle client connection holds a
    /// parked thread, not a worker; open connections are capped at
    /// [`net::CONNECTIONS_PER_WORKER`] times this.
    pub workers: usize,
    /// Requested shard count (`Attach` specs override it with their
    /// address count).
    pub shards: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Per-exchange backend I/O timeout (and client I/O timeout).
    pub io_timeout: Duration,
    /// How long open client connections are still served after
    /// `shutdown` before their reads are shut down.
    pub drain_grace: Duration,
    /// Retries per request after the first failed exchange.
    pub max_retries: u32,
    /// Base backoff between retries (linearly increasing per attempt).
    pub retry_backoff: Duration,
    /// Backend shard source.
    pub backend: BackendSpec,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            unix_path: None,
            workers: 16,
            shards: 2,
            vnodes: 64,
            io_timeout: Duration::from_secs(10),
            drain_grace: Duration::from_millis(500),
            max_retries: 4,
            retry_backoff: Duration::from_millis(50),
            backend: BackendSpec::InProcess {
                config: tbaa_server::ServerConfig::default(),
            },
        }
    }
}

impl RouterConfig {
    /// A builder starting from [`RouterConfig::default`].
    pub fn builder() -> RouterConfigBuilder {
        RouterConfigBuilder {
            config: RouterConfig::default(),
        }
    }
}

/// Builder for [`RouterConfig`]; see [`RouterConfig::builder`].
#[derive(Debug, Clone)]
pub struct RouterConfigBuilder {
    config: RouterConfig,
}

impl RouterConfigBuilder {
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

    /// Requested shard count.
    pub fn shards(mut self, n: usize) -> Self {
        self.config.shards = n;
        self
    }

    /// Virtual nodes per shard on the hash ring.
    pub fn vnodes(mut self, n: usize) -> Self {
        self.config.vnodes = n;
        self
    }

    /// Per-exchange backend I/O timeout.
    pub fn io_timeout(mut self, d: Duration) -> Self {
        self.config.io_timeout = d;
        self
    }

    /// Post-shutdown drain window.
    pub fn drain_grace(mut self, d: Duration) -> Self {
        self.config.drain_grace = d;
        self
    }

    /// Retries per request after the first failed exchange.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.config.max_retries = n;
        self
    }

    /// Base backoff between retries.
    pub fn retry_backoff(mut self, d: Duration) -> Self {
        self.config.retry_backoff = d;
        self
    }

    /// Backend shard source.
    pub fn backend(mut self, spec: BackendSpec) -> Self {
        self.config.backend = spec;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> RouterConfig {
        self.config
    }
}

/// One live session as the router sees it.
#[derive(Debug, Clone)]
struct SessionEntry {
    shard: usize,
    backend_sid: String,
    key: String,
    /// The original `load` request line — the journal entry replayed
    /// into a respawned backend.
    load_line: String,
}

/// Router-owned session ids and the content journal.
#[derive(Default)]
struct SessionTable {
    next: u64,
    by_sid: HashMap<String, SessionEntry>,
    by_key: HashMap<String, String>,
}

/// A pooled backend connection, tagged with the shard generation it was
/// opened under so stale sockets never re-enter the pool after a
/// recovery.
struct BackendConn {
    writer: Conn,
    reader: LineReader,
    generation: u64,
}

/// One backend shard: its host, connection pool, and counters.
struct Shard {
    index: usize,
    host: Mutex<Box<dyn BackendHost>>,
    addr: Mutex<String>,
    pool: Mutex<Vec<BackendConn>>,
    /// Bumped on every completed recovery; observers that saw an older
    /// generation know someone else already recovered and just retry.
    generation: AtomicU64,
    requests: Arc<Counter>,
    request_us: Arc<Histogram>,
}

/// Shared router state.
pub struct RouterState {
    shards: Vec<Shard>,
    ring: Ring,
    sessions: Mutex<SessionTable>,
    metrics: Arc<Registry>,
    drain: Arc<Drain>,
    started: Instant,
    io_timeout: Duration,
    max_retries: u32,
    retry_backoff: Duration,
}

impl RouterState {
    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.drain.is_draining()
    }

    /// Requests shutdown (same effect as the wire verb): stops the
    /// accept threads at once and starts the drain.
    pub fn request_shutdown(&self) {
        self.drain.trigger();
    }

    /// The router's own metrics registry.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning a content key's display form (`bench:ktree@2`).
    pub fn shard_of(&self, key_display: &str) -> usize {
        self.ring.shard_of(key_display)
    }

    /// Forcibly kills shard `idx`'s backend (fault injection for tests
    /// and the load harness); the next request owned by it triggers
    /// recovery.
    pub fn kill_backend(&self, idx: usize) {
        let shard = &self.shards[idx];
        shard.host.lock().expect("host poisoned").kill();
        shard.pool.lock().expect("pool poisoned").clear();
    }

    /// Total respawns performed so far.
    pub fn respawns(&self) -> u64 {
        self.metrics.counter("router.respawns").get()
    }
}

/// A bound, not-yet-running router.
pub struct Router {
    config: RouterConfig,
    state: Arc<RouterState>,
    listener: DualListener,
}

/// Handle to a router running on a background thread.
pub struct RouterHandle {
    addr: SocketAddr,
    state: Arc<RouterState>,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl RouterHandle {
    /// The TCP address the router is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state.
    pub fn state(&self) -> &Arc<RouterState> {
        &self.state
    }

    /// Whether the router thread has exited.
    pub fn is_finished(&self) -> bool {
        self.join.is_finished()
    }

    /// Waits for the router to drain, shut its owned backends down, and
    /// exit.
    pub fn join(self) -> std::io::Result<()> {
        self.join.join().expect("router thread panicked")
    }
}

impl Router {
    /// Starts (or attaches to) the backends and binds the front
    /// listener.
    pub fn bind(config: RouterConfig) -> std::io::Result<Router> {
        let started = Instant::now();
        let shard_count = config.backend.shard_count(config.shards);
        let hosts = build_hosts(&config.backend, shard_count)?;
        let metrics = Arc::new(Registry::new());
        let shards = hosts
            .into_iter()
            .enumerate()
            .map(|(index, host)| Shard {
                index,
                addr: Mutex::new(host.addr()),
                host: Mutex::new(host),
                pool: Mutex::new(Vec::new()),
                generation: AtomicU64::new(0),
                requests: metrics.counter(&format!("router.shard{index}.requests")),
                request_us: metrics
                    .histogram(&format!("router.shard{index}.request_us"), LATENCY_US_BUCKETS),
            })
            .collect();
        let listener = DualListener::bind(&config.addr, config.unix_path.as_deref())?;
        let state = Arc::new(RouterState {
            shards,
            ring: Ring::new(shard_count, config.vnodes),
            sessions: Mutex::new(SessionTable::default()),
            metrics,
            drain: listener.drain(),
            started,
            io_timeout: config.io_timeout,
            max_retries: config.max_retries,
            retry_backoff: config.retry_backoff,
        });
        Ok(Router {
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
    pub fn state(&self) -> &Arc<RouterState> {
        &self.state
    }

    /// Runs the router on a background thread.
    pub fn spawn(self) -> RouterHandle {
        let addr = self.local_addr();
        let state = self.state.clone();
        let join = std::thread::Builder::new()
            .name("tbaa-router-accept".into())
            .spawn(move || self.run())
            .expect("spawn router thread");
        RouterHandle { addr, state, join }
    }

    /// Serves until a `shutdown` request arrives, drains client
    /// connections, then shuts owned backends down (a no-op for
    /// attached backends).
    pub fn run(self) -> std::io::Result<()> {
        let Router {
            config,
            state,
            listener,
        } = self;
        let opts = ServeOptions {
            workers: config.workers,
            io_timeout: config.io_timeout,
            drain_grace: config.drain_grace,
        };
        let result = net::serve(listener, opts, Arc::new(RouterService(state.clone())));
        for shard in &state.shards {
            // Closing the pooled connections first lets an owned
            // backend's drain end at once instead of waiting out its
            // grace window.
            shard.pool.lock().expect("pool poisoned").clear();
            shard.host.lock().expect("host poisoned").shutdown();
        }
        result
    }
}

/// Adapts routing to the generic serve loop.
struct RouterService(Arc<RouterState>);

impl LineService for RouterService {
    fn handle(&self, line: &str, out: &mut String) {
        route_line(&self.0, line, out);
    }

    fn handle_batch(&self, lines: &[String], out: &mut String) {
        route_batch(&self.0, lines, out);
    }

    fn on_connect(&self) {
        self.0.metrics.counter("router.connections.accepted").inc();
        self.0.metrics.gauge("router.connections.active").inc();
    }

    fn on_disconnect(&self) {
        self.0.metrics.gauge("router.connections.active").dec();
    }
}

/// The content key a `load` request addresses, mirroring the session
/// store's identity rules (the router never compiles anything).
fn load_key(source: &Option<Cow<'_, str>>, bench: &Option<Cow<'_, str>>, scale: u32) -> String {
    match (source, bench) {
        (Some(src), None) => SessionKey::Source {
            hash: content_hash(src.as_bytes()),
        }
        .display(),
        (None, Some(name)) => SessionKey::Bench {
            name: name.to_string(),
            scale,
        }
        .display(),
        _ => unreachable!("decode_request enforces exactly one"),
    }
}

/// Replaces the value of an existing `session` field in place,
/// preserving field order — the whole trick behind byte-identical
/// proxied replies.
fn set_session(v: &mut Value<'_>, sid: &str) {
    if let Value::Object(fields) = v {
        for (k, val) in fields.iter_mut() {
            if k.as_ref() == "session" {
                *val = Value::Str(sid.to_string().into());
            }
        }
    }
}

fn unavailable_reply(shard: usize, attempts: u32, out: &mut String) {
    error_reply(
        "unavailable",
        &format!("shard {shard} backend unavailable after {attempts} attempts"),
    )
    .encode_into(out);
}

fn route_line(state: &Arc<RouterState>, line: &str, out: &mut String) {
    let t0 = Instant::now();
    route_inner(state, line, out);
    state
        .metrics
        .histogram("router.request_us", LATENCY_US_BUCKETS)
        .observe_duration(t0.elapsed());
}

fn route_inner(state: &Arc<RouterState>, line: &str, out: &mut String) {
    let req = match decode_request(line) {
        Err(ProtoError::Json(e)) => {
            state.metrics.counter("router.requests.invalid").inc();
            error_reply("parse", &e.to_string()).encode_into(out);
            return;
        }
        Err(ProtoError::Invalid(m)) => {
            state.metrics.counter("router.requests.invalid").inc();
            error_reply("proto", &m).encode_into(out);
            return;
        }
        Ok(req) => req,
    };
    state
        .metrics
        .counter(&format!("router.requests.{}", proto::verb(&req)))
        .inc();
    match req {
        Request::Load {
            ref source,
            ref bench,
            scale,
            ..
        } => route_load(state, line, &load_key(source, bench, scale), out),
        Request::Alias { ref session, .. }
        | Request::Pairs { ref session, .. }
        | Request::Rle { ref session, .. } => route_query(state, line, session, out),
        Request::Unload { ref session } => route_unload(state, session, out),
        Request::Stats => route_stats(state, out),
        Request::Shutdown => {
            state.request_shutdown();
            ok_reply(vec![("draining", Value::Bool(true))]).encode_into(out);
        }
    }
}

fn route_load(state: &Arc<RouterState>, line: &str, key: &str, out: &mut String) {
    let shard = state.ring.shard_of(key);
    let owned_line = line.to_string();
    let raw = match call_shard(state, shard, &|| owned_line.clone()) {
        Ok(raw) => raw,
        Err(attempts) => return unavailable_reply(shard, attempts, out),
    };
    let Ok(mut v) = parse(&raw) else {
        out.push_str(&raw); // backend always emits valid JSON; pass through defensively
        return;
    };
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        out.push_str(&raw); // structured errors (compile, no_bench) pass through verbatim
        return;
    }
    let backend_sid = v
        .get("session")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let rsid = {
        let mut table = state.sessions.lock().expect("sessions poisoned");
        let rsid = match table.by_key.get(key) {
            Some(rsid) => rsid.clone(),
            None => {
                table.next += 1;
                let rsid = format!("r{}", table.next);
                table.by_key.insert(key.to_string(), rsid.clone());
                rsid
            }
        };
        table.by_sid.insert(
            rsid.clone(),
            SessionEntry {
                shard,
                backend_sid,
                key: key.to_string(),
                load_line: line.to_string(),
            },
        );
        rsid
    };
    set_session(&mut v, &rsid);
    v.encode_into(out);
}

fn route_query(state: &Arc<RouterState>, line: &str, rsid: &str, out: &mut String) {
    let known = {
        let table = state.sessions.lock().expect("sessions poisoned");
        table.by_sid.contains_key(rsid)
    };
    if !known {
        // Match the backend's reply byte-for-byte so clients cannot tell
        // the router from a single daemon.
        error_reply("no_session", &format!("no live session `{rsid}`")).encode_into(out);
        return;
    }
    let parsed = match parse(line) {
        Ok(parsed) => parsed.into_owned(),
        Err(_) => {
            error_reply("parse", "unreadable request").encode_into(out);
            return;
        }
    };
    let Some((shard, make_line)) = query_line_maker(state, rsid, parsed) else {
        error_reply("no_session", &format!("no live session `{rsid}`")).encode_into(out);
        return;
    };
    let raw = match call_shard(state, shard, &make_line) {
        Ok(raw) => raw,
        Err(attempts) => return unavailable_reply(shard, attempts, out),
    };
    rewrite_reply_sid(raw, rsid, out);
}

/// Builds the per-attempt request-line closure for a query: every
/// attempt re-resolves the backend sid from the session table, because
/// a recovery between attempts re-loads the session under a fresh
/// backend id.
fn query_line_maker(
    state: &Arc<RouterState>,
    rsid: &str,
    parsed: Value<'static>,
) -> Option<(usize, impl Fn() -> String)> {
    let state = state.clone();
    let rsid = rsid.to_string();
    let shard = {
        let table = state.sessions.lock().expect("sessions poisoned");
        table.by_sid.get(&rsid)?.shard
    };
    Some((shard, move || {
        let backend_sid = {
            let table = state.sessions.lock().expect("sessions poisoned");
            table
                .by_sid
                .get(&rsid)
                .map(|e| e.backend_sid.clone())
                .unwrap_or_else(|| rsid.clone())
        };
        let mut line = parsed.clone();
        set_session(&mut line, &backend_sid);
        line.encode()
    }))
}

/// Rewrites a reply's `session` field back to the router id, appending
/// the result to `out`. Error replies carry no `session` field and pass
/// through untouched.
fn rewrite_reply_sid(raw: String, rsid: &str, out: &mut String) {
    if let Ok(mut v) = parse(&raw) {
        if v.get("session").is_some() {
            set_session(&mut v, rsid);
            v.encode_into(out);
            return;
        }
    }
    out.push_str(&raw);
}

fn route_unload(state: &Arc<RouterState>, rsid: &str, out: &mut String) {
    let entry = {
        let table = state.sessions.lock().expect("sessions poisoned");
        table.by_sid.get(rsid).cloned()
    };
    let Some(entry) = entry else {
        // The daemon answers unload of an unknown id with a calm false.
        ok_reply(vec![("unloaded", Value::Bool(false))]).encode_into(out);
        return;
    };
    let line = Value::object(vec![
        ("op", Value::Str("unload".into())),
        ("session", Value::Str(entry.backend_sid.as_str().into())),
    ])
    .encode();
    let raw = match call_shard(state, entry.shard, &|| line.clone()) {
        Ok(raw) => raw,
        Err(attempts) => return unavailable_reply(entry.shard, attempts, out),
    };
    if parse(&raw).ok().and_then(|v| v.get("ok").and_then(Value::as_bool)) == Some(true) {
        let mut table = state.sessions.lock().expect("sessions poisoned");
        table.by_sid.remove(rsid);
        table.by_key.remove(&entry.key);
    }
    out.push_str(&raw);
}

/// One request/reply exchange with bounded retry. On failure the shard
/// is probed and, when unreachable, respawned with its journal
/// replayed; `make_line` re-renders the request per attempt so a
/// post-recovery backend sid is picked up. Returns the attempt count on
/// exhaustion.
fn call_shard(
    state: &Arc<RouterState>,
    shard_idx: usize,
    make_line: &dyn Fn() -> String,
) -> Result<String, u32> {
    let shard = &state.shards[shard_idx];
    let mut attempt: u32 = 0;
    loop {
        let generation = shard.generation.load(Ordering::SeqCst);
        match exchange_once(state, shard, generation, &make_line()) {
            Ok(raw) => return Ok(raw),
            Err(_) if attempt < state.max_retries => {
                attempt += 1;
                state.metrics.counter("router.retries").inc();
                recover(state, shard_idx, generation);
                std::thread::sleep(state.retry_backoff * attempt);
            }
            Err(_) => return Err(attempt + 1),
        }
    }
}

/// Writes one line and strictly reads one reply over a pooled
/// connection. Any error poisons the connection (dropped, not
/// repooled).
fn exchange_once(
    state: &Arc<RouterState>,
    shard: &Shard,
    generation: u64,
    line: &str,
) -> std::io::Result<String> {
    let mut conn = checkout(state, shard, generation)?;
    let t0 = Instant::now();
    conn.writer.write_line(line)?;
    let reply = conn.reader.read_line_strict()?;
    shard.requests.inc();
    shard.request_us.observe_duration(t0.elapsed());
    repool(shard, conn);
    Ok(reply)
}

fn checkout(
    state: &Arc<RouterState>,
    shard: &Shard,
    generation: u64,
) -> std::io::Result<BackendConn> {
    if let Some(conn) = shard.pool.lock().expect("pool poisoned").pop() {
        if conn.generation == generation {
            return Ok(conn);
        }
        // Stale generation: the socket predates a recovery.
    }
    let addr = shard.addr.lock().expect("addr poisoned").clone();
    let writer = Conn::connect_tcp(&addr)?;
    writer.set_read_timeout(Some(state.io_timeout))?;
    writer.set_write_timeout(Some(state.io_timeout))?;
    let reader = LineReader::new(writer.try_clone()?);
    Ok(BackendConn {
        writer,
        reader,
        generation,
    })
}

fn repool(shard: &Shard, conn: BackendConn) {
    if conn.generation == shard.generation.load(Ordering::SeqCst) {
        shard.pool.lock().expect("pool poisoned").push(conn);
    }
}

/// Post-failure recovery, serialized on the shard's host lock. The
/// generation observed at exchange time decides whether this thread
/// does the work or a concurrent failure already did it.
fn recover(state: &Arc<RouterState>, shard_idx: usize, observed_generation: u64) {
    let shard = &state.shards[shard_idx];
    let mut host = shard.host.lock().expect("host poisoned");
    if shard.generation.load(Ordering::SeqCst) != observed_generation {
        return; // someone recovered while we waited for the lock
    }
    shard.pool.lock().expect("pool poisoned").clear();
    let addr = shard.addr.lock().expect("addr poisoned").clone();
    let probe_timeout = state.io_timeout.min(Duration::from_secs(2));
    if !probe(&addr, probe_timeout) {
        match host.respawn() {
            Ok(new_addr) => {
                state.metrics.counter("router.respawns").inc();
                // A backend with a durable journal recovers its own
                // sessions — with the *same* backend sids — before it
                // accepts connections. Attaching to it is both cheaper
                // and cleaner than re-sending every load line; the
                // in-memory replay is the fallback for journal-less
                // (or torn-journal) backends.
                if backend_self_recovered(state, shard_idx, &new_addr) {
                    state.metrics.counter("router.recoveries.attached").inc();
                } else {
                    state.metrics.counter("router.recoveries.replayed").inc();
                    replay_journal(state, shard_idx, &new_addr);
                }
                *shard.addr.lock().expect("addr poisoned") = new_addr;
            }
            Err(_) => {
                // Attached backend: nothing we can do; retries will keep
                // probing until the operator brings it back.
            }
        }
    }
    shard.generation.fetch_add(1, Ordering::SeqCst);
}

/// Whether the freshly respawned backend at `addr` already recovered
/// this shard's sessions from its own durable journal
/// (`tbaad --journal-dir`). The backend replays *before* it accepts
/// connections, and its journal guarantees the recovered sessions keep
/// their pre-crash backend sids — so the router checks each mapped
/// backend sid individually against the `engines` table of one `stats`
/// reply (keyed by live session id) and attaches only when every one
/// survived. A count heuristic is not enough: a journal that recovered
/// a same-sized but *different* session set (say, a replay failure
/// offset by an extra live session) would leave dangling sid mappings.
/// Any missing sid, or an unreadable `stats` reply, falls back to the
/// in-memory replay path.
fn backend_self_recovered(state: &Arc<RouterState>, shard_idx: usize, addr: &str) -> bool {
    let expected: Vec<String> = {
        let table = state.sessions.lock().expect("sessions poisoned");
        table
            .by_sid
            .values()
            .filter(|e| e.shard == shard_idx)
            .map(|e| e.backend_sid.clone())
            .collect()
    };
    if expected.is_empty() {
        return true; // nothing to replay either way
    }
    let Some(stats) = fetch_stats(addr, state.io_timeout.min(Duration::from_secs(2))) else {
        return false;
    };
    let Some(engines) = stats.get("engines") else {
        return false;
    };
    expected.iter().all(|sid| engines.get(sid).is_some())
}

/// One `stats` round trip against a raw backend address, parsed.
fn fetch_stats(addr: &str, timeout: Duration) -> Option<Value<'static>> {
    let mut conn = Conn::connect_tcp(addr).ok()?;
    conn.set_read_timeout(Some(timeout)).ok()?;
    conn.set_write_timeout(Some(timeout)).ok()?;
    conn.write_line(r#"{"op":"stats"}"#).ok()?;
    let read_half = conn.try_clone().ok()?;
    let raw = LineReader::new(read_half).read_line_strict().ok()?;
    Some(parse(&raw).ok()?.into_owned())
}

/// Whether a backend answers a `stats` round trip within `timeout`.
fn probe(addr: &str, timeout: Duration) -> bool {
    let Ok(mut conn) = Conn::connect_tcp(addr) else {
        return false;
    };
    if conn.set_read_timeout(Some(timeout)).is_err()
        || conn.set_write_timeout(Some(timeout)).is_err()
        || conn.write_line(r#"{"op":"stats"}"#).is_err()
    {
        return false;
    }
    let Ok(read_half) = conn.try_clone() else {
        return false;
    };
    LineReader::new(read_half).read_line_strict().is_ok()
}

/// Re-`load`s every journaled session owned by `shard_idx` into the
/// fresh backend at `addr`, updating the table's backend sids.
fn replay_journal(state: &Arc<RouterState>, shard_idx: usize, addr: &str) {
    let entries: Vec<(String, String)> = {
        let table = state.sessions.lock().expect("sessions poisoned");
        table
            .by_sid
            .iter()
            .filter(|(_, e)| e.shard == shard_idx)
            .map(|(rsid, e)| (rsid.clone(), e.load_line.clone()))
            .collect()
    };
    if entries.is_empty() {
        return;
    }
    let Ok(writer) = Conn::connect_tcp(addr) else {
        return; // next retry probes again
    };
    let _ = writer.set_read_timeout(Some(state.io_timeout));
    let _ = writer.set_write_timeout(Some(state.io_timeout));
    let Ok(read_half) = writer.try_clone() else {
        return;
    };
    let mut writer = writer;
    let mut reader = LineReader::new(read_half);
    for (rsid, load_line) in entries {
        if writer.write_line(&load_line).is_err() {
            return;
        }
        let Ok(raw) = reader.read_line_strict() else {
            return;
        };
        let Ok(v) = parse(&raw) else { continue };
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            continue; // it compiled once; a failure here is not actionable
        }
        if let Some(backend_sid) = v.get("session").and_then(Value::as_str) {
            state.metrics.counter("router.journal_loads_replayed").inc();
            let mut table = state.sessions.lock().expect("sessions poisoned");
            if let Some(entry) = table.by_sid.get_mut(&rsid) {
                entry.backend_sid = backend_sid.to_string();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pipelined batches
// ---------------------------------------------------------------------

/// A query ready to pipeline: its router sid and parsed request.
struct PreppedQuery {
    verb: &'static str,
    rsid: String,
    parsed: Value<'static>,
}

/// Classifies a line as a pipelineable query (alias/pairs/rle on a
/// known session) and names its owning shard.
fn prep_query(state: &Arc<RouterState>, line: &str) -> Option<(usize, PreppedQuery)> {
    let req = decode_request(line).ok()?;
    let (verb, rsid) = match &req {
        Request::Alias { session, .. } => ("alias", session.to_string()),
        Request::Pairs { session, .. } => ("pairs", session.to_string()),
        Request::Rle { session, .. } => ("rle", session.to_string()),
        _ => return None,
    };
    let shard = {
        let table = state.sessions.lock().expect("sessions poisoned");
        table.by_sid.get(&rsid)?.shard
    };
    let parsed = parse(line).ok()?.into_owned();
    Some((
        shard,
        PreppedQuery {
            verb,
            rsid,
            parsed,
        },
    ))
}

/// Forwards a same-shard run of queries in one pipelined exchange:
/// write all rewritten lines, then strictly read the replies in order,
/// appending newline-terminated replies to `out`. `batch` is the
/// rewritten-request scratch buffer, owned by the caller and reused
/// across runs (and shards) so steady-state proxying allocates nothing.
/// Any error rolls `out` back and fails the whole run (the caller falls
/// back to the per-line path, which retries and recovers).
fn pipeline_run(
    state: &Arc<RouterState>,
    shard_idx: usize,
    run: &[PreppedQuery],
    batch: &mut String,
    out: &mut String,
) -> Result<(), ()> {
    let shard = &state.shards[shard_idx];
    let generation = shard.generation.load(Ordering::SeqCst);
    let mut conn = checkout(state, shard, generation).map_err(|_| ())?;
    let t0 = Instant::now();
    batch.clear();
    for q in run {
        let backend_sid = {
            let table = state.sessions.lock().expect("sessions poisoned");
            table
                .by_sid
                .get(&q.rsid)
                .map(|e| e.backend_sid.clone())
                .unwrap_or_else(|| q.rsid.clone())
        };
        let mut line = q.parsed.clone();
        set_session(&mut line, &backend_sid);
        line.encode_into(batch);
        batch.push('\n');
    }
    {
        use std::io::Write;
        conn.writer
            .write_all(batch.as_bytes())
            .and_then(|()| conn.writer.flush())
            .map_err(|_| ())?;
    }
    let start = out.len();
    for q in run {
        let raw = match conn.reader.read_line_strict() {
            Ok(raw) => raw,
            Err(_) => {
                out.truncate(start);
                return Err(());
            }
        };
        shard.requests.inc();
        shard.request_us.observe_duration(t0.elapsed());
        state
            .metrics
            .counter(&format!("router.requests.{}", q.verb))
            .inc();
        state
            .metrics
            .histogram("router.request_us", LATENCY_US_BUCKETS)
            .observe_duration(t0.elapsed());
        rewrite_reply_sid(raw, &q.rsid, out);
        out.push('\n');
    }
    repool(shard, conn);
    Ok(())
}

fn route_batch(state: &Arc<RouterState>, lines: &[String], out: &mut String) {
    // Scratch buffer for rewritten backend request lines, reused across
    // every pipelined run in the batch regardless of destination shard.
    let mut batch = String::new();
    let mut i = 0;
    while i < lines.len() {
        if let Some((shard, first)) = prep_query(state, &lines[i]) {
            let mut run = vec![first];
            let mut j = i + 1;
            while j < lines.len() {
                match prep_query(state, &lines[j]) {
                    Some((s, q)) if s == shard => {
                        run.push(q);
                        j += 1;
                    }
                    _ => break,
                }
            }
            if run.len() >= 2 && pipeline_run(state, shard, &run, &mut batch, out).is_ok() {
                i = j;
                continue;
            }
            // Failed mid-pipeline (or a singleton run): route the line
            // individually — queries are idempotent reads, and the
            // poisoned connection was dropped with its half-read
            // replies.
        }
        route_line(state, &lines[i], out);
        out.push('\n');
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Aggregated stats
// ---------------------------------------------------------------------

/// `inf` sorts after every finite bucket bound.
const INF_KEY: i64 = i64::MAX;

#[derive(Default)]
struct MergedStats {
    counters: std::collections::BTreeMap<String, i64>,
    gauges: std::collections::BTreeMap<String, i64>,
    /// name → (count, sum, le → n)
    histograms: std::collections::BTreeMap<String, (i64, i64, std::collections::BTreeMap<i64, i64>)>,
}

impl MergedStats {
    fn absorb(&mut self, snapshot: &Value<'_>) {
        if let Some(Value::Object(items)) = snapshot.get("counters") {
            for (name, v) in items {
                if let Some(n) = v.as_i64() {
                    *self.counters.entry(name.to_string()).or_insert(0) += n;
                }
            }
        }
        if let Some(Value::Object(items)) = snapshot.get("gauges") {
            for (name, v) in items {
                if let Some(n) = v.as_i64() {
                    *self.gauges.entry(name.to_string()).or_insert(0) += n;
                }
            }
        }
        if let Some(Value::Object(items)) = snapshot.get("histograms") {
            for (name, h) in items {
                let entry = self.histograms.entry(name.to_string()).or_default();
                entry.0 += h.get("count").and_then(Value::as_i64).unwrap_or(0);
                entry.1 += h.get("sum").and_then(Value::as_i64).unwrap_or(0);
                if let Some(buckets) = h.get("buckets").and_then(Value::as_array) {
                    for b in buckets {
                        let Some(pair) = b.as_array() else { continue };
                        let (Some(le), Some(n)) = (pair.first(), pair.get(1)) else {
                            continue;
                        };
                        let key = le.as_i64().unwrap_or(INF_KEY);
                        *entry.2.entry(key).or_insert(0) += n.as_i64().unwrap_or(0);
                    }
                }
            }
        }
    }

    fn render(&self) -> Value<'static> {
        let counters: Vec<(Cow<'static, str>, Value<'static>)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone().into(), Value::Int(*v)))
            .collect();
        let gauges: Vec<(Cow<'static, str>, Value<'static>)> = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone().into(), Value::Int(*v)))
            .collect();
        let histograms: Vec<(Cow<'static, str>, Value<'static>)> = self
            .histograms
            .iter()
            .map(|(name, (count, sum, buckets))| {
                let mean = if *count == 0 {
                    0.0
                } else {
                    *sum as f64 / *count as f64
                };
                let rendered: Vec<Value<'static>> = buckets
                    .iter()
                    .map(|(le, n)| {
                        let le = if *le == INF_KEY {
                            Value::Str("inf".into())
                        } else {
                            Value::Int(*le)
                        };
                        Value::Array(vec![le, Value::Int(*n)])
                    })
                    .collect();
                (
                    name.clone().into(),
                    Value::object(vec![
                        ("count", Value::Int(*count)),
                        ("sum", Value::Int(*sum)),
                        ("mean", Value::Float((mean * 1000.0).round() / 1000.0)),
                        ("buckets", Value::Array(rendered)),
                    ]),
                )
            })
            .collect();
        Value::object(vec![
            ("counters", Value::Object(counters)),
            ("gauges", Value::Object(gauges)),
            ("histograms", Value::Object(histograms)),
        ])
    }
}

fn route_stats(state: &Arc<RouterState>, out: &mut String) {
    let mut merged = MergedStats::default();
    let mut live = 0i64;
    let mut capacity = 0i64;
    let mut engines: Vec<(Cow<'static, str>, Value<'static>)> = Vec::new();
    let mut per_shard: Vec<Value<'static>> = Vec::new();

    // Backend sid → router sid, for the engines table.
    let reverse: HashMap<(usize, String), String> = {
        let table = state.sessions.lock().expect("sessions poisoned");
        table
            .by_sid
            .iter()
            .map(|(rsid, e)| ((e.shard, e.backend_sid.clone()), rsid.clone()))
            .collect()
    };

    for shard in &state.shards {
        let addr = shard.addr.lock().expect("addr poisoned").clone();
        let label = shard.host.lock().expect("host poisoned").label();
        let line = r#"{"op":"stats"}"#.to_string();
        let reachable = match call_shard(state, shard.index, &|| line.clone()) {
            Ok(raw) => match parse(&raw) {
                Ok(v) => {
                    if let Some(snapshot) = v.get("stats") {
                        merged.absorb(snapshot);
                    }
                    if let Some(sessions) = v.get("sessions") {
                        live += sessions.get("live").and_then(Value::as_i64).unwrap_or(0);
                        capacity += sessions.get("capacity").and_then(Value::as_i64).unwrap_or(0);
                    }
                    if let Some(Value::Object(items)) = v.get("engines") {
                        for (backend_sid, engine) in items {
                            if let Some(rsid) =
                                reverse.get(&(shard.index, backend_sid.to_string()))
                            {
                                engines.push((rsid.clone().into(), engine.clone().into_owned()));
                            }
                        }
                    }
                    true
                }
                Err(_) => false,
            },
            Err(_) => false,
        };
        per_shard.push(Value::object(vec![
            ("index", Value::Int(shard.index as i64)),
            ("backend", Value::Str(label.into())),
            ("addr", Value::Str(addr.into())),
            ("reachable", Value::Bool(reachable)),
            ("requests", Value::Int(shard.requests.get() as i64)),
            ("request_us", shard.request_us.to_json()),
        ]));
    }
    engines.sort_by(|a, b| a.0.cmp(&b.0));

    // The imbalance gauge: spread between the busiest and idlest shard,
    // as a percentage of the busiest.
    let loads: Vec<u64> = state.shards.iter().map(|s| s.requests.get()).collect();
    let max = loads.iter().copied().max().unwrap_or(0);
    let min = loads.iter().copied().min().unwrap_or(0);
    let imbalance = ((max - min) * 100).checked_div(max).unwrap_or(0) as i64;
    state.metrics.gauge("router.imbalance_pct").set(imbalance);

    // Fold the router's own instruments into the same merged snapshot
    // (names are `router.*`-prefixed, so nothing double-counts).
    merged.absorb(&state.metrics.snapshot());

    let router_section = Value::object(vec![
        ("shards", Value::Int(state.shards.len() as i64)),
        (
            "sessions",
            Value::Int(state.sessions.lock().expect("sessions poisoned").by_sid.len() as i64),
        ),
        (
            "retries",
            Value::Int(state.metrics.counter("router.retries").get() as i64),
        ),
        (
            "respawns",
            Value::Int(state.metrics.counter("router.respawns").get() as i64),
        ),
        (
            "recoveries",
            Value::object(vec![
                (
                    "attached",
                    Value::Int(state.metrics.counter("router.recoveries.attached").get() as i64),
                ),
                (
                    "replayed",
                    Value::Int(state.metrics.counter("router.recoveries.replayed").get() as i64),
                ),
                (
                    "journal_loads_replayed",
                    Value::Int(
                        state.metrics.counter("router.journal_loads_replayed").get() as i64
                    ),
                ),
            ]),
        ),
        ("imbalance_pct", Value::Int(imbalance)),
        ("per_shard", Value::Array(per_shard)),
    ]);

    ok_reply(vec![
        (
            "uptime_us",
            Value::Int((state.started.elapsed().as_micros() as i64).max(1)),
        ),
        ("stats", merged.render()),
        (
            "sessions",
            Value::object(vec![
                ("live", Value::Int(live)),
                ("capacity", Value::Int(capacity)),
            ]),
        ),
        ("engines", Value::Object(engines)),
        ("router", router_section),
    ])
    .encode_into(out);
}
