//! `tbaa-loadgen` — load, chaos, and differential-correctness harness
//! for the `tbaad` daemon.
//!
//! Spawns a `tbaad` (or connects to one), drives it with N concurrent
//! client threads issuing mixed `load`/`alias`/`pairs`/`rle`/`stats`
//! traffic over several sessions, and records per-verb latency into
//! log-bucketed histograms. Every reply (or a 1-in-`--sample` sample)
//! is checked byte-for-byte against the in-process `Pipeline` oracle
//! from `tbaa_bench::load`, so the run is a correctness soak as much as
//! a stopwatch. A `stats` poller correlates client-observed latency
//! with the daemon's own worker/LRU/engine metrics, and everything
//! lands in a `BENCH_server_load.json` artifact.
//!
//! ```text
//! tbaa-loadgen [--clients N] [--duration SECS] [--mode closed|open]
//!              [--rate R] [--chaos] [--chaos-clients N] [--sample N]
//!              [--seed S] [--benches a,b,c] [--scale N] [--mutate N]
//!              [--server-workers N] [--server-capacity N]
//!              [--daemon PATH | --connect HOST:PORT | --router N] [--tcp]
//!              [--kill-backend] [--crash-restart N] [--journal-dir DIR]
//!              [--out PATH] [--smoke]
//! ```
//!
//! * `--mode closed` (default): each client sends one request, waits
//!   for the reply, repeats — measures service latency under exactly
//!   `--clients` in flight.
//! * `--mode open`: each client fires at a fixed `--rate` requests/sec
//!   regardless of replies (pipelined on its connection), so queueing
//!   delay shows up in the latency when the daemon saturates.
//! * `--router N`: drive an in-process `tbaa-router` front tier over
//!   `N` in-process `tbaad` shards instead of a single daemon — the
//!   same differential gates apply end to end through the proxy, and
//!   the artifact gains a `router` section (per-shard latency,
//!   retries, respawns, imbalance).
//! * `--kill-backend`: with `--router`, murder one backend shard
//!   halfway through the run; the gates then also demand ≥ 1 respawn
//!   and still zero divergences.
//! * `--crash-restart N`: spawn `tbaad` with a durable session journal
//!   (`--journal-dir`, defaulting to a fresh temp dir) and hard-kill it
//!   (SIGKILL, no drain) `N` times mid-run. After each kill the daemon
//!   is restarted over the same journal; the harness then demands that
//!   recovery actually ran (`journal.replayed` ≥ 1), probes every
//!   session learned before the crash — a recovered `load` must answer
//!   `cached:true` under one of its pre-crash session ids — and keeps
//!   the byte-for-byte differential oracle on for the traffic in every
//!   phase. The artifact gains a `crash_restart` section.
//! * `--mutate N`: replace the benchsuite contents with `N` superseding
//!   versions of one program — mostly single-function edits, with
//!   occasional whole-program rewrites — so every client keeps issuing
//!   `load`s of near-identical sources and the daemon's incremental
//!   compilation cache (`incr.*` counters) does the work. The artifact
//!   gains an `incremental` section and the gates additionally demand a
//!   nonzero function-reuse count, still under the same byte-for-byte
//!   differential oracle.
//! * `--chaos`: adds misbehaving clients (malformed JSON, nesting
//!   bombs, half-written requests, mid-request disconnects, slow
//!   readers, `--server-workers` idle connections held open while one
//!   more must be answered within 1 s, a request line that never ends)
//!   alongside the well-behaved ones; the gates still demand zero
//!   differential mismatches and zero daemon panics/deaths.
//!
//! Exit status is 0 only if every gate passes: no byte mismatches, no
//! server-side panics, no unexpected chaos outcomes, and (when the
//! daemon was spawned here) a clean exit after `shutdown`.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tbaa_bench::load::{
    CheckOutcome, Content, DiffChecker, LineSource, ReqKind, Tick, VerbLatencies, Wire,
    WorkloadGen,
};
use tbaa_bench::rng::XorShift64;
use tbaa_router::{BackendSpec, Router, RouterConfig, RouterHandle, RouterState};
use tbaa_server::json::{parse, Value};
use tbaa_server::net::MAX_LINE_BYTES;
use tbaa_server::ServerConfig;

// ---- configuration ---------------------------------------------------------

#[derive(Clone)]
struct Config {
    clients: usize,
    duration: Duration,
    open_loop: bool,
    rate: f64,
    chaos: bool,
    chaos_clients: usize,
    sample: u64,
    seed: u64,
    benches: Vec<String>,
    scale: u32,
    mutate: Option<usize>,
    server_workers: usize,
    server_capacity: usize,
    daemon: Option<String>,
    connect: Option<String>,
    router: Option<usize>,
    kill_backend: bool,
    crash_restart: Option<usize>,
    journal_dir: Option<String>,
    force_tcp: bool,
    out: String,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: tbaa-loadgen [--clients N] [--duration SECS] [--mode closed|open] [--rate R]\n\
         \u{20}                   [--chaos] [--chaos-clients N] [--sample N] [--seed S]\n\
         \u{20}                   [--benches a,b,c] [--scale N] [--mutate N] [--server-workers N]\n\
         \u{20}                   [--server-capacity N] [--daemon PATH | --connect HOST:PORT |\n\
         \u{20}                   --router N] [--kill-backend] [--crash-restart N]\n\
         \u{20}                   [--journal-dir DIR] [--tcp] [--out PATH] [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config {
        clients: 8,
        duration: Duration::from_secs(10),
        open_loop: false,
        rate: 200.0,
        chaos: false,
        chaos_clients: 2,
        sample: 1,
        seed: 42,
        benches: vec!["ktree".into(), "slisp".into()],
        scale: 2,
        mutate: None,
        server_workers: 16,
        server_capacity: 32,
        daemon: None,
        connect: None,
        router: None,
        kill_backend: false,
        crash_restart: None,
        journal_dir: None,
        force_tcp: false,
        out: "BENCH_server_load.json".into(),
        smoke: false,
    };
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--clients" => cfg.clients = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--duration" => {
                cfg.duration =
                    Duration::from_secs_f64(take(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--mode" => match take(&mut i).as_str() {
                "closed" => cfg.open_loop = false,
                "open" => cfg.open_loop = true,
                _ => usage(),
            },
            "--rate" => cfg.rate = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--chaos" => cfg.chaos = true,
            "--chaos-clients" => {
                cfg.chaos_clients = take(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--sample" => {
                cfg.sample = take(&mut i).parse::<u64>().unwrap_or_else(|_| usage()).max(1)
            }
            "--seed" => cfg.seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--benches" => {
                cfg.benches = take(&mut i).split(',').map(|s| s.trim().to_string()).collect()
            }
            "--scale" => cfg.scale = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--mutate" => {
                cfg.mutate =
                    Some(take(&mut i).parse::<usize>().unwrap_or_else(|_| usage()).max(2))
            }
            "--server-workers" => {
                cfg.server_workers = take(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--server-capacity" => {
                cfg.server_capacity = take(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--daemon" => cfg.daemon = Some(take(&mut i)),
            "--connect" => cfg.connect = Some(take(&mut i)),
            "--router" => {
                cfg.router = Some(take(&mut i).parse::<usize>().unwrap_or_else(|_| usage()).max(1))
            }
            "--kill-backend" => cfg.kill_backend = true,
            "--crash-restart" => {
                cfg.crash_restart =
                    Some(take(&mut i).parse::<usize>().unwrap_or_else(|_| usage()).max(1))
            }
            "--journal-dir" => cfg.journal_dir = Some(take(&mut i)),
            "--tcp" => cfg.force_tcp = true,
            "--out" => cfg.out = take(&mut i),
            "--smoke" => cfg.smoke = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("tbaa-loadgen: unknown argument `{other}`");
                usage();
            }
        }
        i += 1;
    }
    if cfg.smoke {
        // Small enough for CI, still concurrent enough to mean something.
        cfg.clients = cfg.clients.min(4);
        cfg.duration = Duration::from_secs(2);
        cfg.chaos = true;
        cfg.scale = 1;
    }
    if cfg.kill_backend && cfg.router.is_none() {
        eprintln!("tbaa-loadgen: --kill-backend requires --router N");
        usage();
    }
    if cfg.crash_restart.is_some() {
        if cfg.connect.is_some() || cfg.router.is_some() {
            eprintln!("tbaa-loadgen: --crash-restart drives a spawned daemon; it cannot be combined with --connect or --router");
            usage();
        }
        // A SIGKILLed daemon leaves its Unix socket file behind and the
        // restart would fail to bind it; crash mode always talks TCP.
        cfg.force_tcp = true;
    }
    cfg
}

// ---- daemon management -----------------------------------------------------

/// Where the clients connect.
#[derive(Clone)]
enum Endpoint {
    Tcp(String),
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

impl Endpoint {
    fn connect(&self) -> std::io::Result<Wire> {
        match self {
            Endpoint::Tcp(addr) => Wire::connect_tcp(addr.as_str()),
            #[cfg(unix)]
            Endpoint::Unix(path) => Wire::connect_unix(path),
        }
    }

    fn describe(&self) -> String {
        match self {
            Endpoint::Tcp(addr) => format!("tcp {addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => format!("unix {}", path.display()),
        }
    }
}

/// A spawned daemon, an in-process router front tier, or a connection
/// to an external daemon.
struct Daemon {
    child: Option<Child>,
    router: Option<RouterHandle>,
    endpoint: Endpoint,
    #[cfg(unix)]
    sock_path: Option<std::path::PathBuf>,
}

impl Daemon {
    /// Spawns `tbaad` on an ephemeral port (plus a Unix socket on unix,
    /// which becomes the preferred endpoint unless `--tcp`), scraping
    /// the printed address.
    fn spawn(cfg: &Config) -> Result<Daemon, String> {
        let bin = match &cfg.daemon {
            Some(p) => std::path::PathBuf::from(p),
            None => {
                // Sibling of this binary in the same target directory.
                let me = std::env::current_exe().map_err(|e| e.to_string())?;
                me.with_file_name(if cfg!(windows) { "tbaad.exe" } else { "tbaad" })
            }
        };
        if !bin.exists() {
            return Err(format!(
                "daemon binary not found at {} (build it, or pass --daemon PATH)",
                bin.display()
            ));
        }
        let mut cmd = Command::new(&bin);
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg(cfg.server_workers.to_string())
            .arg("--capacity")
            .arg(cfg.server_capacity.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = &cfg.journal_dir {
            cmd.arg("--journal-dir").arg(dir);
        }
        #[cfg(unix)]
        let sock_path = if cfg.force_tcp {
            None
        } else {
            let p = std::env::temp_dir().join(format!("tbaa-loadgen-{}.sock", std::process::id()));
            cmd.arg("--socket").arg(&p);
            Some(p)
        };
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        // Scrape "tbaad listening on ADDR" from the first stdout line.
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read daemon banner: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("tbaad listening on ")
            .ok_or_else(|| format!("unexpected daemon banner: {line:?}"))?
            .to_string();
        #[cfg(unix)]
        let endpoint = match &sock_path {
            Some(p) => Endpoint::Unix(p.clone()),
            None => Endpoint::Tcp(addr),
        };
        #[cfg(not(unix))]
        let endpoint = Endpoint::Tcp(addr);
        Ok(Daemon {
            child: Some(child),
            router: None,
            endpoint,
            #[cfg(unix)]
            sock_path,
        })
    }

    fn external(addr: &str) -> Daemon {
        Daemon {
            child: None,
            router: None,
            endpoint: Endpoint::Tcp(addr.to_string()),
            #[cfg(unix)]
            sock_path: None,
        }
    }

    /// An in-process `tbaa-router` over `shards` in-process `tbaad`
    /// backends — the `--router N` deployment.
    fn router(cfg: &Config, shards: usize) -> Result<Daemon, String> {
        let config = RouterConfig::builder()
            .addr("127.0.0.1:0")
            .shards(shards)
            .workers(cfg.server_workers)
            .io_timeout(Duration::from_secs(30))
            .backend(BackendSpec::InProcess {
                config: ServerConfig::builder()
                    .workers(cfg.server_workers)
                    .session_capacity(cfg.server_capacity)
                    .build(),
            })
            .build();
        let handle = Router::bind(config)
            .map_err(|e| format!("bind router: {e}"))?
            .spawn();
        let endpoint = Endpoint::Tcp(handle.addr().to_string());
        Ok(Daemon {
            child: None,
            router: Some(handle),
            endpoint,
            #[cfg(unix)]
            sock_path: None,
        })
    }

    /// The router's shared state, when running in `--router` mode.
    fn router_state(&self) -> Option<Arc<RouterState>> {
        self.router.as_ref().map(|h| h.state().clone())
    }

    /// True while the spawned daemon process is still alive (external
    /// daemons always read as alive).
    fn alive(&mut self) -> bool {
        if let Some(r) = &self.router {
            return !r.is_finished();
        }
        match &mut self.child {
            None => true,
            Some(c) => matches!(c.try_wait(), Ok(None)),
        }
    }

    /// Hard-kills a spawned daemon (SIGKILL on unix): no drain, no
    /// shutdown handshake, no final journal sync — exactly the failure
    /// the durable journal exists to survive.
    fn hard_kill(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.child = None;
    }

    /// Sends `shutdown` and, for a spawned daemon, waits for a clean
    /// exit. Returns an error string on dirty exits.
    fn shutdown(&mut self) -> Result<(), String> {
        if let Ok(mut wire) = self.endpoint.connect() {
            let _ = wire.write_line(r#"{"op":"shutdown"}"#);
            let mut src = LineSource::new(wire);
            let _ = src.read_line_blocking();
        }
        if let Some(handle) = self.router.take() {
            return handle
                .join()
                .map_err(|e| format!("router exited dirty: {e}"));
        }
        let Some(child) = &mut self.child else {
            return Ok(());
        };
        // Bounded wait: a daemon that ignores shutdown is itself a failure.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    #[cfg(unix)]
                    if let Some(p) = &self.sock_path {
                        let _ = std::fs::remove_file(p);
                    }
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited dirty: {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit within 10s of shutdown; killed".into());
                }
                Err(e) => return Err(format!("wait on daemon: {e}")),
            }
        }
    }
}

// ---- well-behaved clients --------------------------------------------------

#[derive(Default)]
struct ClientResult {
    latency: VerbLatencies,
    sent: u64,
    replies: u64,
    io_errors: u64,
}

/// Closed loop: send, wait for the reply, repeat.
fn run_closed(
    endpoint: &Endpoint,
    checker: &Arc<DiffChecker>,
    contents: &Arc<Vec<Content>>,
    seed: u64,
    sample: u64,
    deadline: Instant,
) -> ClientResult {
    let mut out = ClientResult::default();
    let Ok(wire) = endpoint.connect() else {
        out.io_errors += 1;
        return out;
    };
    let Ok(mut writer) = wire.try_clone() else {
        out.io_errors += 1;
        return out;
    };
    let mut src = LineSource::new(wire);
    let mut gen = WorkloadGen::new(seed, contents.clone());
    let mut n = 0u64;
    while Instant::now() < deadline {
        let req = gen.next(checker.oracle());
        let t0 = Instant::now();
        if writer.write_line(&req.line).is_err() {
            out.io_errors += 1;
            break;
        }
        out.sent += 1;
        let raw = match src.read_line_blocking() {
            Ok(l) => l,
            Err(_) => {
                out.io_errors += 1;
                break;
            }
        };
        out.replies += 1;
        out.latency.observe(req.kind.verb(), t0.elapsed());
        n += 1;
        // Loads are always checked (the generator needs the session id);
        // query replies honor the sampling knob.
        let is_load = matches!(req.kind, ReqKind::Load { .. });
        if is_load || n.is_multiple_of(sample) {
            if let CheckOutcome::Loaded { sid } = checker.check(&req.kind, &raw) {
                if let ReqKind::Load { key } = &req.kind {
                    gen.observe_load(key, &sid);
                }
            }
        }
    }
    out
}

/// Open loop: fire at a fixed rate, read replies asynchronously off the
/// same connection (the daemon serves one connection sequentially, so
/// replies come back in request order and queueing shows up as latency).
fn run_open(
    endpoint: &Endpoint,
    checker: &Arc<DiffChecker>,
    contents: &Arc<Vec<Content>>,
    seed: u64,
    sample: u64,
    rate: f64,
    deadline: Instant,
) -> ClientResult {
    let mut out = ClientResult::default();
    let Ok(wire) = endpoint.connect() else {
        out.io_errors += 1;
        return out;
    };
    let _ = wire.set_read_timeout(Some(Duration::from_millis(2)));
    let Ok(mut writer) = wire.try_clone() else {
        out.io_errors += 1;
        return out;
    };
    let mut src = LineSource::new(wire);
    let mut gen = WorkloadGen::new(seed, contents.clone());
    let interval = Duration::from_secs_f64(1.0 / rate.max(0.001));
    let mut next_send = Instant::now();
    let mut inflight: VecDeque<(ReqKind, Instant)> = VecDeque::new();
    let mut n = 0u64;
    // After the send window closes, allow a grace period to drain.
    let drain_deadline = deadline + Duration::from_secs(10);
    loop {
        let now = Instant::now();
        if now >= deadline && inflight.is_empty() {
            break;
        }
        if now >= drain_deadline {
            out.io_errors += inflight.len() as u64; // unanswered requests
            break;
        }
        if now < deadline && now >= next_send {
            let req = gen.next(checker.oracle());
            if writer.write_line(&req.line).is_err() {
                out.io_errors += 1;
                break;
            }
            out.sent += 1;
            inflight.push_back((req.kind, Instant::now()));
            next_send += interval;
            continue; // catch up on a burst before blocking in read
        }
        match src.tick() {
            Ok(Tick::Line(raw)) => {
                let Some((kind, t0)) = inflight.pop_front() else {
                    out.io_errors += 1; // reply with no outstanding request
                    break;
                };
                out.replies += 1;
                out.latency.observe(kind.verb(), t0.elapsed());
                n += 1;
                let is_load = matches!(kind, ReqKind::Load { .. });
                if is_load || n.is_multiple_of(sample) {
                    if let CheckOutcome::Loaded { sid } = checker.check(&kind, &raw) {
                        if let ReqKind::Load { key } = &kind {
                            gen.observe_load(key, &sid);
                        }
                    }
                }
            }
            Ok(Tick::Idle(_)) => {}
            Ok(Tick::TooLong) | Ok(Tick::Eof) | Err(_) => {
                if !inflight.is_empty() || Instant::now() < deadline {
                    out.io_errors += 1;
                }
                break;
            }
        }
    }
    out
}

// ---- crash-restart mode ----------------------------------------------------

#[derive(Default)]
struct CrashClientResult {
    sent: u64,
    replies: u64,
    /// Requests severed by a kill: the write failed, or the connection
    /// died before the reply arrived. Expected during a crash phase —
    /// counted, reported, never gated.
    truncations: u64,
}

/// Closed-loop client that expects to be cut off. A severed connection
/// counts as a truncation rather than a divergence, and the client keeps
/// trying to reconnect until the phase deadline so that traffic resumes
/// the moment a restarted daemon starts listening again. Every reply
/// that does arrive still goes through the byte-for-byte oracle.
fn run_crash_phase(
    endpoint: &Endpoint,
    checker: &Arc<DiffChecker>,
    contents: &Arc<Vec<Content>>,
    seed: u64,
    deadline: Instant,
) -> CrashClientResult {
    let mut out = CrashClientResult::default();
    let mut gen = WorkloadGen::new(seed, contents.clone());
    while Instant::now() < deadline {
        let Ok(wire) = endpoint.connect() else {
            // Daemon down (or not yet back up): retry until the deadline.
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        let Ok(mut writer) = wire.try_clone() else {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        let mut src = LineSource::new(wire);
        while Instant::now() < deadline {
            let req = gen.next(checker.oracle());
            if writer.write_line(&req.line).is_err() {
                out.truncations += 1;
                break;
            }
            out.sent += 1;
            let raw = match src.read_line_blocking() {
                Ok(l) => l,
                Err(_) => {
                    out.truncations += 1;
                    break;
                }
            };
            out.replies += 1;
            if let CheckOutcome::Loaded { sid } = checker.check(&req.kind, &raw) {
                if let ReqKind::Load { key } = &req.kind {
                    gen.observe_load(key, &sid);
                }
            }
        }
    }
    out
}

#[derive(Default)]
struct ProbeResult {
    /// Sessions learned before the crash that were probed after it.
    probed: u64,
    /// Probes answered `cached:true` under a pre-crash session id.
    matched: u64,
    /// Probes the daemon recompiled fresh (legal when the session had
    /// been evicted before the crash, or sat past a torn journal tail).
    recompiled: u64,
    failures: Vec<String>,
}

/// Re-`load`s every content whose session id was learned before the
/// kill. A recovered daemon must answer `cached:true` — the journal
/// replay already readmitted the session — under one of the session ids
/// the content held before the crash; a fresh id for a cached session
/// means recovery re-minted ids and stale clients would be misrouted.
fn probe_recovery(
    endpoint: &Endpoint,
    checker: &Arc<DiffChecker>,
    contents: &Arc<Vec<Content>>,
    phase: usize,
) -> ProbeResult {
    let mut out = ProbeResult::default();
    let mut by_key: std::collections::HashMap<String, Vec<String>> =
        std::collections::HashMap::new();
    for (sid, key) in checker.known_sids() {
        by_key.entry(key.display()).or_default().push(sid);
    }
    let Ok(wire) = endpoint.connect() else {
        out.failures
            .push(format!("phase {phase}: cannot connect for recovery probes"));
        return out;
    };
    let Ok(mut writer) = wire.try_clone() else {
        out.failures
            .push(format!("phase {phase}: cannot clone probe connection"));
        return out;
    };
    let mut src = LineSource::new(wire);
    for content in contents.iter() {
        let key = content.key();
        let Some(known) = by_key.get(&key.display()) else {
            continue; // never successfully loaded before the crash
        };
        out.probed += 1;
        let line = content.load_line();
        if writer.write_line(&line).is_err() {
            out.failures
                .push(format!("phase {phase}: probe of {} severed", key.display()));
            return out;
        }
        let raw = match src.read_line_blocking() {
            Ok(l) => l,
            Err(e) => {
                out.failures.push(format!(
                    "phase {phase}: probe of {} got no reply ({e})",
                    key.display()
                ));
                return out;
            }
        };
        // The usual differential check first (facts, key, crossed sids).
        let outcome = checker.check(&ReqKind::Load { key: key.clone() }, &raw);
        let CheckOutcome::Loaded { sid } = outcome else {
            if matches!(outcome, CheckOutcome::Mismatch) {
                out.failures.push(format!(
                    "phase {phase}: probe of {} diverged from the oracle",
                    key.display()
                ));
            }
            continue;
        };
        let cached = parse(&raw)
            .ok()
            .and_then(|v| v.get("cached").and_then(Value::as_bool))
            .unwrap_or(false);
        if !cached {
            out.recompiled += 1;
            continue;
        }
        if known.contains(&sid) {
            out.matched += 1;
        } else {
            out.failures.push(format!(
                "phase {phase}: recovered session for {} answered under {sid}, \
                 not one of its pre-crash ids {known:?}",
                key.display()
            ));
        }
    }
    out
}

/// The `--crash-restart N` driver: N+1 traffic phases against a spawned
/// `tbaad` with a durable journal, hard-killing the daemon between
/// phases and gating each restart on real recovery.
fn run_crash_restart(
    cfg: &Config,
    contents: &Arc<Vec<Content>>,
    checker: &Arc<DiffChecker>,
) -> ExitCode {
    let restarts = cfg.crash_restart.unwrap_or(1);
    let mut cfg = cfg.clone();
    let journal_dir = cfg.journal_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("tbaa-loadgen-journal-{}", std::process::id()))
            .display()
            .to_string()
    });
    cfg.journal_dir = Some(journal_dir.clone());
    let phases = restarts + 1;
    let phase_len = (cfg.duration / phases as u32).max(Duration::from_secs(1));
    eprintln!(
        "tbaa-loadgen: crash-restart mode, {restarts} kill(s), {phases} phases of {phase_len:?}, journal at {journal_dir}"
    );

    let started = Instant::now();
    let mut failures: Vec<String> = Vec::new();
    let mut totals = CrashClientResult::default();
    let mut probes = ProbeResult::default();
    let mut replayed_by_restart: Vec<i64> = Vec::new();
    let mut final_stats: Option<Value<'static>> = None;

    for phase in 0..phases {
        let mut daemon = match Daemon::spawn(&cfg) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("tbaa-loadgen: phase {phase}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let endpoint = daemon.endpoint.clone();
        if phase > 0 {
            // The restart must have actually recovered from the journal,
            // and every surviving session must answer under its old id.
            let replayed = poll_stats_once(&endpoint)
                .map_or(0, |s| counter_of(&s, "journal.replayed"));
            replayed_by_restart.push(replayed);
            if replayed == 0 {
                failures.push(format!(
                    "phase {phase}: restarted daemon replayed nothing from the journal"
                ));
            }
            let p = probe_recovery(&endpoint, checker, contents, phase);
            if p.matched == 0 && p.probed > 0 {
                failures.push(format!(
                    "phase {phase}: no probe came back cached under a pre-crash session id"
                ));
            }
            probes.probed += p.probed;
            probes.matched += p.matched;
            probes.recompiled += p.recompiled;
            probes.failures.extend(p.failures);
        }

        let deadline = Instant::now() + phase_len;
        let mut handles = Vec::new();
        for c in 0..cfg.clients {
            let endpoint = endpoint.clone();
            let checker = checker.clone();
            let contents = contents.clone();
            let seed = cfg.seed.wrapping_add((phase as u64) << 16).wrapping_add(1 + c as u64);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("loadgen-crash-{phase}-{c}"))
                    .spawn(move || run_crash_phase(&endpoint, &checker, &contents, seed, deadline))
                    .expect("spawn crash client"),
            );
        }
        if phase < phases - 1 {
            // Mid-phase, murder the daemon: SIGKILL, no drain, no final
            // fsync. The journal must carry every acknowledged load over.
            std::thread::sleep(phase_len / 2);
            eprintln!("tbaa-loadgen: phase {phase}: hard-killing the daemon");
            daemon.hard_kill();
        }
        for h in handles {
            let r = h.join().expect("crash client panicked");
            totals.sent += r.sent;
            totals.replies += r.replies;
            totals.truncations += r.truncations;
        }
        if phase == phases - 1 {
            final_stats = poll_stats_once(&endpoint);
            if let Err(e) = daemon.shutdown() {
                failures.push(e);
            }
        }
    }
    let wall = started.elapsed();

    // ---- gates ----
    let mismatches = checker.mismatches();
    if mismatches > 0 {
        failures.push(format!("{mismatches} differential mismatch(es)"));
        for d in checker.details() {
            eprintln!("tbaa-loadgen: MISMATCH: {d}");
        }
    }
    for f in &probes.failures {
        eprintln!("tbaa-loadgen: PROBE: {f}");
    }
    if !probes.failures.is_empty() {
        failures.push(format!(
            "{} recovery probe failure(s)",
            probes.failures.len()
        ));
    }
    let server_panics = final_stats
        .as_ref()
        .map_or(-1, |s| counter_of(s, "requests.panics"));
    if server_panics != 0 {
        failures.push(format!("server reported {server_panics} request panics"));
    }
    let incr_hits = final_stats
        .as_ref()
        .map_or(0, |s| counter_of(s, "incr.func_hits"));
    if cfg.mutate.is_some() && incr_hits == 0 {
        failures.push(
            "mutate mode restarted but recovery reused nothing (incr.func_hits == 0)".into(),
        );
    }

    // ---- artifact ----
    let atom = |n: u64| Value::Int(n as i64);
    let report = Value::object(vec![
        ("harness", Value::Str("tbaa-loadgen".into())),
        ("host", tbaa_bench::host::host_stamp()),
        (
            "config",
            Value::object(vec![
                ("clients", Value::Int(cfg.clients as i64)),
                ("duration_s", Value::Float(cfg.duration.as_secs_f64())),
                ("mode", Value::Str("crash-restart".into())),
                ("seed", Value::Int(cfg.seed as i64)),
                (
                    "benches",
                    Value::Array(
                        cfg.benches.iter().map(|b| Value::Str(b.as_str().into())).collect(),
                    ),
                ),
                ("scale", Value::Int(cfg.scale as i64)),
                (
                    "mutate",
                    cfg.mutate.map_or(Value::Null, |n| Value::Int(n as i64)),
                ),
                ("server_workers", Value::Int(cfg.server_workers as i64)),
                ("server_capacity", Value::Int(cfg.server_capacity as i64)),
            ]),
        ),
        (
            "totals",
            Value::object(vec![
                ("requests_sent", atom(totals.sent)),
                ("replies", atom(totals.replies)),
                ("wall_s", Value::Float(wall.as_secs_f64())),
            ]),
        ),
        (
            "differential",
            Value::object(vec![
                ("checked", atom(checker.checked())),
                ("mismatches", atom(mismatches)),
            ]),
        ),
        (
            "crash_restart",
            Value::object(vec![
                ("restarts", Value::Int(restarts as i64)),
                ("phases", Value::Int(phases as i64)),
                ("phase_s", Value::Float(phase_len.as_secs_f64())),
                ("journal_dir", Value::Str(journal_dir.as_str().into())),
                (
                    "replayed_by_restart",
                    Value::Array(replayed_by_restart.iter().map(|n| Value::Int(*n)).collect()),
                ),
                (
                    "probes",
                    Value::object(vec![
                        ("probed", atom(probes.probed)),
                        ("matched", atom(probes.matched)),
                        ("recompiled", atom(probes.recompiled)),
                        ("failures", Value::Int(probes.failures.len() as i64)),
                    ]),
                ),
                ("truncations", atom(totals.truncations)),
                ("incr_func_hits", Value::Int(incr_hits)),
            ]),
        ),
        (
            "server",
            Value::object(vec![(
                "final_stats",
                final_stats.clone().unwrap_or(Value::Null),
            )]),
        ),
        (
            "gates",
            Value::object(vec![
                ("passed", Value::Bool(failures.is_empty())),
                (
                    "failures",
                    Value::Array(
                        failures.iter().map(|f| Value::Str(f.as_str().into())).collect(),
                    ),
                ),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(&cfg.out, report.encode() + "\n") {
        eprintln!("tbaa-loadgen: cannot write {}: {e}", cfg.out);
        return ExitCode::FAILURE;
    }

    // ---- summary ----
    eprintln!(
        "tbaa-loadgen: crash-restart: {} replies over {} phases ({} truncations), \
         {} checked, {} mismatches, probes {}/{} matched ({} recompiled)",
        totals.replies,
        phases,
        totals.truncations,
        checker.checked(),
        mismatches,
        probes.matched,
        probes.probed,
        probes.recompiled,
    );
    eprintln!(
        "tbaa-loadgen: journal replays per restart: {replayed_by_restart:?}; incr func hits {incr_hits}"
    );
    eprintln!("tbaa-loadgen: wrote {}", cfg.out);
    if failures.is_empty() {
        eprintln!("tbaa-loadgen: all gates passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("tbaa-loadgen: GATE FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}

// ---- chaos clients ---------------------------------------------------------

#[derive(Default)]
struct ChaosResult {
    injections: u64,
    by_kind: Vec<(&'static str, u64)>,
    /// Chaos outcomes that contradict the contract (e.g. garbage
    /// answered with `ok:true`, or a slow reader losing replies).
    unexpected: u64,
    samples: Vec<String>,
}

impl ChaosResult {
    fn bump(&mut self, kind: &'static str) {
        self.injections += 1;
        match self.by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => self.by_kind.push((kind, 1)),
        }
    }

    fn surprise(&mut self, detail: String) {
        self.unexpected += 1;
        if self.samples.len() < 8 {
            self.samples.push(detail);
        }
    }
}

/// An error reply must come back for this line on a fresh connection.
fn expect_error(endpoint: &Endpoint, line: &str, kind: &'static str, out: &mut ChaosResult) {
    out.bump(kind);
    let Ok(mut wire) = endpoint.connect() else {
        out.surprise(format!("{kind}: connect failed"));
        return;
    };
    if wire.write_line(line).is_err() {
        out.surprise(format!("{kind}: write failed"));
        return;
    }
    let mut src = LineSource::new(wire);
    match src.read_line_blocking() {
        Ok(raw) => match parse(&raw) {
            Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(false) => {}
            _ => out.surprise(format!("{kind}: expected an error reply, got {raw}")),
        },
        Err(e) => out.surprise(format!("{kind}: no reply ({e})")),
    }
}

/// A fresh connection's `stats` must be answered within `within`.
fn expect_answer(endpoint: &Endpoint, within: Duration, kind: &'static str, out: &mut ChaosResult) {
    let Ok(mut wire) = endpoint.connect() else {
        out.surprise(format!("{kind}: connect failed"));
        return;
    };
    let _ = wire.set_read_timeout(Some(within));
    if wire.write_line(r#"{"op":"stats"}"#).is_err() {
        out.surprise(format!("{kind}: write failed"));
        return;
    }
    match LineSource::new(wire).read_line_strict() {
        Ok(raw) if raw.contains(r#""ok":true"#) => {}
        Ok(raw) => out.surprise(format!("{kind}: expected stats, got {raw}")),
        Err(e) => out.surprise(format!("{kind}: no reply within {within:?} ({e})")),
    }
}

/// One misbehaving client: cycles random protocol abuse until the
/// deadline. Every behavior states its contract; breaking it counts as
/// `unexpected` and fails the run. `server_workers` is the daemon's
/// `--workers`.
fn run_chaos(
    endpoint: &Endpoint,
    seed: u64,
    deadline: Instant,
    server_workers: usize,
) -> ChaosResult {
    let mut rng = XorShift64::new(seed);
    let mut out = ChaosResult::default();
    while Instant::now() < deadline {
        match rng.below(9) {
            // Unparseable garbage → structured parse error, connection lives.
            0 => expect_error(endpoint, "this is } not { json", "garbage", &mut out),
            // A nesting bomb → parse error, NOT a stack-overflow abort.
            1 => {
                let depth = 512 + rng.index(4096);
                let bomb = "[".repeat(depth);
                expect_error(endpoint, &bomb, "nesting_bomb", &mut out);
            }
            // Valid JSON, unknown verb → proto error.
            2 => expect_error(endpoint, r#"{"op":"frobnicate"}"#, "unknown_op", &mut out),
            // Invalid UTF-8 mid-frame → lossy-decoded, must still error.
            3 => {
                out.bump("invalid_utf8");
                if let Ok(mut wire) = endpoint.connect() {
                    use std::io::Write as _;
                    let _ = wire.write_all(b"{\"op\":\"stats\"\xff\xfe}\n");
                    let _ = wire.flush();
                    let mut src = LineSource::new(wire);
                    match src.read_line_blocking() {
                        Ok(raw) => match parse(&raw) {
                            Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(false) => {}
                            _ => out.surprise(format!("invalid_utf8: got {raw}")),
                        },
                        Err(e) => out.surprise(format!("invalid_utf8: no reply ({e})")),
                    }
                }
            }
            // Half a request, then vanish. No reply owed; the server must
            // just not wedge (EOF, or else the io_timeout, ends the
            // connection).
            4 => {
                out.bump("half_request");
                if let Ok(mut wire) = endpoint.connect() {
                    use std::io::Write as _;
                    let _ = wire.write_all(br#"{"op":"alias","session":"s1","pairs":[["a""#);
                    let _ = wire.flush();
                    std::thread::sleep(Duration::from_millis(rng.below(20)));
                }
            }
            // A full request, then disconnect without reading the reply.
            5 => {
                out.bump("ghost_request");
                if let Ok(mut wire) = endpoint.connect() {
                    let _ = wire.write_line(r#"{"op":"stats"}"#);
                }
            }
            // As many idle connections as the daemon has workers: they
            // hold parked threads, not workers, so one more connection is
            // still answered promptly.
            7 => {
                out.bump("idle_hold");
                let idle: Vec<Wire> = (0..server_workers)
                    .filter_map(|_| endpoint.connect().ok())
                    .collect();
                expect_answer(endpoint, Duration::from_secs(1), "idle_hold", &mut out);
                drop(idle);
            }
            // A line that never ends: refused with `line_too_long` once
            // it passes the cap, and the daemon keeps answering.
            8 => {
                out.bump("endless_line");
                let Ok(mut wire) = endpoint.connect() else {
                    out.surprise("endless_line: connect failed".into());
                    continue;
                };
                use std::io::Write as _;
                // Exactly one byte past the cap, so the daemon reads every
                // byte sent before it closes (no reset on TCP).
                if wire.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).is_err() {
                    out.surprise("endless_line: write failed before the cap".into());
                    continue;
                }
                let _ = wire.set_read_timeout(Some(Duration::from_secs(10)));
                match LineSource::new(wire).read_line_strict() {
                    Ok(raw) if raw.contains(r#""kind":"line_too_long""#) => {}
                    Ok(raw) => out.surprise(format!("endless_line: got {raw}")),
                    Err(e) => out.surprise(format!("endless_line: no reply ({e})")),
                }
                expect_answer(endpoint, Duration::from_secs(10), "endless_line", &mut out);
            }
            // Slow reader: pipeline several requests, dawdle over the
            // replies. All of them must still arrive, in order.
            _ => {
                out.bump("slow_reader");
                let n = 4 + rng.index(5);
                if let Ok(wire) = endpoint.connect() {
                    let Ok(mut writer) = wire.try_clone() else {
                        continue;
                    };
                    let mut ok = true;
                    for _ in 0..n {
                        if writer.write_line(r#"{"op":"stats"}"#).is_err() {
                            ok = false;
                            break;
                        }
                    }
                    if !ok {
                        out.surprise("slow_reader: pipelined writes failed".into());
                        continue;
                    }
                    let mut src = LineSource::new(wire);
                    for i in 0..n {
                        std::thread::sleep(Duration::from_millis(rng.below(40)));
                        match src.read_line_blocking() {
                            Ok(raw) => {
                                if parse(&raw)
                                    .ok()
                                    .and_then(|v| v.get("ok").and_then(Value::as_bool))
                                    != Some(true)
                                {
                                    out.surprise(format!("slow_reader: reply {i} bad: {raw}"));
                                }
                            }
                            Err(e) => {
                                out.surprise(format!("slow_reader: reply {i} missing ({e})"));
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

// ---- stats poller ----------------------------------------------------------

struct StatsPoll {
    first: Option<Value<'static>>,
    last: Option<Value<'static>>,
    samples: u64,
    peak_inflight: i64,
    peak_active_connections: i64,
}

fn poll_stats_once(endpoint: &Endpoint) -> Option<Value<'static>> {
    let mut wire = endpoint.connect().ok()?;
    wire.write_line(r#"{"op":"stats"}"#).ok()?;
    let mut src = LineSource::new(wire);
    let raw = src.read_line_blocking().ok()?;
    Some(parse(&raw).ok()?.into_owned())
}

fn gauge_of(stats: &Value, name: &str) -> i64 {
    stats
        .get("stats")
        .and_then(|s| s.get("gauges"))
        .and_then(|g| g.get(name))
        .and_then(Value::as_i64)
        .unwrap_or(0)
}

fn run_stats_poller(endpoint: &Endpoint, deadline: Instant) -> StatsPoll {
    let mut poll = StatsPoll {
        first: None,
        last: None,
        samples: 0,
        peak_inflight: 0,
        peak_active_connections: 0,
    };
    while Instant::now() < deadline {
        if let Some(v) = poll_stats_once(endpoint) {
            poll.samples += 1;
            poll.peak_inflight = poll.peak_inflight.max(gauge_of(&v, "inflight"));
            poll.peak_active_connections = poll
                .peak_active_connections
                .max(gauge_of(&v, "connections.active"));
            if poll.first.is_none() {
                poll.first = Some(v.clone());
            }
            poll.last = Some(v);
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    poll
}

// ---- driver ----------------------------------------------------------------

/// A quantile estimate from a server-side histogram snapshot
/// (`{count, sum, buckets: [[le|"inf", n], ...]}`): the upper bound of
/// the bucket where the cumulative count crosses the quantile. The
/// open-ended bucket reports the last finite bound (1s).
fn bucket_quantile_us(hist: &Value, q: f64) -> i64 {
    let count = hist.get("count").and_then(Value::as_i64).unwrap_or(0);
    if count == 0 {
        return 0;
    }
    let target = ((q * count as f64).ceil() as i64).max(1);
    let mut seen = 0i64;
    if let Some(buckets) = hist.get("buckets").and_then(Value::as_array) {
        for b in buckets {
            let Some(pair) = b.as_array() else { continue };
            seen += pair.get(1).and_then(Value::as_i64).unwrap_or(0);
            if seen >= target {
                return pair.first().and_then(Value::as_i64).unwrap_or(1_000_000);
            }
        }
    }
    1_000_000
}

/// The artifact's `router` section: the router's own stats fields plus
/// per-shard p50/p95/p99 derived from the per-shard request histograms.
fn router_report<'a>(final_stats: Option<&Value<'a>>, kill_backend: bool) -> Option<Value<'a>> {
    let r = final_stats?.get("router")?;
    let carry = |name: &str| r.get(name).cloned().unwrap_or(Value::Null);
    let per_shard: Vec<Value<'a>> = r
        .get("per_shard")
        .and_then(Value::as_array)
        .map(|shards| {
            shards
                .iter()
                .map(|sh| {
                    let hist = sh.get("request_us").cloned().unwrap_or(Value::Null);
                    let field = |name: &str| sh.get(name).cloned().unwrap_or(Value::Null);
                    Value::object(vec![
                        ("index", field("index")),
                        ("addr", field("addr")),
                        ("requests", field("requests")),
                        ("p50_us", Value::Int(bucket_quantile_us(&hist, 0.50))),
                        ("p95_us", Value::Int(bucket_quantile_us(&hist, 0.95))),
                        ("p99_us", Value::Int(bucket_quantile_us(&hist, 0.99))),
                    ])
                })
                .collect()
        })
        .unwrap_or_default();
    Some(Value::object(vec![
        ("shards", carry("shards")),
        ("sessions", carry("sessions")),
        ("retries", carry("retries")),
        ("respawns", carry("respawns")),
        ("imbalance_pct", carry("imbalance_pct")),
        ("kill_backend", Value::Bool(kill_backend)),
        ("per_shard", Value::Array(per_shard)),
    ]))
}

fn counter_of(stats: &Value, name: &str) -> i64 {
    stats
        .get("stats")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_i64)
        .unwrap_or(0)
}

fn main() -> ExitCode {
    let cfg = parse_args();
    let contents: Arc<Vec<Content>> = Arc::new(match cfg.mutate {
        Some(versions) => {
            eprintln!("tbaa-loadgen: mutate mode, {versions} superseding program versions");
            tbaa_bench::load::mutate_contents(cfg.seed, versions)
        }
        None => cfg
            .benches
            .iter()
            .map(|name| Content::Bench {
                name: name.clone(),
                scale: cfg.scale,
            })
            .collect(),
    });

    eprintln!(
        "tbaa-loadgen: building the in-process oracle over {} contents...",
        contents.len()
    );
    let checker = Arc::new(DiffChecker::new(&contents));
    // Pre-warm the oracle's path tables so client threads measure the
    // daemon, not their own lazy compiles.
    for c in contents.iter() {
        let _ = checker.oracle().paths(&c.key());
    }

    if cfg.crash_restart.is_some() {
        return run_crash_restart(&cfg, &contents, &checker);
    }

    let mut daemon = match (&cfg.connect, cfg.router) {
        (Some(addr), _) => Daemon::external(addr),
        (None, Some(shards)) => match Daemon::router(&cfg, shards) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("tbaa-loadgen: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, None) => match Daemon::spawn(&cfg) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("tbaa-loadgen: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    eprintln!(
        "tbaa-loadgen: driving {} ({} clients, {:?}, {} loop{})",
        daemon.endpoint.describe(),
        cfg.clients,
        cfg.duration,
        if cfg.open_loop { "open" } else { "closed" },
        if cfg.chaos { ", chaos on" } else { "" },
    );

    let started = Instant::now();
    let deadline = started + cfg.duration;
    let endpoint = daemon.endpoint.clone();
    let router_state = daemon.router_state();

    // Fault injection: halfway through the run, murder the backend
    // shard that owns the first content. The router must respawn it and
    // replay the journal; the gates below demand it.
    let killer = if cfg.kill_backend {
        let state = router_state.clone().expect("--kill-backend requires --router");
        let victim = state.shard_of(&contents[0].key().display());
        let delay = cfg.duration / 2;
        eprintln!("tbaa-loadgen: will kill backend shard {victim} after {delay:?}");
        Some(std::thread::spawn(move || {
            std::thread::sleep(delay);
            state.kill_backend(victim);
        }))
    } else {
        None
    };

    let mut client_handles = Vec::new();
    for c in 0..cfg.clients {
        let endpoint = endpoint.clone();
        let checker = checker.clone();
        let contents = contents.clone();
        let cfg = cfg.clone();
        client_handles.push(
            std::thread::Builder::new()
                .name(format!("loadgen-client-{c}"))
                .spawn(move || {
                    let seed = cfg.seed.wrapping_add(1 + c as u64);
                    if cfg.open_loop {
                        run_open(
                            &endpoint, &checker, &contents, seed, cfg.sample, cfg.rate, deadline,
                        )
                    } else {
                        run_closed(&endpoint, &checker, &contents, seed, cfg.sample, deadline)
                    }
                })
                .expect("spawn client"),
        );
    }

    let mut chaos_handles = Vec::new();
    if cfg.chaos {
        let server_workers = cfg.server_workers;
        for c in 0..cfg.chaos_clients {
            let endpoint = endpoint.clone();
            let seed = cfg.seed.wrapping_add(0x1000 + c as u64);
            chaos_handles.push(
                std::thread::Builder::new()
                    .name(format!("loadgen-chaos-{c}"))
                    .spawn(move || run_chaos(&endpoint, seed, deadline, server_workers))
                    .expect("spawn chaos client"),
            );
        }
    }

    let poller = {
        let endpoint = endpoint.clone();
        std::thread::Builder::new()
            .name("loadgen-stats".into())
            .spawn(move || run_stats_poller(&endpoint, deadline))
            .expect("spawn stats poller")
    };

    // Liveness watch while the run is in flight.
    let mut died_midrun = false;
    while Instant::now() < deadline {
        if !daemon.alive() {
            died_midrun = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    let mut latency = VerbLatencies::new();
    let mut totals = ClientResult::default();
    for h in client_handles {
        let r = h.join().expect("client thread panicked");
        latency.merge(&r.latency);
        totals.sent += r.sent;
        totals.replies += r.replies;
        totals.io_errors += r.io_errors;
    }
    let mut chaos = ChaosResult::default();
    for h in chaos_handles {
        let r = h.join().expect("chaos thread panicked");
        chaos.injections += r.injections;
        chaos.unexpected += r.unexpected;
        for (k, n) in r.by_kind {
            match chaos.by_kind.iter_mut().find(|(kk, _)| *kk == k) {
                Some((_, m)) => *m += n,
                None => chaos.by_kind.push((k, n)),
            }
        }
        chaos.samples.extend(r.samples);
    }
    let poll = poller.join().expect("poller thread panicked");
    if let Some(k) = killer {
        k.join().expect("killer thread panicked");
    }
    let wall = started.elapsed();

    // Final server-side snapshot after the fleet has gone quiet.
    let final_stats = poll_stats_once(&endpoint).or_else(|| poll.last.clone());
    let server_panics = final_stats
        .as_ref()
        .map_or(-1, |s| counter_of(s, "requests.panics"));

    // Stop a spawned daemon and demand a clean exit.
    let shutdown_result = if died_midrun {
        Err("daemon died mid-run".to_string())
    } else {
        daemon.shutdown()
    };

    // ---- gates ----
    let mismatches = checker.mismatches();
    let mut failures: Vec<String> = Vec::new();
    if mismatches > 0 {
        failures.push(format!("{mismatches} differential mismatch(es)"));
        for d in checker.details() {
            eprintln!("tbaa-loadgen: MISMATCH: {d}");
        }
    }
    if server_panics != 0 {
        failures.push(format!("server reported {server_panics} request panics"));
    }
    if chaos.unexpected > 0 {
        failures.push(format!("{} unexpected chaos outcomes", chaos.unexpected));
        for s in &chaos.samples {
            eprintln!("tbaa-loadgen: CHAOS: {s}");
        }
    }
    if totals.io_errors > 0 {
        failures.push(format!(
            "{} well-behaved requests went unanswered",
            totals.io_errors
        ));
    }
    if let Err(e) = &shutdown_result {
        failures.push(e.clone());
    }
    if cfg.kill_backend {
        let respawns = router_state.as_ref().map_or(0, |st| st.respawns());
        if respawns == 0 {
            failures.push("backend was killed but never respawned".into());
        }
    }
    let incr_hits = final_stats
        .as_ref()
        .map_or(0, |s| counter_of(s, "incr.func_hits"));
    let incr_misses = final_stats
        .as_ref()
        .map_or(0, |s| counter_of(s, "incr.func_misses"));
    if cfg.mutate.is_some() && incr_hits == 0 {
        failures.push(
            "mutate mode ran but the incremental cache reused nothing (incr.func_hits == 0)"
                .into(),
        );
    }

    // ---- artifact ----
    let atom = |n: u64| Value::Int(n as i64);
    let mut report_fields: Vec<(&str, Value)> = vec![
        ("harness", Value::Str("tbaa-loadgen".into())),
        ("host", tbaa_bench::host::host_stamp()),
        (
            "config",
            Value::object(vec![
                ("clients", Value::Int(cfg.clients as i64)),
                ("duration_s", Value::Float(cfg.duration.as_secs_f64())),
                (
                    "mode",
                    Value::Str(if cfg.open_loop { "open" } else { "closed" }.into()),
                ),
                ("rate_per_client", Value::Float(cfg.rate)),
                ("chaos", Value::Bool(cfg.chaos)),
                ("chaos_clients", Value::Int(cfg.chaos_clients as i64)),
                ("sample", Value::Int(cfg.sample as i64)),
                ("seed", Value::Int(cfg.seed as i64)),
                (
                    "benches",
                    Value::Array(cfg.benches.iter().map(|b| Value::Str(b.as_str().into())).collect()),
                ),
                ("scale", Value::Int(cfg.scale as i64)),
                (
                    "mutate",
                    cfg.mutate.map_or(Value::Null, |n| Value::Int(n as i64)),
                ),
                ("server_workers", Value::Int(cfg.server_workers as i64)),
                ("server_capacity", Value::Int(cfg.server_capacity as i64)),
                ("endpoint", Value::Str(endpoint.describe().into())),
            ]),
        ),
        (
            "totals",
            Value::object(vec![
                ("requests_sent", atom(totals.sent)),
                ("replies", atom(totals.replies)),
                ("unanswered", atom(totals.io_errors)),
                ("wall_s", Value::Float(wall.as_secs_f64())),
                (
                    "throughput_rps",
                    Value::Float(totals.replies as f64 / wall.as_secs_f64().max(1e-9)),
                ),
            ]),
        ),
        ("latency_us_by_verb", latency.to_json()),
        (
            "differential",
            Value::object(vec![
                ("checked", atom(checker.checked())),
                ("mismatches", atom(mismatches)),
            ]),
        ),
        (
            "chaos",
            Value::object(vec![
                ("injections", atom(chaos.injections)),
                ("unexpected", atom(chaos.unexpected)),
                (
                    "by_kind",
                    Value::Object(
                        chaos
                            .by_kind
                            .iter()
                            .map(|(k, n)| ((*k).into(), Value::Int(*n as i64)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "server",
            Value::object(vec![
                ("stats_samples", atom(poll.samples)),
                ("peak_inflight", Value::Int(poll.peak_inflight)),
                (
                    "peak_active_connections",
                    Value::Int(poll.peak_active_connections),
                ),
                ("final_stats", final_stats.clone().unwrap_or(Value::Null)),
            ]),
        ),
        (
            "incremental",
            Value::object(vec![
                ("mutate_mode", Value::Bool(cfg.mutate.is_some())),
                ("func_hits", Value::Int(incr_hits)),
                ("func_misses", Value::Int(incr_misses)),
                (
                    "reuse_ratio_pct",
                    Value::Int(
                        final_stats
                            .as_ref()
                            .map_or(0, |s| gauge_of(s, "incr.reuse_ratio")),
                    ),
                ),
            ]),
        ),
    ];
    if let Some(r) = router_report(final_stats.as_ref(), cfg.kill_backend) {
        report_fields.push(("router", r));
    }
    report_fields.push((
        "gates",
        Value::object(vec![
            ("passed", Value::Bool(failures.is_empty())),
            (
                "failures",
                Value::Array(failures.iter().map(|f| Value::Str(f.as_str().into())).collect()),
            ),
        ]),
    ));
    let report = Value::object(report_fields);
    if let Err(e) = std::fs::write(&cfg.out, report.encode() + "\n") {
        eprintln!("tbaa-loadgen: cannot write {}: {e}", cfg.out);
        return ExitCode::FAILURE;
    }

    // ---- summary ----
    eprintln!(
        "tbaa-loadgen: {} replies in {:.2}s ({:.0} rps), {} checked, {} mismatches, {} chaos injections",
        totals.replies,
        wall.as_secs_f64(),
        totals.replies as f64 / wall.as_secs_f64().max(1e-9),
        checker.checked(),
        mismatches,
        chaos.injections,
    );
    if let Some(stats) = &final_stats {
        eprintln!(
            "tbaa-loadgen: server counters: {} invalid, {} errors, {} panics, {} compiles, {} evictions",
            counter_of(stats, "requests.invalid"),
            counter_of(stats, "requests.errors"),
            counter_of(stats, "requests.panics"),
            counter_of(stats, "sessions.compiles"),
            counter_of(stats, "sessions.evictions"),
        );
        eprintln!(
            "tbaa-loadgen: incremental: {} func hits, {} func misses, last reuse {}%",
            counter_of(stats, "incr.func_hits"),
            counter_of(stats, "incr.func_misses"),
            gauge_of(stats, "incr.reuse_ratio"),
        );
    }
    if let Some(state) = &router_state {
        eprintln!(
            "tbaa-loadgen: router: {} shards, {} respawns",
            state.shard_count(),
            state.respawns(),
        );
    }
    eprintln!("tbaa-loadgen: wrote {}", cfg.out);
    if failures.is_empty() {
        eprintln!("tbaa-loadgen: all gates passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("tbaa-loadgen: GATE FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}
