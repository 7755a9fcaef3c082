//! `perfbench` — outside-in latency benchmark for `tbaad`.
//!
//! ```text
//! perfbench --bin-dir DIR [--pinned NOTE] --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Spawns the release `tbaad` as its own process and drives it in a
//! closed loop from one client thread over one persistent Unix-socket
//! connection, one request in flight, the way
//! a compiler or editor waits for each reply. Every reply is checked
//! against the naive-analysis oracle after the timed window. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a traced run.

mod drive;
mod gen;
mod host;
mod ladder;
mod suites;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tbaa::analysis::Level;
use tbaa::World;
use tbaa_bench::load::{Content, DiffChecker, ReqKind};
use tbaa_server::json::Value;
use tbaa_server::proto::{DEFAULT_LEVEL, DEFAULT_WORLD};

use drive::{
    counter, engines_sum, hist, hist_mean_between, mean_us, quantile_us, warm, Op, Plan, Runner,
    Samples,
};
use suites::{Ctx, EditLoop, Program, SetupReply};
use trace::Tracer;
use wire::{Conn, Server};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 20;
/// Servers that each serve an equal share of the timed phase; their
/// samples are pooled. A run's latencies moved by a few percent with the
/// server process they landed on, and pooling five processes averages
/// that out. Each share is cut into `SETUPS / SEGMENTS` equal slices, and
/// between two slices the benchmark sets up one more server and kills it
/// at once. A set-up lasts milliseconds and the host's speed moves from
/// second to second, so set-ups spread evenly over the run give a steadier
/// median than set-ups taken together.
const SEGMENTS: usize = 5;

/// One workload: its name and why it is in the benchmark.
struct Workload {
    name: &'static str,
    why: &'static str,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "query_suite",
        why: "warm sessions of all 10 benchsuite programs at every level and world: the wire path \
              (decode, dispatch, lookup, probe, reply) does the work and compile does none",
    },
    Workload {
        name: "edit_suite",
        why: "edit one benchsuite program, load it, one alias: front end, incremental cache, \
              lowering, engine prewarm and LRU churn do the work",
    },
    Workload {
        name: "query_large",
        why: "modules past DENSE_LIMIT: the lazy engine and the scalar census, the other side of \
              the dense regime",
    },
];

/// Which end-to-end metric each per-layer metric should move, and where.
/// The first matching pattern applies; `*` matches any run of characters.
const LAYER_MAP: [(&str, &str); 26] = [
    (
        "net.transport_us.*",
        "alias_p50_us/alias_p90_us on query_suite",
    ),
    ("net.accept_wait_us", "oneshot_p50_us on every workload"),
    ("server.service_us.*", "that verb's p50 on every workload"),
    (
        "server.decode_us",
        "alias_p50_us on query_suite; load_p50_us on edit_suite",
    ),
    (
        "server.unattributed_us.alias",
        "alias_p50_us on query_suite, not query_large",
    ),
    ("session.lookup_us", "alias_p50_us on query_suite"),
    ("session.resolve_us", "alias_p50_us on query_suite"),
    ("session.*", "load_p50_us and server_rss_mb on edit_suite"),
    (
        "mini_m3.compile_us",
        "load_p50_us/edit_answer_p50_us on edit_suite; setup_s on query_large",
    ),
    (
        "ir.lower_us",
        "load_p50_us/edit_answer_p50_us on edit_suite; setup_s on query_large",
    ),
    (
        "incr.compile_us",
        "load_p50_us/edit_answer_p50_us on edit_suite; setup_s on query_large",
    ),
    (
        "incr.*_us",
        "load_p50_us on edit_suite; setup_s on query_large",
    ),
    ("incr.*", "load_p50_us on edit_suite"),
    (
        "core.analysis_build_us",
        "load_p50_us on edit_suite; setup_s on query_suite/query_large",
    ),
    (
        "core.engine_build_us",
        "load_p50_us on edit_suite; setup_s on query_suite/query_large",
    ),
    ("core.probe_ns.dense", "alias_p50_us on query_suite"),
    ("core.probe_ns.lazy", "alias_p50_us on query_large"),
    (
        "core.census_us",
        "pairs_p50_us on query_suite and query_large",
    ),
    ("core.census_dense_rows", "pairs_p50_us on query_suite"),
    ("core.census_fallback_pairs", "pairs_p50_us on query_large"),
    ("core.engine_fallbacks", "rle_p50_us on query_large"),
    ("core.memo_*", "rle_p50_us and alias_p50_us on query_large"),
    ("opt.rle_us", "rle_p50_us on query_suite and query_large"),
    (
        "router.hop_us.*",
        "a routed client's p50s; no gated workload is routed",
    ),
    (
        "router.*",
        "a routed client's failures and alias_p90_us; no gated workload is routed",
    ),
    (
        "trace.overhead_us.*",
        "none: traced minus untraced p50 in the same run",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
    /// How the wrapper pinned the process, for the provenance line.
    pinned: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut bin_dir) =
        (None, None, None, None, None);
    let mut pinned = "not pinned".to_string();
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--pinned" => pinned = value.clone(),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        pinned,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = match suites::run_dir(std::path::Path::new(".")) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create the run directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        bin_dir: args.bin_dir.clone(),
        run_dir,
    };
    match run(&args, &ctx) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The workload's traffic after set-up.
enum Traffic {
    Static { plan: Plan, pos: usize },
    Edit(EditLoop),
}

impl Traffic {
    fn warm(&mut self, runner: &mut Runner) {
        match self {
            Traffic::Static { plan, .. } => warm(runner, plan),
            Traffic::Edit(l) => {
                for _ in 0..2 * gen::suite_names().len() {
                    l.step(runner);
                }
                runner.samples = Samples::default();
            }
        }
    }

    fn run_until(&mut self, runner: &mut Runner, deadline: Instant) {
        match self {
            Traffic::Static { plan, pos } => runner.run_until(plan, pos, deadline),
            Traffic::Edit(l) => l.run_until(runner, deadline),
        }
    }

    /// A fixed amount of traffic, so `stats` counts repeat per seed.
    fn counting_pass(&mut self, runner: &mut Runner) {
        match self {
            Traffic::Static { plan, pos } => {
                let n = plan.ops.len();
                runner.run_steps(plan, pos, n);
            }
            Traffic::Edit(l) => {
                for _ in 0..200 {
                    l.step(runner);
                }
            }
        }
        runner.samples = Samples::default();
    }

    /// The `(load, alias)` lines one-shot connections send.
    fn oneshot_lines(&self) -> Vec<(String, String)> {
        match self {
            Traffic::Static { plan, .. } => plan
                .ops
                .iter()
                .filter_map(|op| match *op {
                    Op::OneShot(l, a) => {
                        Some((plan.lines[l].text.clone(), plan.lines[a].text.clone()))
                    }
                    _ => None,
                })
                .collect(),
            Traffic::Edit(l) => vec![l.last.clone()],
        }
    }
}

/// One end-to-end metric as printed.
struct E2e {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
    q1: f64,
    q3: f64,
}

fn latency(name: &'static str, samples: &[u64], q: f64) -> E2e {
    let mut s = samples.to_vec();
    s.sort_unstable();
    E2e {
        name,
        unit: "us",
        value: quantile_us(&s, q),
        samples: s.len(),
        q1: quantile_us(&s, 0.25),
        q3: quantile_us(&s, 0.75),
    }
}

/// Median and quartiles of per-process values (set-ups, peak RSS).
fn per_process(name: &'static str, unit: &'static str, values: &[f64]) -> E2e {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = |p: f64| sorted[((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1];
    E2e {
        name,
        unit,
        value: q(0.5),
        samples: values.len(),
        q1: q(0.25),
        q3: q(0.75),
    }
}

fn e2e_metrics(s: &Samples, setups: &[f64], rss_mb: &[f64]) -> Vec<E2e> {
    vec![
        per_process("setup_s", "s", setups),
        latency("alias_p50_us", &s.alias, 0.50),
        latency("alias_p90_us", &s.alias, 0.90),
        latency("pairs_p50_us", &s.pairs, 0.50),
        latency("rle_p50_us", &s.rle, 0.50),
        latency("oneshot_p50_us", &s.oneshot, 0.50),
        latency("load_p50_us", &s.load, 0.50),
        latency("load_p90_us", &s.load, 0.90),
        latency("edit_answer_p50_us", &s.edit_answer, 0.50),
        per_process("server_rss_mb", "MB", rss_mb),
    ]
}

fn run(args: &Args, ctx: &Ctx) -> Result<(), String> {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("validated");
    let contents: Vec<Content> = match workload.name {
        "query_large" => suites::large_contents(args.seed),
        "edit_suite" => {
            let corpus = gen::EditCorpus::new(args.seed);
            (0..gen::suite_names().len())
                .map(|i| Content::Source {
                    text: corpus.base(i).to_string(),
                })
                .collect()
        }
        _ => suites::suite_contents(),
    };
    let level_worlds: Vec<(Level, World)> = match workload.name {
        "query_suite" => gen::LEVEL_WORLDS.to_vec(),
        _ => vec![(DEFAULT_LEVEL, DEFAULT_WORLD)],
    };
    let checker = DiffChecker::new(&contents);
    let programs: Vec<Program> = contents
        .into_iter()
        .map(|c| Program::new(c, &checker))
        .collect();

    let mut tracer = args.trace.then(Tracer::new);
    let mut setup_replies: Vec<SetupReply> = Vec::new();
    let mut setups = Vec::new();
    let (segments, slices) = if args.trace {
        (1, 1)
    } else {
        (SEGMENTS, SETUPS / SEGMENTS)
    };
    let seconds = Duration::from_secs(args.seconds);
    let mut samples = Samples::default();
    let mut rss = Vec::new();
    let mut layers: Vec<(String, &'static str, f64)> = Vec::new();
    let mut overhead: Vec<(String, f64, f64)> = Vec::new();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut attempted, mut failed) = (0, 0);
    // Static plans resume their cycle where the last share stopped.
    let mut cycle_pos = 0;
    // Set-ups so far; numbers each server's socket.
    let mut n = 0;
    let phase_before = host::sample();
    for _ in 0..segments {
        let (server, mut runner, sids, secs) = suites::set_up(
            ctx,
            n,
            &programs,
            &level_worlds,
            &mut setup_replies,
            tracer.as_mut(),
        )
        .map_err(|e| format!("set-up failed: {e}"))?;
        n += 1;
        setups.push(secs);
        let mut traffic = match workload.name {
            "edit_suite" => Traffic::Edit(EditLoop::new(args.seed, &programs)),
            "query_large" => Traffic::Static {
                plan: suites::large_plan(args.seed, &programs, &sids),
                pos: cycle_pos,
            },
            _ => Traffic::Static {
                plan: suites::suite_plan(args.seed, &programs, &sids),
                pos: cycle_pos,
            },
        };
        traffic.warm(&mut runner);
        match tracer.as_mut() {
            Some(tr) => {
                let (l, o, s, r) = traced(
                    ctx,
                    (workload.name, args.seed),
                    server,
                    &mut runner,
                    &mut traffic,
                    (&programs, &sids),
                    tr,
                    seconds,
                    &setups,
                )?;
                layers = l;
                overhead = o;
                samples = s;
                rss.push(r);
            }
            None => {
                let slice = seconds / (segments * slices) as u32;
                for k in 0..slices {
                    if k > 0 {
                        // A set-up only: dropping the server kills it.
                        let (_, _, _, secs) = suites::set_up(
                            ctx,
                            n,
                            &programs,
                            &level_worlds,
                            &mut setup_replies,
                            None,
                        )
                        .map_err(|e| format!("set-up failed: {e}"))?;
                        n += 1;
                        setups.push(secs);
                    }
                    traffic.run_until(&mut runner, Instant::now() + slice);
                }
                samples.append(&mut runner.samples);
                rss.push(server.peak_rss_mb().unwrap_or(f64::NAN));
                server.shutdown();
                if let Traffic::Static { pos, .. } = &traffic {
                    cycle_pos = *pos;
                }
            }
        }
        // Check every reply of this segment, with its server stopped.
        let (c, f) = match &traffic {
            Traffic::Static { plan, .. } => drive::verify_static(plan, &runner.log, &checker),
            Traffic::Edit(l) => l.verify(args.seed, &runner, workers),
        };
        attempted += c;
        failed += f;
    }
    let phase_after = host::sample();
    let (c, f) = suites::verify_setup(&setup_replies, &checker);
    attempted += c;
    failed += f;
    let pair = |a: f64, b: f64| Value::Array(vec![Value::Float(a), Value::Float(b)]);
    let host_phase = Value::object(vec![
        (
            "steal_ticks",
            match (phase_before.steal_ticks, phase_after.steal_ticks) {
                (Some(a), Some(b)) => Value::Int(b.saturating_sub(a) as i64),
                _ => Value::Null,
            },
        ),
        ("ipc_us", pair(phase_before.ipc_us, phase_after.ipc_us)),
        (
            "compute_us",
            pair(phase_before.compute_us, phase_after.compute_us),
        ),
    ]);

    let e2e = e2e_metrics(&samples, &setups, &rss);
    print_report(
        args,
        workload,
        &e2e,
        &layers,
        &overhead,
        tracer.as_ref(),
        (attempted, failed),
        host_phase,
        ctx,
    )?;
    Ok(())
}

/// Per-layer metrics, tracing overhead, samples and peak RSS of a
/// traced run.
type Traced = (
    Vec<(String, &'static str, f64)>,
    Vec<(String, f64, f64)>,
    Samples,
    f64,
);

/// The traced run after set-up and warm-up: a counting pass of fixed
/// length, then the timed phase untraced and traced (half each), the
/// accept-wait and router-hop probes, and the in-process ladder with the
/// server stopped.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    (name, seed): (&str, u64),
    server: Server,
    runner: &mut Runner,
    traffic: &mut Traffic,
    (programs, sids): (&[Program], &[String]),
    tr: &mut Tracer,
    seconds: Duration,
    setups: &[f64],
) -> Result<Traced, String> {
    let mut layers: Vec<(String, &'static str, f64)> = Vec::new();
    traffic.counting_pass(runner);
    let s1 = runner
        .stats()
        .ok_or("stats after the counting pass failed")?;
    let half = seconds / 2;
    traffic.run_until(runner, Instant::now() + half);
    let untraced = std::mem::take(&mut runner.samples);
    let s2 = runner.stats().ok_or("stats failed")?;
    runner.tracer = Some(std::mem::replace(tr, Tracer::new()));
    traffic.run_until(runner, Instant::now() + half);
    *tr = runner.tracer.take().expect("tracer handed back");
    let s3 = runner.stats().ok_or("stats failed")?;
    let samples = std::mem::take(&mut runner.samples);
    let overhead: Vec<(String, f64, f64)> = e2e_metrics(&untraced, setups, &[f64::NAN])
        .into_iter()
        .zip(e2e_metrics(&samples, setups, &[f64::NAN]))
        .skip(1)
        .take(8)
        .map(|(u, t)| (u.name.to_string(), u.value, t.value))
        .collect();

    // Service and transport per verb.
    for verb in ["alias", "pairs", "rle", "load"] {
        let service = hist_mean_between(&s2, &s3, &format!("request_us.{verb}"));
        layers.push((format!("server.service_us.{verb}"), "us", service));
        let client = match verb {
            "alias" => mean_us(&samples.alias),
            "pairs" => mean_us(&samples.pairs),
            "rle" => mean_us(&samples.rle),
            _ => continue,
        };
        layers.push((format!("net.transport_us.{verb}"), "us", client - service));
    }
    // One-shot minus the same requests on the warm connection.
    let mut warm_ns = Vec::new();
    for _ in 0..20 {
        for (load, alias) in &traffic.oneshot_lines() {
            let a = runner.probe(load);
            let b = runner.probe(alias);
            warm_ns.push(drive::ns((a.0, b.1)));
        }
    }
    layers.push((
        "net.accept_wait_us".into(),
        "us",
        mean_us(&samples.oneshot) - mean_us(&warm_ns),
    ));
    // Stats counts after a fixed amount of traffic.
    let hits = counter(&s1, "sessions.hits");
    let misses = counter(&s1, "sessions.misses");
    let fhits = counter(&s1, "incr.func_hits");
    let fmisses = counter(&s1, "incr.func_misses");
    for (metric, unit, v) in [
        (
            "session.compiles",
            "count",
            counter(&s1, "sessions.compiles"),
        ),
        ("session.hits", "count", hits),
        (
            "session.evictions",
            "count",
            counter(&s1, "sessions.evictions"),
        ),
        (
            "session.hit_ratio",
            "ratio",
            hits / (hits + misses).max(1.0),
        ),
        ("incr.func_hits", "count", fhits),
        ("incr.func_misses", "count", fmisses),
        (
            "incr.reuse_ratio",
            "ratio",
            fhits / (fhits + fmisses).max(1.0),
        ),
        (
            "core.census_dense_rows",
            "count",
            counter(&s1, "census.dense_rows"),
        ),
        (
            "core.census_fallback_pairs",
            "count",
            counter(&s1, "census.fallback_pairs"),
        ),
        (
            "core.engine_fallbacks",
            "count",
            engines_sum(&s1, "fallbacks"),
        ),
        ("core.memo_hits", "count", engines_sum(&s1, "memo_hits")),
        ("core.memo_misses", "count", engines_sum(&s1, "memo_misses")),
    ] {
        layers.push((metric.into(), unit, v));
    }
    for stage in ["analyze", "lower", "merge"] {
        let (c, s) = hist(&s1, &format!("compile.{stage}_us"));
        layers.push((format!("incr.{stage}_us"), "us", s / c.max(1.0)));
    }

    // The router hop: the same requests through a router attached to the
    // daemon and straight to the daemon.
    // `pairs` and `rle` on the large modules take 60-100 ms each.
    let rounds = if name == "query_large" { 2 } else { 10 };
    let hop = router_hop(ctx, rounds, &server, traffic, programs, sids);
    let rss_mb = server.peak_rss_mb().unwrap_or(f64::NAN);
    server.shutdown();
    layers.extend(hop?);

    // In-process ladder, with the server stopped.
    let input = ladder_input(name, seed, traffic, programs, sids);
    tr.reserve(1 << 14);
    let out = ladder::run(&input, tr);
    let service_alias = hist_mean_between(&s2, &s3, "request_us.alias");
    layers.push((
        "server.unattributed_us.alias".into(),
        "us",
        service_alias - out.alias_attributed_us,
    ));
    layers.extend(out.metrics);
    for (metric, untraced, traced) in &overhead {
        if ["alias_p50_us", "pairs_p50_us", "rle_p50_us", "load_p50_us"].contains(&metric.as_str())
        {
            layers.push((
                format!("trace.overhead_us.{}", metric.trim_end_matches("_us")),
                "us",
                traced - untraced,
            ));
        }
    }
    Ok((layers, overhead, samples, rss_mb))
}

/// Measures the router hop on a sample of alias, pairs and rle lines:
/// a `tbaac route --attach` is started in front of the daemon, and each
/// request is sent `rounds` times through it and straight to the daemon,
/// alternately; the difference of the medians is the hop. Also reports
/// the router's retry, respawn and imbalance counts.
fn router_hop(
    ctx: &Ctx,
    rounds: usize,
    server: &Server,
    traffic: &Traffic,
    programs: &[Program],
    sids: &[String],
) -> Result<Vec<(String, &'static str, f64)>, String> {
    // Up to three programs' lines of each verb.
    let mut sample: Vec<(usize, &'static str, String)> = Vec::new();
    match traffic {
        Traffic::Static { plan, .. } => {
            let mut have = std::collections::HashSet::new();
            for line in &plan.lines {
                let (verb, sid) = match &line.kind {
                    ReqKind::Alias { sid, .. } => ("alias", sid),
                    ReqKind::Pairs { sid, .. } => ("pairs", sid),
                    ReqKind::Rle { sid, .. } => ("rle", sid),
                    _ => continue,
                };
                let p = sids.iter().position(|s| s == sid).expect("plan sid");
                if p < 3 && have.insert((p, verb)) {
                    sample.push((p, verb, line.text.clone()));
                }
            }
        }
        Traffic::Edit(_) => {
            for (p, prog) in programs.iter().enumerate().take(3) {
                let pair = vec![(prog.paths[0].clone(), prog.paths[0].clone())];
                sample.push((p, "alias", gen::alias_line(&sids[p], None, &pair)));
                sample.push((p, "pairs", gen::pairs_line(&sids[p], None)));
                sample.push((p, "rle", gen::rle_line(&sids[p], None)));
            }
        }
    }
    let router = ctx
        .spawn_attached_router(&server.tcp)
        .map_err(|e| e.to_string())?;
    let mut routed = Conn::unix(&router.socket).map_err(|e| e.to_string())?;
    let mut direct = Conn::unix(&server.socket).map_err(|e| e.to_string())?;
    // The session id each side gives a program. Loading again on each
    // side finds the live session even where the store evicted it.
    let mut reply = String::new();
    let mut live = |conn: &mut Conn, p: usize| -> Result<String, String> {
        conn.exchange(&programs[p].load_line, &mut reply)
            .map_err(|e| e.to_string())?;
        Ok(suites::session_of(&reply).unwrap_or_default().to_string())
    };
    let mut routed_sid = Vec::new();
    let mut direct_sid = Vec::new();
    for p in 0..programs.len() {
        routed_sid.push(live(&mut routed, p)?);
        direct_sid.push(live(&mut direct, p)?);
    }
    // Alternate which side goes first, and compare medians: one slow
    // outlier on either side would swamp a mean difference.
    let mut times: std::collections::BTreeMap<&str, (Vec<u64>, Vec<u64>)> = Default::default();
    for round in 0..rounds {
        for (p, verb, line) in &sample {
            let direct_line = suites::with_session(line, &sids[*p], &direct_sid[*p]);
            let routed_line = suites::with_session(line, &sids[*p], &routed_sid[*p]);
            let e = times.entry(*verb).or_default();
            for side in [round % 2, 1 - round % 2] {
                let (conn, line, out) = if side == 0 {
                    (&mut direct, &direct_line, &mut e.0)
                } else {
                    (&mut routed, &routed_line, &mut e.1)
                };
                let t0 = Instant::now();
                conn.exchange(line, &mut reply).map_err(|e| e.to_string())?;
                out.push(drive::ns((t0, Instant::now())));
            }
        }
    }
    routed
        .exchange("{\"op\":\"stats\"}\n", &mut reply)
        .map_err(|e| e.to_string())?;
    router.shutdown();
    let router_stats = tbaa_server::json::parse(&reply).map_err(|e| e.to_string())?;
    let r = router_stats.get("router");
    let field = |f: &str| {
        r.and_then(|r| r.get(f))
            .and_then(Value::as_i64)
            .unwrap_or(0) as f64
    };
    let mut out = Vec::new();
    for verb in ["alias", "pairs", "rle"] {
        let hop = times.get_mut(verb).map_or(f64::NAN, |(direct, routed)| {
            direct.sort_unstable();
            routed.sort_unstable();
            quantile_us(routed, 0.5) - quantile_us(direct, 0.5)
        });
        out.push((format!("router.hop_us.{verb}"), "us", hop));
    }
    out.push(("router.retries".into(), "count", field("retries")));
    out.push(("router.respawns".into(), "count", field("respawns")));
    out.push(("router.imbalance_pct".into(), "%", field("imbalance_pct")));
    Ok(out)
}

/// What the in-process ladder replays for this workload.
fn ladder_input(
    name: &str,
    seed: u64,
    traffic: &Traffic,
    programs: &[Program],
    sids: &[String],
) -> ladder::LadderInput {
    let loaded: Vec<(Content, String)> = programs
        .iter()
        .zip(sids)
        .map(|(p, s)| (p.content.clone(), s.clone()))
        .collect();
    let sources: Vec<String> = programs
        .iter()
        .map(|p| p.content.source().expect("workload content resolves"))
        .collect();
    let mut samples: Vec<(String, ReqKind)> = Vec::new();
    match traffic {
        Traffic::Static { plan, .. } => {
            for op in plan.ops.iter().take(600) {
                let idx = match *op {
                    Op::Req(i) => vec![i],
                    Op::LoadAlias(l, a) | Op::OneShot(l, a) => vec![l, a],
                };
                for i in idx {
                    samples.push((plan.lines[i].text.clone(), plan.lines[i].kind.clone()));
                }
            }
        }
        Traffic::Edit(_) => {
            let mut corpus = gen::EditCorpus::new(seed);
            let mut rng = tbaa_bench::rng::XorShift64::new(seed);
            for i in 0..64u64 {
                let v = corpus.next_version();
                let line = gen::load_source_line(&v.source);
                let key = Content::Source { text: v.source }.key();
                samples.push((line, ReqKind::Load { key }));
                let p = &programs[v.program];
                let key = p.content.key();
                let pairs = gen::random_pairs(&mut rng, &p.paths, 1 + i as usize % 8);
                let sid = sids[v.program].clone();
                samples.push((
                    gen::alias_line(&sid, None, &pairs),
                    ReqKind::Alias {
                        key: key.clone(),
                        sid: sid.clone(),
                        level: DEFAULT_LEVEL,
                        world: DEFAULT_WORLD,
                        pairs,
                    },
                ));
                if i % suites::EDIT_REPORT_EVERY == suites::EDIT_REPORT_EVERY - 1 {
                    samples.push((
                        gen::pairs_line(&sid, None),
                        ReqKind::Pairs {
                            key: key.clone(),
                            sid: sid.clone(),
                            level: DEFAULT_LEVEL,
                            world: DEFAULT_WORLD,
                        },
                    ));
                    samples.push((
                        gen::rle_line(&sid, None),
                        ReqKind::Rle {
                            key,
                            sid,
                            level: DEFAULT_LEVEL,
                            world: DEFAULT_WORLD,
                        },
                    ));
                }
            }
        }
    }
    let (compile_sources, incr_warm, incr_timed) = if name == "edit_suite" {
        let mut corpus = gen::EditCorpus::new(seed);
        let versions: Vec<String> = (0..40).map(|_| corpus.next_version().source).collect();
        (versions.clone(), sources, versions)
    } else {
        (sources.clone(), Vec::new(), sources)
    };
    let build_level_worlds = if name == "query_suite" {
        gen::LEVEL_WORLDS.to_vec()
    } else {
        vec![(DEFAULT_LEVEL, DEFAULT_WORLD)]
    };
    ladder::LadderInput {
        programs: loaded,
        samples,
        compile_sources,
        incr_warm,
        incr_timed,
        build_level_worlds,
    }
}

#[allow(clippy::too_many_arguments)]
fn print_report(
    args: &Args,
    workload: &Workload,
    e2e: &[E2e],
    layers: &[(String, &'static str, f64)],
    overhead: &[(String, f64, f64)],
    tracer: Option<&Tracer>,
    (attempted, failed): (u64, u64),
    host_phase: Value<'static>,
    ctx: &Ctx,
) -> Result<(), String> {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        workload.name, args.seed, args.seconds, args.trace as u8
    );
    println!("# why: {}", workload.why);
    let bin = |b: &str| Value::Str(ctx.bin_dir.join(b).display().to_string().into());
    let provenance = Value::object(vec![
        // Under the wrapper's pin the stamp sees one CPU; `pinned` names
        // the CPU and how many the host has.
        ("host", tbaa_bench::host::host_stamp()),
        ("pinned", Value::Str(args.pinned.as_str().into())),
        (
            "not_timed",
            Value::Str(
                "parallel paths: with the server pinned to one CPU, --compile-threads 0 \
                 resolves to one worker, and lower_parallel, the row-partitioned engine build \
                 and the census fan-out take their serial paths"
                    .into(),
            ),
        ),
        // Steal ticks over the run, and the IPC floor and compute probe
        // before and after it.
        ("host_phase", host_phase),
        ("workload", Value::Str(workload.name.into())),
        ("why", Value::Str(workload.why.into())),
        ("seed", Value::Int(args.seed as i64)),
        ("seconds", Value::Int(args.seconds as i64)),
        ("trace", Value::Bool(args.trace)),
        ("server", Value::Str("tbaad".into())),
        ("flags", Value::Str(suites::DAEMON_FLAGS.join(" ").into())),
        ("tbaad", bin("tbaad")),
        ("tbaac", bin("tbaac")),
        (
            "client",
            Value::Str(
                "closed loop, 1 thread, 1 persistent unix socket, 1 request in flight".into(),
            ),
        ),
        (
            "samples",
            Value::object(
                e2e.iter()
                    .map(|m| (m.name, Value::Int(m.samples as i64)))
                    .collect(),
            ),
        ),
    ]);
    println!("# provenance {}", provenance.encode());
    if !args.trace {
        println!(
            "# {:<20} {:>14} {:>6} {:>8} {:>14} {:>14}",
            "metric", "value", "unit", "samples", "q1", "q3"
        );
        for m in e2e {
            println!(
                "# {:<20} {:>14.3} {:>6} {:>8} {:>14.3} {:>14.3}",
                m.name, m.value, m.unit, m.samples, m.q1, m.q3
            );
        }
    } else {
        println!("# per-layer metric -> the end-to-end metric it should move");
        for (name, unit, v) in layers {
            let moves = moves_for(name);
            println!("# {name:<34} {v:>14.3} {unit:<6} -> {moves}");
        }
        println!("# tracing overhead (traced minus untraced, same run):");
        for (name, u, t) in overhead {
            println!(
                "#   {name:<20} untraced {u:>12.3} traced {t:>12.3} diff {:>10.3}",
                t - u
            );
        }
        if let Some(tr) = tracer {
            println!("# spans: name count mean_us self_us allocs");
            for (name, (n, mean, own, allocs)) in tr.summary() {
                println!("#   {name:<22} {n:>8} {mean:>12.3} {own:>12.3} {allocs:>10.1}");
            }
            let path = ctx
                .run_dir
                .join(format!("trace-{}-{}.jsonl", workload.name, args.seed));
            tr.write_jsonl(&path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("# spans written to {}", path.display());
        }
    }
    println!("# attempted {attempted} failed {failed}");
    let metrics: Vec<(&str, Value)> = if args.trace {
        layers
            .iter()
            .map(|(n, u, v)| (n.as_str(), metric(*v, u)))
            .collect()
    } else {
        e2e.iter()
            .map(|m| (m.name, metric(m.value, m.unit)))
            .collect()
    };
    let result = Value::object(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Int(attempted as i64)),
        ("failed", Value::Int(failed as i64)),
        ("metrics", Value::object(metrics)),
    ]);
    println!("{}", result.encode());
    Ok(())
}

/// The [`LAYER_MAP`] entry for a per-layer metric; `*` matches any run
/// of characters, and a span's `.allocs` count maps like its timing.
fn moves_for(name: &str) -> String {
    let glob = |pat: &str, name: &str| match pat.split_once('*') {
        Some((head, tail)) => {
            name.len() >= pat.len() - 1 && name.starts_with(head) && name.ends_with(tail)
        }
        None => pat == name,
    };
    let lookup = |name: &str| {
        LAYER_MAP
            .iter()
            .find(|(pat, _)| glob(pat, name))
            .map(|(_, m)| m.to_string())
    };
    if let Some(span) = name.strip_suffix(".allocs") {
        let timing = [
            format!("{span}_us"),
            span.replacen("probe.", "probe_ns.", 1),
        ];
        return timing.iter().find_map(|t| lookup(t)).map_or_else(
            || "allocations per call".into(),
            |m| format!("allocations per call; {m}"),
        );
    }
    lookup(name).unwrap_or_else(|| "-".into())
}

fn metric(value: f64, unit: &str) -> Value<'static> {
    Value::object(vec![
        (
            "value",
            if value.is_finite() {
                Value::Float(value)
            } else {
                Value::Null
            },
        ),
        ("unit", Value::Str(unit.to_string().into())),
    ])
}
