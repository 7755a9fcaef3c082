//! The in-process half of the traced run: spans around the public
//! functions of each layer, replaying a sample of the workload's own
//! request lines and sources inside the benchmark process.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use tbaa::analysis::{Level, Tbaa};
use tbaa::{AliasAnalysis, CompiledAliasEngine, World, DENSE_LIMIT};
use tbaa_bench::load::{Content, ReqKind};
use tbaa_incr::IncrCompiler;
use tbaa_ir::path::ApId;
use tbaa_ir::Program;
use tbaa_server::metrics::Registry;
use tbaa_server::{proto, SessionStore};

use crate::suites::with_session;
use crate::trace::{SpanId, Tracer, ROOT};

/// Per-probe timing blocks aim for about this many calls.
const BLOCK_CALLS: usize = 200_000;

/// What the ladder replays.
pub struct LadderInput {
    /// Programs loaded into the in-process store, with the session id
    /// the daemon gave each.
    pub programs: Vec<(Content, String)>,
    /// Request lines in the workload's own mix.
    pub samples: Vec<(String, ReqKind)>,
    /// Sources for the compile, lower, analysis and engine spans.
    pub compile_sources: Vec<String>,
    /// Sources compiled untimed through the incremental compiler first.
    pub incr_warm: Vec<String>,
    /// Sources then compiled, timed, through the same compiler.
    pub incr_timed: Vec<String>,
    /// `(level, world)` pairs the analysis and engine spans build.
    pub build_level_worlds: Vec<(Level, World)>,
}

/// In-process per-layer results.
pub struct LadderOut {
    /// `(metric name, unit, value)`.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// In-process cost of one `alias` request (decode, lookup, resolve
    /// and probes), in µs.
    pub alias_attributed_us: f64,
}

/// Time, calls and allocations accumulated over one rung's spans.
#[derive(Default)]
struct Timed {
    ns: u64,
    calls: u64,
    allocs: u64,
}

impl Timed {
    fn add(&mut self, tracer: &Tracer, span: SpanId, calls: u64) {
        let s = &tracer.spans()[span as usize];
        self.ns += s.ns();
        self.allocs += s.allocs;
        self.calls += calls;
    }

    fn per_call_us(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64 / 1e3
    }

    fn per_call_ns(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }

    fn allocs_per_call(&self) -> f64 {
        self.allocs as f64 / self.calls.max(1) as f64
    }
}

/// One `alias` sample resolved against the in-process store.
struct AliasSample {
    sid: String,
    program: Arc<Program>,
    level: Level,
    world: World,
    pairs: Vec<(String, String)>,
    ids: Vec<(ApId, ApId)>,
}

/// Runs the ladder, recording spans under one `ladder` root span.
pub fn run(input: &LadderInput, tracer: &mut Tracer) -> LadderOut {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = tracer.open("ladder", ROOT, 0);
    let store = SessionStore::new(32, Arc::new(Registry::new())).with_compile_threads(0);
    // Daemon session id → in-process session id.
    let mut sid_map: HashMap<String, String> = HashMap::new();
    for (content, daemon_sid) in &input.programs {
        let slot = match content {
            Content::Bench { name, scale } => {
                store.load_bench(name, *scale).expect("suite program").0
            }
            Content::Source { text } => store.load_source(text).0,
        };
        let session = slot.as_ref().as_ref().expect("workload program compiles");
        sid_map.insert(daemon_sid.clone(), session.id.clone());
    }
    let local = |line: &str, sid: &str| match sid_map.get(sid) {
        Some(mine) => with_session(line, sid, mine),
        None => line.to_string(),
    };

    // server.decode over the whole sample, in the workload's mix.
    let mut decode = Timed::default();
    let mut decode_alias = Timed::default();
    let lines: Vec<(String, &ReqKind)> = input
        .samples
        .iter()
        .map(|(text, kind)| {
            let text = match kind {
                ReqKind::Alias { sid, .. }
                | ReqKind::Pairs { sid, .. }
                | ReqKind::Rle { sid, .. } => local(text, sid),
                _ => text.clone(),
            };
            (text.trim_end().to_string(), kind)
        })
        .collect();
    for (i, (line, kind)) in lines.iter().enumerate() {
        let span = tracer.open("server.decode", root, i as u64);
        black_box(proto::decode_request(black_box(line)).is_ok());
        tracer.close(span);
        decode.add(tracer, span, 1);
        if matches!(kind, ReqKind::Alias { .. }) {
            decode_alias.add(tracer, span, 1);
        }
    }

    // Resolve every alias sample once, untimed.
    let alias: Vec<AliasSample> = input
        .samples
        .iter()
        .filter_map(|(_, kind)| match kind {
            ReqKind::Alias {
                sid,
                level,
                world,
                pairs,
                ..
            } => {
                let sid = sid_map.get(sid)?.clone();
                let slot = store.by_id(&sid)?;
                let session = slot.as_ref().as_ref().ok()?;
                let ids = pairs
                    .iter()
                    .map(|(a, b)| Some((session.resolve_path(a)?, session.resolve_path(b)?)))
                    .collect::<Option<Vec<_>>>()?;
                Some(AliasSample {
                    sid,
                    program: session.program.clone(),
                    level: *level,
                    world: *world,
                    pairs: pairs.clone(),
                    ids,
                })
            }
            _ => None,
        })
        .collect();
    let total_pairs: usize = alias.iter().map(|a| a.pairs.len()).sum::<usize>().max(1);

    // session.lookup and session.resolve, timed in blocks.
    let rounds = (BLOCK_CALLS / alias.len().max(1)).max(1);
    let mut lookup = Timed::default();
    let span = tracer.open("session.lookup", root, 0);
    for _ in 0..rounds {
        for a in &alias {
            black_box(store.by_id(black_box(&a.sid)).is_some());
        }
    }
    tracer.close(span);
    lookup.add(tracer, span, (rounds * alias.len()) as u64);

    let rounds = (BLOCK_CALLS / (2 * total_pairs)).max(1);
    let mut resolve = Timed::default();
    let slots: Vec<_> = alias.iter().filter_map(|a| store.by_id(&a.sid)).collect();
    let span = tracer.open("session.resolve", root, 0);
    for _ in 0..rounds {
        for (a, slot) in alias.iter().zip(&slots) {
            let session = slot.as_ref().as_ref().expect("loaded");
            for (x, y) in &a.pairs {
                black_box(session.resolve_path(black_box(x)));
                black_box(session.resolve_path(black_box(y)));
            }
        }
    }
    tracer.close(span);
    resolve.add(tracer, span, (rounds * 2 * total_pairs) as u64);

    // core.probe in both regimes on the workload's own programs.
    let mut engines: HashMap<(usize, Level, World, bool), Arc<CompiledAliasEngine>> =
        HashMap::new();
    let mut natural_dense = Vec::new();
    for a in &alias {
        let prog_key = Arc::as_ptr(&a.program) as usize;
        natural_dense.push(a.program.aps.len() <= DENSE_LIMIT);
        for dense in [true, false] {
            engines
                .entry((prog_key, a.level, a.world, dense))
                .or_insert_with(|| {
                    let tbaa = Arc::new(Tbaa::build(&a.program, a.level, a.world));
                    let limit = if dense { usize::MAX } else { 0 };
                    Arc::new(CompiledAliasEngine::compile_with_dense_limit(
                        &a.program, tbaa, limit,
                    ))
                });
        }
    }
    let mut probe = [Timed::default(), Timed::default()];
    for (slot, dense) in [(0, true), (1, false)] {
        let batch: Vec<(&Arc<CompiledAliasEngine>, &AliasSample)> = alias
            .iter()
            .map(|a| {
                (
                    &engines[&(Arc::as_ptr(&a.program) as usize, a.level, a.world, dense)],
                    a,
                )
            })
            .collect();
        // Fill the lazy memo first: the daemon's is warm when timed.
        for (engine, a) in &batch {
            for &(x, y) in &a.ids {
                black_box(engine.may_alias(&a.program.aps, x, y));
            }
        }
        let rounds = (BLOCK_CALLS * 5 / total_pairs).max(1);
        let name = if dense {
            "core.probe.dense"
        } else {
            "core.probe.lazy"
        };
        let span = tracer.open(name, root, 0);
        for _ in 0..rounds {
            for (engine, a) in &batch {
                for &(x, y) in &a.ids {
                    black_box(engine.may_alias(&a.program.aps, black_box(x), black_box(y)));
                }
            }
        }
        tracer.close(span);
        probe[slot].add(tracer, span, (rounds * total_pairs) as u64);
    }

    // core.census and opt.rle on the sampled pairs / rle requests.
    let mut census = Timed::default();
    let mut rle = Timed::default();
    for (i, (_, kind)) in input.samples.iter().enumerate() {
        let (sid, level, world, is_rle) = match kind {
            ReqKind::Pairs {
                sid, level, world, ..
            } => (sid, level, world, false),
            ReqKind::Rle {
                sid, level, world, ..
            } => (sid, level, world, true),
            _ => continue,
        };
        let Some(slot) = sid_map.get(sid).and_then(|s| store.by_id(s)) else {
            continue;
        };
        let session = slot.as_ref().as_ref().expect("loaded");
        let engine = session.engine(*level, *world);
        if is_rle {
            let span = tracer.open("opt.rle", root, i as u64);
            let mut prog = (*session.program).clone();
            black_box(tbaa_opt::run_rle(&mut prog, &*engine));
            tracer.close(span);
            rle.add(tracer, span, 1);
        } else {
            let span = tracer.open("core.census", root, i as u64);
            black_box(tbaa::census_alias_pairs(&session.program, &engine));
            tracer.close(span);
            census.add(tracer, span, 1);
        }
    }

    // The compile stages, one source at a time.
    let (mut front, mut lower, mut analysis, mut engine_build) = (
        Timed::default(),
        Timed::default(),
        Timed::default(),
        Timed::default(),
    );
    for (i, src) in input.compile_sources.iter().enumerate() {
        let span = tracer.open("mini_m3.compile", root, i as u64);
        black_box(mini_m3::compile(black_box(src)).is_ok());
        tracer.close(span);
        front.add(tracer, span, 1);
        let checked = mini_m3::compile(src).expect("workload source compiles");
        let span = tracer.open("ir.lower", root, i as u64);
        let program =
            tbaa_ir::lower::lower_parallel(checked, cores).expect("workload source lowers");
        tracer.close(span);
        lower.add(tracer, span, 1);
        for &(level, world) in &input.build_level_worlds {
            let span = tracer.open("core.analysis_build", root, i as u64);
            let tbaa = Arc::new(Tbaa::build(&program, level, world));
            tracer.close(span);
            analysis.add(tracer, span, 1);
            let span = tracer.open("core.engine_build", root, i as u64);
            black_box(CompiledAliasEngine::compile_with_threads(
                &program, tbaa, cores,
            ));
            tracer.close(span);
            engine_build.add(tracer, span, 1);
        }
    }
    let incr = IncrCompiler::new();
    let workers = tbaa_ir::effective_workers(cores, usize::MAX);
    for src in &input.incr_warm {
        black_box(incr.compile_with_threads(src, workers).0.is_ok());
    }
    let mut incr_t = Timed::default();
    for (i, src) in input.incr_timed.iter().enumerate() {
        let span = tracer.open("incr.compile", root, i as u64);
        black_box(incr.compile_with_threads(src, workers).0.is_ok());
        tracer.close(span);
        incr_t.add(tracer, span, 1);
    }
    tracer.close(root);

    // What the daemon spends on one alias request inside these layers.
    let per_alias: Vec<f64> = alias
        .iter()
        .zip(&natural_dense)
        .map(|(a, &dense)| {
            let n = a.pairs.len() as f64;
            let probe_ns = probe[if dense { 0 } else { 1 }].per_call_ns();
            (lookup.per_call_ns() + n * (2.0 * resolve.per_call_ns() + probe_ns)) / 1e3
        })
        .collect();
    let alias_attributed_us =
        decode_alias.per_call_us() + per_alias.iter().sum::<f64>() / per_alias.len().max(1) as f64;

    let mut metrics = Vec::new();
    let mut put =
        |name: &str, unit: &'static str, v: f64| metrics.push((name.to_string(), unit, v));
    for (name, t, in_ns) in [
        ("server.decode", &decode, false),
        ("session.lookup", &lookup, false),
        ("session.resolve", &resolve, false),
        ("core.probe.dense", &probe[0], true),
        ("core.probe.lazy", &probe[1], true),
        ("core.census", &census, false),
        ("opt.rle", &rle, false),
        ("mini_m3.compile", &front, false),
        ("ir.lower", &lower, false),
        ("incr.compile", &incr_t, false),
        ("core.analysis_build", &analysis, false),
        ("core.engine_build", &engine_build, false),
    ] {
        if in_ns {
            let metric = name.replacen("probe.", "probe_ns.", 1);
            put(&metric, "ns", t.per_call_ns());
        } else {
            put(&format!("{name}_us"), "us", t.per_call_us());
        }
        put(&format!("{name}.allocs"), "count", t.allocs_per_call());
    }
    LadderOut {
        metrics,
        alias_attributed_us,
    }
}
