//! `bench-alias` — alias-query throughput microbenchmark.
//!
//! Measures the compiled query engine against the naive tree-walking
//! analysis on one benchsuite program (default: `m3cg`, the largest),
//! plus the thread scaling of the parallel `count_alias_pairs` driver,
//! and writes one JSON object to `BENCH_alias_query.json`:
//!
//! ```text
//! bench-alias [--bench NAME] [--scale N] [--reps N] [--out PATH] [--smoke]
//! ```
//!
//! The query workload is the full cross product of the program's
//! interned access paths, repeated `--reps` times. Three engines run
//! the identical workload: the naive `Tbaa` walk, the compiled engine's
//! memoized entry point, and its uncached walk. `--smoke` shrinks the
//! repetition counts so CI can gate on "the harness runs and the
//! engines agree" in well under a second.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tbaa::analysis::{Level, Tbaa};
use tbaa::{
    count_alias_pairs_rows, count_alias_pairs_with_threads, AliasAnalysis, CompiledAliasEngine,
    World,
};
use tbaa_benchsuite::Benchmark;
use tbaa_ir::path::ApId;
use tbaa_server::json::Value;

struct Config {
    bench: String,
    scale: u32,
    reps: u32,
    pair_reps: u32,
    out: String,
    smoke: bool,
    sweep_dense_limit: bool,
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config {
        bench: "m3cg".to_string(),
        scale: 1,
        reps: 200,
        pair_reps: 20,
        out: "BENCH_alias_query.json".to_string(),
        smoke: false,
        sweep_dense_limit: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => {
                i += 1;
                cfg.bench = args.get(i).cloned().unwrap_or(cfg.bench);
            }
            "--scale" => {
                i += 1;
                cfg.scale = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(cfg.scale);
            }
            "--reps" => {
                i += 1;
                cfg.reps = args.get(i).and_then(|s| s.parse().ok()).unwrap_or(cfg.reps);
            }
            "--out" => {
                i += 1;
                cfg.out = args.get(i).cloned().unwrap_or(cfg.out);
            }
            "--smoke" => cfg.smoke = true,
            "--sweep-dense-limit" => cfg.sweep_dense_limit = true,
            other => {
                eprintln!("bench-alias: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if cfg.smoke {
        cfg.reps = 2;
        cfg.pair_reps = 1;
    }
    cfg
}

/// Runs `reps` sweeps over the pair workload, returning queries/sec,
/// best of three trials (the standard microbench defense against
/// scheduler noise). The sweep shape (tight loop over a pair slice) is
/// exactly what the bulk clients — `count_alias_pairs` and the
/// optimizer kill scans — issue, so this measures the serving cost they
/// see. `black_box` on the slice keeps the optimizer from proving the
/// rep loop pure and collapsing it.
fn throughput(reps: u32, pairs: &[(ApId, ApId)], mut query: impl FnMut(ApId, ApId) -> bool) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..reps {
            for &(a, b) in black_box(pairs) {
                acc += query(a, b) as u64;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        black_box(acc);
        best = best.max((reps as u64 * pairs.len() as u64) as f64 / secs.max(1e-9));
    }
    best
}

/// Best per-call microseconds over three trials of `reps` calls each.
fn best_us(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..reps.max(1) {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6 / reps.max(1) as f64);
    }
    best
}

/// The Table 5 pair census, run twice per benchsuite program: the
/// scalar walk (one engine probe per distinct reference pair) against
/// the word-parallel row-mask kernel. Both run single-threaded so the
/// ratio is pure kernel efficiency — it must show on a 1-CPU host where
/// the thread-scaling curve is flat. Every timed call re-checks exact
/// count equality: the kernel is only a faster route to the same bits,
/// and a divergence invalidates the whole section.
///
/// Returns the `census` report object and the suite-aggregate speedup
/// (total scalar time over total kernel time).
fn census_section(smoke: bool) -> (Value<'static>, f64) {
    let reps = if smoke { 2u32 } else { 100 };
    let mut rows: Vec<Value<'static>> = Vec::new();
    let mut total_scalar = 0.0f64;
    let mut total_word = 0.0f64;
    for b in tbaa_benchsuite::suite() {
        let prog = b.compile(1).expect("benchsuite compiles");
        let tbaa = Arc::new(Tbaa::build(&prog, Level::SmFieldTypeRefs, World::Closed));
        let engine = CompiledAliasEngine::compile(&prog, tbaa);
        let ref_rows = prog.heap_ref_rows();
        let reference = count_alias_pairs_rows(&prog, &ref_rows, &engine, 1);
        let scalar_us = best_us(reps, || {
            let counts = count_alias_pairs_rows(&prog, black_box(&ref_rows), &engine, 1);
            assert_eq!(counts, reference, "scalar census drifted on {}", b.name);
        });
        let word_us = best_us(reps, || {
            let counts = engine
                .dense_census(black_box(&ref_rows))
                .unwrap_or_else(|| panic!("{} left the dense regime", b.name));
            assert_eq!(counts, reference, "word-parallel census diverged on {}", b.name);
        });
        total_scalar += scalar_us;
        total_word += word_us;
        rows.push(Value::object(vec![
            ("bench", Value::Str(b.name.into())),
            ("references", Value::Int(reference.references as i64)),
            ("local_pairs", Value::Int(reference.local_pairs as i64)),
            ("global_pairs", Value::Int(reference.global_pairs as i64)),
            ("scalar_us", Value::Float(scalar_us)),
            ("word_parallel_us", Value::Float(word_us)),
            ("speedup", Value::Float(scalar_us / word_us.max(1e-9))),
        ]));
    }
    let speedup = total_scalar / total_word.max(1e-9);
    let report = Value::object(vec![
        ("threads", Value::Int(1)),
        ("reps", Value::Int(reps as i64)),
        ("level", Value::Str("SMFieldTypeRefs".into())),
        ("world", Value::Str("closed".into())),
        ("rows", Value::Array(rows)),
        ("total_scalar_us", Value::Float(total_scalar)),
        ("total_word_parallel_us", Value::Float(total_word)),
        ("speedup", Value::Float(speedup)),
    ]);
    (report, speedup)
}

/// A synthetic module with `types * vars * fields` distinct heap access
/// paths. The benchsuite programs finish a whole pair census in ~50us —
/// less than the cost of spawning workers — so thread scaling is
/// measured on a program big enough (~400k pair queries per census) for
/// the split to pay. Field names repeat across types and each type has
/// several variables, so the census sees both genuine may-alias pairs
/// (same field, same type, different roots) and same-field/different-
/// type pairs that make the naive walk do real Table 2 work.
fn synthetic_source(types: usize, vars: usize, fields: usize) -> String {
    use std::fmt::Write as _;
    let mut src = String::from("MODULE Big;\nTYPE\n");
    for t in 0..types {
        let mut decl = format!("  T{t} = OBJECT ");
        for f in 0..fields {
            let _ = write!(decl, "f{f}");
            decl.push_str(if f + 1 < fields { ", " } else { ": INTEGER; " });
        }
        decl.push_str("END;\n");
        src.push_str(&decl);
    }
    src.push_str("VAR\n");
    for t in 0..types {
        for v in 0..vars {
            let _ = writeln!(src, "  v{t}x{v}: T{t};");
        }
    }
    src.push_str("BEGIN\n");
    for t in 0..types {
        for v in 0..vars {
            let _ = writeln!(src, "  v{t}x{v} := NEW(T{t});");
        }
    }
    for t in 0..types {
        for v in 0..vars {
            for f in 0..fields {
                let _ = writeln!(src, "  v{t}x{v}.f{f} := {};", (t * vars + v) * fields + f);
            }
        }
    }
    src.push_str("END Big.\n");
    src
}

/// Build-time vs query-time sweep for the dense pair matrix, to put
/// [`DENSE_LIMIT`](tbaa::DENSE_LIMIT) on data instead of folklore.
///
/// For a ladder of synthetic snapshot sizes, both regimes are compiled
/// from the same analysis — `compile_with_dense_limit(.., usize::MAX)`
/// forces the dense matrix, `0` forces the lazy memo — and the sweep
/// records the build cost and the steady-state query rate of each. The
/// published figure of merit is `break_even_queries`: the query volume
/// at which the dense matrix has amortized its extra build time,
/// `(dense_build - lazy_build) / (1/lazy_qps - 1/dense_qps)`. A limit
/// is well placed when snapshots under it break even within the query
/// volume a session actually sees (one `pairs` census alone is `n²`
/// queries) and snapshots over it would spend more on the matrix than
/// queries can recoup.
fn dense_limit_sweep(smoke: bool) -> Value<'static> {
    use tbaa_bench::rng::XorShift64;
    // (types, vars, fields) shapes whose interned-path counts ladder
    // from well under the current limit to ~2x over it.
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(2, 2, 4), (4, 2, 8)]
    } else {
        &[
            (4, 2, 4),
            (4, 4, 8),
            (8, 4, 16),
            (8, 8, 16),
            (16, 8, 16),
            (16, 8, 32),
        ]
    };
    let reps = if smoke { 2 } else { 40 };
    const SAMPLE_CAP: usize = 32_768;
    let mut rows = Vec::new();
    for &(types, vars, fields) in shapes {
        let prog = tbaa_ir::compile_to_ir(&synthetic_source(types, vars, fields))
            .expect("synthetic program compiles");
        let tbaa = Arc::new(Tbaa::build(&prog, Level::SmFieldTypeRefs, World::Closed));
        let n = prog.aps.len();
        // Deterministic pair sample, capped so the biggest snapshots
        // don't swamp the sweep with workload-size effects.
        let mut rng = XorShift64::new(0xD15E + n as u64);
        let pairs: Vec<(ApId, ApId)> = (0..(n * n).min(SAMPLE_CAP))
            .map(|_| (ApId(rng.index(n) as u32), ApId(rng.index(n) as u32)))
            .collect();

        let dense = CompiledAliasEngine::compile_with_dense_limit(&prog, tbaa.clone(), usize::MAX);
        let lazy = CompiledAliasEngine::compile_with_dense_limit(&prog, tbaa.clone(), 0);
        for &(a, b) in &pairs {
            assert_eq!(
                dense.may_alias(&prog.aps, a, b),
                lazy.may_alias(&prog.aps, a, b),
                "regimes disagree on {a:?} vs {b:?} at {n} paths"
            );
        }
        let dense_qps = throughput(reps, &pairs, |a, b| dense.may_alias(&prog.aps, a, b));
        let lazy_qps = throughput(reps, &pairs, |a, b| lazy.may_alias(&prog.aps, a, b));
        let dense_build = dense.stats().build_us;
        let lazy_build = lazy.stats().build_us;
        let per_query_saving_s = 1.0 / lazy_qps.max(1e-9) - 1.0 / dense_qps.max(1e-9);
        let break_even = if per_query_saving_s > 0.0 {
            (dense_build.saturating_sub(lazy_build) as f64 / 1e6 / per_query_saving_s).round()
                as i64
        } else {
            -1 // lazy queries at least as fast: dense never pays here
        };
        println!(
            "  sweep n={n:>5}: build {dense_build}us dense / {lazy_build}us lazy, \
             qps {dense_qps:.2e} dense / {lazy_qps:.2e} lazy, break-even {break_even} queries"
        );
        rows.push(Value::object(vec![
            ("aps", Value::Int(n as i64)),
            ("synthetic_types", Value::Int(types as i64)),
            ("synthetic_vars", Value::Int(vars as i64)),
            ("synthetic_fields", Value::Int(fields as i64)),
            ("sampled_pairs", Value::Int(pairs.len() as i64)),
            ("dense_build_us", Value::Int(dense_build as i64)),
            ("lazy_build_us", Value::Int(lazy_build as i64)),
            ("dense_qps", Value::Float(dense_qps)),
            ("lazy_memo_qps", Value::Float(lazy_qps)),
            ("break_even_queries", Value::Int(break_even)),
        ]));
    }
    Value::object(vec![
        ("current_dense_limit", Value::Int(tbaa::DENSE_LIMIT as i64)),
        ("sample_pairs_cap", Value::Int(SAMPLE_CAP as i64)),
        ("rows", Value::Array(rows)),
    ])
}

fn main() {
    let cfg = parse_args();
    let Some(bench) = Benchmark::by_name(&cfg.bench) else {
        eprintln!("bench-alias: unknown benchmark `{}`", cfg.bench);
        std::process::exit(2);
    };
    let prog = bench.compile(cfg.scale).expect("benchsuite compiles");
    let ids: Vec<ApId> = (0..prog.aps.len() as u32).map(ApId).collect();

    let naive = Arc::new(Tbaa::build(&prog, Level::SmFieldTypeRefs, World::Closed));
    let engine = CompiledAliasEngine::compile(&prog, naive.clone());

    // Correctness gate before timing: the workload must be answered
    // identically or the throughput numbers are meaningless.
    for &a in &ids {
        for &b in &ids {
            assert_eq!(
                engine.may_alias(&prog.aps, a, b),
                naive.may_alias(&prog.aps, a, b),
                "engine diverged from naive on {a:?} vs {b:?}"
            );
        }
    }

    let pairs: Vec<(ApId, ApId)> = ids
        .iter()
        .flat_map(|&a| ids.iter().map(move |&b| (a, b)))
        .collect();
    let naive_qps = throughput(cfg.reps, &pairs, |a, b| naive.may_alias(&prog.aps, a, b));
    let compiled_qps = throughput(cfg.reps, &pairs, |a, b| engine.may_alias(&prog.aps, a, b));
    let uncached_qps = throughput(cfg.reps, &pairs, |a, b| {
        engine.may_alias_uncached(&prog.aps, a, b)
    });
    let speedup = compiled_qps / naive_qps.max(1e-9);
    let uncached_speedup = uncached_qps / naive_qps.max(1e-9);

    // Thread scaling of the parallel pair counter. Driven by the naive
    // analysis on a synthetic many-reference program: per-query work is
    // then large enough, and the census long enough (~ms, not ~50us),
    // for the thread split to beat its own spawn cost. On a single-core
    // host the curve is necessarily flat — the report records the host
    // parallelism so readers can interpret it.
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (types, vars, fields) = if cfg.smoke { (4, 2, 8) } else { (15, 3, 20) };
    let big = tbaa_ir::compile_to_ir(&synthetic_source(types, vars, fields))
        .expect("synthetic program compiles");
    let big_naive = Tbaa::build(&big, Level::SmFieldTypeRefs, World::Closed);
    let reference = count_alias_pairs_with_threads(&big, &big_naive, 1);
    let mut scaling: Vec<Value> = Vec::new();
    let mut census_us: Vec<(usize, i64)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let mut best = i64::MAX;
        for _ in 0..cfg.pair_reps.max(1) {
            let t0 = Instant::now();
            let counts = count_alias_pairs_with_threads(&big, &big_naive, threads);
            assert_eq!(counts, reference, "pair counts must not depend on threads");
            best = best.min(t0.elapsed().as_micros() as i64);
        }
        census_us.push((threads, best));
        scaling.push(Value::object(vec![
            ("threads", Value::Int(threads as i64)),
            ("us", Value::Int(best)),
        ]));
    }

    // Word-parallel census kernel vs the scalar walk over the whole
    // benchsuite, single-threaded.
    let (census, census_speedup) = census_section(cfg.smoke);

    let sweep = cfg.sweep_dense_limit.then(|| {
        println!("bench-alias: dense-limit sweep (build cost vs query rate)");
        dense_limit_sweep(cfg.smoke)
    });

    let stats = engine.stats();
    let mut fields = vec![
        ("host", tbaa_bench::host::host_stamp()),
        ("bench", Value::Str(cfg.bench.as_str().into())),
        ("scale", Value::Int(cfg.scale as i64)),
        ("smoke", Value::Bool(cfg.smoke)),
        ("aps", Value::Int(ids.len() as i64)),
        ("reps", Value::Int(cfg.reps as i64)),
        (
            "queries_per_engine",
            Value::Int(cfg.reps as i64 * (ids.len() * ids.len()) as i64),
        ),
        ("naive_qps", Value::Float(naive_qps)),
        ("compiled_qps", Value::Float(compiled_qps)),
        ("uncached_qps", Value::Float(uncached_qps)),
        ("speedup", Value::Float(speedup)),
        ("uncached_speedup", Value::Float(uncached_speedup)),
        (
            "pairs",
            Value::object(vec![
                ("host_threads", Value::Int(host_threads as i64)),
                ("synthetic_types", Value::Int(types as i64)),
                ("synthetic_vars", Value::Int(vars as i64)),
                ("synthetic_fields", Value::Int(fields as i64)),
                ("references", Value::Int(reference.references as i64)),
                ("local_pairs", Value::Int(reference.local_pairs as i64)),
                ("global_pairs", Value::Int(reference.global_pairs as i64)),
                ("reps", Value::Int(cfg.pair_reps as i64)),
                ("scaling", Value::Array(scaling)),
            ]),
        ),
        ("census", census),
        (
            "engine",
            Value::object(vec![
                ("nodes", Value::Int(stats.nodes as i64)),
                ("dense_pairs", Value::Int(stats.dense_pairs as i64)),
                ("memo_len", Value::Int(stats.memo_len as i64)),
                ("build_us", Value::Int(stats.build_us as i64)),
            ]),
        ),
    ];
    if let Some(sweep) = sweep {
        fields.push(("dense_limit_sweep", sweep));
    }
    let report = Value::object(fields);
    std::fs::write(&cfg.out, format!("{}\n", report.encode())).expect("write report");

    println!(
        "bench-alias: {} (scale {}, {} paths, {} queries/engine)",
        cfg.bench,
        cfg.scale,
        ids.len(),
        cfg.reps as u64 * (ids.len() * ids.len()) as u64
    );
    println!("  naive     {:>12.0} q/s", naive_qps);
    println!("  compiled  {:>12.0} q/s  ({speedup:.1}x)", compiled_qps);
    println!(
        "  uncached  {:>12.0} q/s  ({uncached_speedup:.1}x)",
        uncached_qps
    );
    let census_line: Vec<String> = census_us
        .iter()
        .map(|&(t, us)| format!("{t}t={us}us"))
        .collect();
    println!(
        "  census    {} refs, {} global pairs: {}  ({} host threads)",
        reference.references,
        reference.global_pairs,
        census_line.join(" "),
        host_threads
    );
    println!("  census kernel  {census_speedup:.1}x word-parallel over scalar (benchsuite, 1 thread)");
    println!("  report -> {}", cfg.out);
    let mut failed = false;
    if !cfg.smoke && speedup < 5.0 {
        eprintln!("bench-alias: WARNING compiled speedup {speedup:.1}x is below the 5x target");
        failed = true;
    }
    if !cfg.smoke && census_speedup < 4.0 {
        eprintln!(
            "bench-alias: WARNING census kernel speedup {census_speedup:.1}x is below the 4x target"
        );
        failed = true;
    }
    // The census must get faster with threads wherever the host can
    // actually run them in parallel; a single-core host only has to not
    // fall off a cliff when oversubscribed.
    let serial_us = census_us[0].1;
    let best_parallel = census_us[1..].iter().map(|&(_, us)| us).min().unwrap_or(serial_us);
    if !cfg.smoke && host_threads > 1 && best_parallel >= serial_us {
        eprintln!(
            "bench-alias: WARNING census did not speed up with threads \
             ({serial_us}us serial vs {best_parallel}us best parallel on {host_threads} cores)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
