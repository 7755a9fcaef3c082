//! `tbaac` — a command-line driver for the MiniM3 → TBAA → RLE pipeline.
//!
//! ```text
//! tbaac check  <file.m3>                     parse + type-check
//! tbaac ir     <file.m3> [opts]              dump the (optimized) IR
//! tbaac run    <file.m3> [opts]              execute and print counters
//! tbaac sim    <file.m3> [opts]              simulate (cycles + cache)
//! tbaac alias  <file.m3> [--level L]         list heap refs + alias pairs
//! tbaac serve  [--addr A] [...]              run the tbaad daemon in-process
//! tbaac route  [--addr A] [--shards N] [...] run the tbaa-router front tier
//! tbaac query  [--addr A] <verb> [...]       one-shot client against tbaad
//!
//! opts: --level typedecl|fields|merges   (default merges)
//!       --world closed|open              (default closed)
//!       -O                               run RLE
//!       --pre                            run RLE + PRE
//!       --full                           devirt + inline + RLE
//!       --steensgaard                    drive RLE with Steensgaard
//!
//! query verbs (program from --bench NAME [--scale N] or --file F):
//!       alias AP1 AP2      one may-alias verdict
//!       pairs              Table-5 style pair counts
//!       rle                static RLE report
//!       paths              list addressable access paths
//!       stats              server metrics snapshot
//! ```

use std::process::ExitCode;
use tbaa_repro::alias::{AliasAnalysis, Level, Steensgaard, Tbaa, World};
use tbaa_repro::ir::{self, pretty, Program};
use tbaa_repro::opt::{self, OptOptions};
use tbaa_repro::server;
use tbaa_repro::sim;
use tbaa_repro::sim::interp::{run, NullHook, RunConfig};

/// Where `tbaac serve` listens and `tbaac query` connects by default.
const DEFAULT_ADDR: &str = "127.0.0.1:4980";

struct Opts {
    level: Level,
    world: World,
    rle: bool,
    pre: bool,
    full: bool,
    steensgaard: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return cmd_serve(&args[1..]),
        Some("route") => return cmd_route(&args[1..]),
        Some("query") => return cmd_query(&args[1..]),
        _ => {}
    }
    let (Some(cmd), Some(file)) = (args.first(), args.get(1)) else {
        eprintln!("usage: tbaac <check|ir|run|sim|alias|serve|route|query> <file.m3> [options]");
        return ExitCode::FAILURE;
    };
    let mut opts = Opts {
        level: Level::SmFieldTypeRefs,
        world: World::Closed,
        rle: false,
        pre: false,
        full: false,
        steensgaard: false,
    };
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--level" => {
                i += 1;
                opts.level = match args.get(i).map(String::as_str) {
                    Some("typedecl") => Level::TypeDecl,
                    Some("fields") => Level::FieldTypeDecl,
                    Some("merges") => Level::SmFieldTypeRefs,
                    other => {
                        eprintln!("unknown level {other:?}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--world" => {
                i += 1;
                opts.world = match args.get(i).map(String::as_str) {
                    Some("closed") => World::Closed,
                    Some("open") => World::Open,
                    other => {
                        eprintln!("unknown world {other:?}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "-O" => opts.rle = true,
            "--pre" => opts.pre = true,
            "--full" => opts.full = true,
            "--steensgaard" => opts.steensgaard = true,
            other => {
                eprintln!("unknown option `{other}`");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut prog = match ir::compile_to_ir(&source) {
        Ok(p) => p,
        Err(diags) => {
            let map = tbaa_repro::lang::span::LineMap::new(&source);
            eprint!("{}", diags.render(&map));
            return ExitCode::FAILURE;
        }
    };

    if cmd == "check" {
        println!(
            "{}: ok ({} procedures, {} instructions, {} heap reference sites)",
            file,
            prog.funcs.len(),
            prog.instr_count(),
            prog.heap_ref_sites().len()
        );
        return ExitCode::SUCCESS;
    }

    apply_opts(&mut prog, &opts);

    match cmd.as_str() {
        "ir" => print!("{}", pretty::program(&prog)),
        "run" => match run(&prog, &mut NullHook, RunConfig::default()) {
            Ok(out) => {
                println!("{}", out.output);
                eprintln!(
                    "instructions {} | heap loads {} | heap stores {} | \
                         other loads {} | allocs {} ({} cells)",
                    out.counts.instructions,
                    out.counts.heap_loads,
                    out.counts.heap_stores,
                    out.counts.other_loads,
                    out.counts.allocs,
                    out.heap_cells
                );
            }
            Err(e) => {
                eprintln!("runtime error: {e}");
                return ExitCode::FAILURE;
            }
        },
        "sim" => match sim::simulate(&prog, RunConfig::default()) {
            Ok((counts, cache, cycles)) => {
                println!(
                    "cycles {cycles:.0} | instructions {} | loads {} | miss ratio {:.2}%",
                    counts.instructions,
                    counts.heap_loads + counts.other_loads,
                    100.0 * cache.miss_ratio()
                );
            }
            Err(e) => {
                eprintln!("runtime error: {e}");
                return ExitCode::FAILURE;
            }
        },
        "alias" => {
            let analysis: Box<dyn AliasAnalysis + Sync> = if opts.steensgaard {
                Box::new(Steensgaard::build(&prog))
            } else {
                Box::new(Tbaa::build(&prog, opts.level, opts.world))
            };
            println!("heap reference expressions:");
            for (f, ap, is_store) in prog.heap_ref_sites() {
                println!(
                    "  {} {:<24} in {}",
                    if is_store { "store" } else { "load " },
                    pretty::access_path(&prog, ap),
                    prog.func(f).name
                );
            }
            let counts = tbaa_repro::alias::count_alias_pairs(&prog, analysis.as_ref());
            println!(
                "{}: {} references, {} local pairs, {} global pairs",
                analysis.name(),
                counts.references,
                counts.local_pairs,
                counts.global_pairs
            );
        }
        other => {
            eprintln!("unknown command `{other}`");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `tbaac serve` — run the daemon in the foreground (same flags as
/// the standalone `tbaad` binary).
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut config = server::ServerConfig::builder().addr(DEFAULT_ADDR).build();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--addr" => match value {
                Some(a) => config.addr = a.clone(),
                None => return serve_usage("--addr needs HOST:PORT"),
            },
            "--socket" => match value {
                Some(p) => config.unix_path = Some(p.into()),
                None => return serve_usage("--socket needs PATH"),
            },
            "--workers" => match value.and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => config.workers = n,
                _ => return serve_usage("--workers needs a positive integer"),
            },
            "--capacity" => match value.and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => config.session_capacity = n,
                _ => return serve_usage("--capacity needs a positive integer"),
            },
            "--journal-dir" => match value {
                Some(d) => config.journal_dir = Some(d.into()),
                None => return serve_usage("--journal-dir needs DIR"),
            },
            "--compile-threads" => match value.and_then(|s| s.parse().ok()) {
                Some(n) => config.compile_threads = n,
                None => return serve_usage("--compile-threads needs an integer (0 = auto)"),
            },
            "--prewarm" => match value.and_then(|s| s.parse().ok()) {
                Some(n) => config.prewarm = n,
                None => return serve_usage("--prewarm needs an integer (0 = off)"),
            },
            other => return serve_usage(&format!("unknown option `{other}`")),
        }
        i += 2;
    }
    let srv = match server::Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tbaac serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("tbaad listening on {}", srv.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match srv.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tbaac serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve_usage(msg: &str) -> ExitCode {
    eprintln!("tbaac serve: {msg}");
    eprintln!(
        "usage: tbaac serve [--addr HOST:PORT] [--socket PATH] [--workers N] [--capacity N] \
         [--journal-dir DIR] [--compile-threads N] [--prewarm N]\n  \
         --workers N  requests executing at once (default 16)"
    );
    ExitCode::FAILURE
}

/// `tbaac route` — run the session-sharded front tier: one listener,
/// N `tbaad` backends (in-process by default; spawned with
/// `--backend-bin`; external with `--attach`).
fn cmd_route(args: &[String]) -> ExitCode {
    use tbaa_repro::router::{BackendSpec, Router, RouterConfig};

    let mut builder = RouterConfig::builder().addr(DEFAULT_ADDR);
    let mut shards: usize = 2;
    let mut workers: usize = 16;
    let mut capacity: usize = 64;
    let mut backend_bin: Option<std::path::PathBuf> = None;
    let mut attach: Option<Vec<String>> = None;
    let mut journal_dir: Option<std::path::PathBuf> = None;
    let mut compile_threads: usize = 0;
    let mut prewarm: usize = 1;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--addr" => match value {
                Some(a) => builder = builder.addr(a.clone()),
                None => return route_usage("--addr needs HOST:PORT"),
            },
            "--socket" => match value {
                Some(p) => builder = builder.unix_path(p),
                None => return route_usage("--socket needs PATH"),
            },
            "--shards" => match value.and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => shards = n,
                _ => return route_usage("--shards needs a positive integer"),
            },
            "--workers" => match value.and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => workers = n,
                _ => return route_usage("--workers needs a positive integer"),
            },
            "--capacity" => match value.and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => capacity = n,
                _ => return route_usage("--capacity needs a positive integer"),
            },
            "--backend-bin" => match value {
                Some(p) => backend_bin = Some(p.into()),
                None => return route_usage("--backend-bin needs a path to tbaad"),
            },
            "--attach" => match value {
                Some(list) => {
                    attach = Some(list.split(',').map(str::to_string).collect())
                }
                None => return route_usage("--attach needs ADDR[,ADDR...]"),
            },
            "--journal-dir" => match value {
                Some(d) => journal_dir = Some(d.into()),
                None => return route_usage("--journal-dir needs DIR"),
            },
            "--compile-threads" => match value.and_then(|s| s.parse().ok()) {
                Some(n) => compile_threads = n,
                None => return route_usage("--compile-threads needs an integer (0 = auto)"),
            },
            "--prewarm" => match value.and_then(|s| s.parse().ok()) {
                Some(n) => prewarm = n,
                None => return route_usage("--prewarm needs an integer (0 = off)"),
            },
            other => return route_usage(&format!("unknown option `{other}`")),
        }
        i += 2;
    }
    let backend = match (backend_bin, attach) {
        (Some(_), Some(_)) => {
            return route_usage("--backend-bin and --attach are mutually exclusive")
        }
        (Some(bin), None) => BackendSpec::Spawn {
            bin,
            workers,
            capacity,
            journal_dir,
            compile_threads,
            prewarm,
        },
        (None, Some(addrs)) => {
            if journal_dir.is_some() {
                return route_usage("--journal-dir applies to owned backends, not --attach");
            }
            BackendSpec::Attach { addrs }
        }
        (None, None) => {
            let mut config = server::ServerConfig::builder()
                .workers(workers)
                .session_capacity(capacity)
                .compile_threads(compile_threads)
                .prewarm(prewarm)
                .build();
            config.journal_dir = journal_dir;
            BackendSpec::InProcess { config }
        }
    };
    let config = builder.shards(shards).workers(workers).backend(backend).build();
    let router = match Router::bind(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tbaac route: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("tbaa-router listening on {}", router.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match router.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tbaac route: {e}");
            ExitCode::FAILURE
        }
    }
}

fn route_usage(msg: &str) -> ExitCode {
    eprintln!("tbaac route: {msg}");
    eprintln!(
        "usage: tbaac route [--addr HOST:PORT] [--socket PATH] [--shards N] [--workers N] \
         [--capacity N] [--journal-dir DIR] [--compile-threads N] [--prewarm N] \
         [--backend-bin TBAAD | --attach ADDR[,ADDR...]]\n  \
         --workers N  requests executing at once, in the router and in each owned shard \
         (default 16)"
    );
    ExitCode::FAILURE
}

/// `tbaac query` — one-shot client: load a program into the daemon's
/// session cache (warm across invocations!) and run one verb.
fn cmd_query(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut bench: Option<String> = None;
    let mut file: Option<String> = None;
    let mut scale: u32 = server::proto::DEFAULT_SCALE;
    let mut level: Option<String> = None;
    let mut world: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--addr" => match value {
                Some(a) => addr = a.clone(),
                None => return query_usage("--addr needs HOST:PORT"),
            },
            "--bench" => match value {
                Some(b) => bench = Some(b.clone()),
                None => return query_usage("--bench needs a program name"),
            },
            "--file" => match value {
                Some(f) => file = Some(f.clone()),
                None => return query_usage("--file needs a path"),
            },
            "--scale" => match value.and_then(|s| s.parse().ok()) {
                Some(n) if (1..=64).contains(&n) => scale = n,
                _ => return query_usage("--scale needs 1..=64"),
            },
            "--level" => match value {
                Some(l) => level = Some(l.clone()),
                None => return query_usage("--level needs a name"),
            },
            "--world" => match value {
                Some(w) => world = Some(w.clone()),
                None => return query_usage("--world needs closed|open"),
            },
            positional => {
                rest.push(positional.to_string());
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    let Some(verb) = rest.first().cloned() else {
        return query_usage("missing verb");
    };

    let mut client = match server::Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("tbaac query: cannot reach tbaad at {addr}: {e}");
            eprintln!("hint: start one with `tbaac serve` or `tbaad`");
            return ExitCode::FAILURE;
        }
    };
    let _ = client.set_timeout(Some(std::time::Duration::from_secs(60)));

    if verb == "stats" {
        return match client.stats() {
            Ok(v) => {
                println!("{}", v.raw);
                ExitCode::SUCCESS
            }
            Err(e) => query_fail(&e),
        };
    }

    // Every other verb needs a loaded session.
    let want_paths = verb == "paths";
    let load = match (&bench, &file) {
        (Some(name), None) => client.load_bench_with(name, scale, want_paths),
        (None, Some(path)) => {
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("tbaac query: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            client.load_source_with(&source, want_paths)
        }
        _ => return query_usage("need exactly one of --bench NAME or --file F"),
    };
    let load = match load {
        Ok(l) => l,
        Err(e) => return query_fail(&e),
    };

    let level = level.as_deref();
    let world = world.as_deref();
    match verb.as_str() {
        "alias" => {
            let (Some(ap1), Some(ap2)) = (rest.get(1), rest.get(2)) else {
                return query_usage("alias needs two access paths");
            };
            match client.alias(
                &load.session,
                level,
                world,
                &[(ap1.clone(), ap2.clone())],
            ) {
                Ok(reply) => {
                    println!(
                        "{} ~ {}: {}",
                        ap1,
                        ap2,
                        if reply.results[0] { "may alias" } else { "no alias" }
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => query_fail(&e),
            }
        }
        "pairs" => match client.pairs(&load.session, level, world) {
            Ok(p) => {
                println!(
                    "{} references, {} local pairs, {} global pairs",
                    p.references, p.local_pairs, p.global_pairs
                );
                ExitCode::SUCCESS
            }
            Err(e) => query_fail(&e),
        },
        "rle" => match client.rle(&load.session, level, world) {
            Ok(r) => {
                println!(
                    "RLE: hoisted {}, eliminated {}, removed {}",
                    r.hoisted, r.eliminated, r.removed
                );
                ExitCode::SUCCESS
            }
            Err(e) => query_fail(&e),
        },
        "paths" => {
            for p in &load.paths {
                println!("{p}");
            }
            ExitCode::SUCCESS
        }
        other => query_usage(&format!("unknown verb `{other}`")),
    }
}

fn query_fail(e: &server::ClientError) -> ExitCode {
    eprintln!("tbaac query: {e}");
    if let server::ClientError::Server(err) = e {
        for d in &err.diagnostics {
            eprintln!("  [{}..{}] {} error: {}", d.start, d.end, d.phase, d.message);
        }
    }
    ExitCode::FAILURE
}

fn query_usage(msg: &str) -> ExitCode {
    eprintln!("tbaac query: {msg}");
    eprintln!(
        "usage: tbaac query [--addr HOST:PORT] (--bench NAME [--scale N] | --file F.m3) \
         <alias AP1 AP2 | pairs | rle | paths | stats> [--level L] [--world W]"
    );
    ExitCode::FAILURE
}

fn apply_opts(prog: &mut Program, opts: &Opts) {
    if opts.full {
        let report = opt::optimize(prog, &OptOptions::full(opts.level));
        eprintln!(
            "full pipeline: devirtualized {}, inlined {}, RLE removed {}",
            report.devirt.resolved,
            report.inline.inlined,
            report.rle.removed()
        );
        return;
    }
    if opts.pre {
        let (rle, pre) = if opts.steensgaard {
            let a = Steensgaard::build(prog);
            opt::pre::run_rle_with_pre(prog, &a)
        } else {
            let a = Tbaa::build(prog, opts.level, opts.world);
            opt::pre::run_rle_with_pre(prog, &a)
        };
        eprintln!(
            "RLE+PRE: removed {} loads ({} compensating inserts)",
            rle.removed(),
            pre.inserted
        );
        return;
    }
    if opts.rle {
        let stats = if opts.steensgaard {
            let a = Steensgaard::build(prog);
            opt::rle::run_rle(prog, &a)
        } else {
            let a = Tbaa::build(prog, opts.level, opts.world);
            opt::rle::run_rle(prog, &a)
        };
        eprintln!(
            "RLE: hoisted {}, eliminated {}",
            stats.hoisted, stats.eliminated
        );
    }
}
