//! The three workloads: how each sets up, what its timed cycle sends, and
//! how its replies are checked.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tbaa::analysis::Level;
use tbaa::World;
use tbaa_bench::load::{CheckOutcome, Content, DiffChecker, ReqKind};
use tbaa_bench::rng::XorShift64;
use tbaa_server::proto::{DEFAULT_LEVEL, DEFAULT_WORLD};

use crate::drive::{ns, report, Line, Op, Plan, Runner, Verb};
use crate::gen::{self, EditCorpus, LEVEL_WORLDS};
use crate::trace::{Tracer, ROOT};
use crate::wire::{Conn, Server};

/// Flags every spawned daemon gets: the daemon's defaults, spelled out
/// so the provenance line states exactly what ran.
pub const DAEMON_FLAGS: [&str; 8] = [
    "--workers",
    "16",
    "--capacity",
    "32",
    "--compile-threads",
    "0",
    "--prewarm",
    "1",
];

/// What every workload run needs to know.
pub struct Ctx {
    /// Directory holding the release `tbaad` and `tbaac`.
    pub bin_dir: PathBuf,
    /// Scratch directory for sockets and the trace file.
    pub run_dir: PathBuf,
}

impl Ctx {
    /// Spawns the daemon for set-up number `n`.
    pub fn spawn(&self, n: usize) -> std::io::Result<Server> {
        let socket = self.socket(&format!("s{n}"));
        let mut args: Vec<String> = vec![
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--socket".into(),
            socket.display().to_string(),
        ];
        args.extend(DAEMON_FLAGS.iter().map(|s| s.to_string()));
        Server::spawn(&self.bin_dir.join("tbaad"), &args, &socket)
    }

    /// Spawns `tbaac route` attached to an already-running daemon.
    pub fn spawn_attached_router(&self, backend: &str) -> std::io::Result<Server> {
        let socket = self.socket("hop");
        let args: Vec<String> = vec![
            "route".into(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--socket".into(),
            socket.display().to_string(),
            "--attach".into(),
            backend.into(),
        ];
        Server::spawn(&self.bin_dir.join("tbaac"), &args, &socket)
    }

    fn socket(&self, name: &str) -> PathBuf {
        self.run_dir
            .join(format!("{}-{name}.sock", std::process::id()))
    }
}

/// A set-up request whose reply is checked after the run.
pub struct SetupReply {
    pub kind: ReqKind,
    pub reply: Option<String>,
}

/// One served program as the workload loads it.
pub struct Program {
    pub content: Content,
    pub load_line: String,
    pub paths: Vec<String>,
}

impl Program {
    pub fn new(content: Content, checker: &DiffChecker) -> Program {
        let load_line = match &content {
            Content::Bench { name, .. } => gen::load_bench_line(name),
            Content::Source { text } => gen::load_source_line(text),
        };
        let paths = checker.oracle().paths(&content.key());
        Program {
            content,
            load_line,
            paths,
        }
    }
}

/// Spawns the server, connects, loads every program and prewarms every
/// engine in `level_worlds`. Returns the server, the client, the session
/// id per program and the set-up time in seconds.
pub fn set_up(
    ctx: &Ctx,
    n: usize,
    programs: &[Program],
    level_worlds: &[(Level, World)],
    replies: &mut Vec<SetupReply>,
    tracer: Option<&mut Tracer>,
) -> std::io::Result<(Server, Runner, Vec<String>, f64)> {
    let t0 = Instant::now();
    let server = ctx.spawn(n)?;
    let conn = Conn::unix(&server.socket)?;
    let t_spawned = Instant::now();
    let mut runner = Runner::new(conn, server.tcp.clone());
    let mut sids = Vec::with_capacity(programs.len());
    let mut load_spans = Vec::new();
    for p in programs {
        let t = runner.probe(&p.load_line);
        load_spans.push(t);
        let reply = runner.reply().to_string();
        let sid = session_of(&reply).unwrap_or_default().to_string();
        replies.push(SetupReply {
            kind: ReqKind::Load {
                key: p.content.key(),
            },
            reply: Some(reply),
        });
        for &(level, world) in level_worlds {
            if (level, world) == (DEFAULT_LEVEL, DEFAULT_WORLD) {
                continue; // the load's prewarm built it
            }
            let pair = vec![(p.paths[0].clone(), p.paths[0].clone())];
            let line = gen::alias_line(&sid, Some((level, world)), &pair);
            let t = runner.probe(&line);
            load_spans.push(t);
            replies.push(SetupReply {
                kind: ReqKind::Alias {
                    key: p.content.key(),
                    sid: sid.clone(),
                    level,
                    world,
                    pairs: pair,
                },
                reply: Some(runner.reply().to_string()),
            });
        }
        sids.push(sid);
    }
    let t1 = Instant::now();
    if let Some(tr) = tracer {
        let root = tr.record("setup", ROOT, 0, t0, t1);
        tr.record("setup.spawn", root, 0, t0, t_spawned);
        for (i, t) in load_spans.into_iter().enumerate() {
            tr.record("setup.request", root, i as u64, t.0, t.1);
        }
    }
    Ok((server, runner, sids, ns((t0, t1)) as f64 / 1e9))
}

/// The `"session"` value of a reply.
pub fn session_of(reply: &str) -> Option<&str> {
    let start = reply.find("\"session\":\"")? + "\"session\":\"".len();
    let len = reply[start..].find('"')?;
    Some(&reply[start..start + len])
}

/// `line` with its session id replaced.
pub fn with_session(line: &str, old: &str, new: &str) -> String {
    line.replacen(
        &format!("\"session\":\"{old}\""),
        &format!("\"session\":\"{new}\""),
        1,
    )
}

/// Checks set-up replies; returns `(checked, failed)`.
pub fn verify_setup(replies: &[SetupReply], checker: &DiffChecker) -> (u64, u64) {
    let mut failed = 0;
    for r in replies {
        let ok = match &r.reply {
            None => false,
            Some(reply) => !matches!(checker.check(&r.kind, reply), CheckOutcome::Mismatch),
        };
        if !ok {
            failed += 1;
            report(failed, &format!("set-up reply diverged: {:?}", r.reply));
        }
    }
    (replies.len() as u64, failed)
}

// ---- static workloads ------------------------------------------------------

/// The ten benchsuite programs at the suite scale.
pub fn suite_contents() -> Vec<Content> {
    gen::suite_names()
        .into_iter()
        .map(|name| Content::Bench {
            name: name.into(),
            scale: gen::SUITE_SCALE,
        })
        .collect()
}

/// Number of large modules `query_large` serves.
pub const LARGE_MODULES: u64 = 5;

/// The large modules for `seed`.
pub fn large_contents(seed: u64) -> Vec<Content> {
    (0..LARGE_MODULES)
        .map(|i| Content::Source {
            text: gen::large_program(seed.wrapping_mul(31).wrapping_add(i)),
        })
        .collect()
}

fn push(lines: &mut Vec<Line>, text: String, kind: ReqKind, sid: Option<String>) -> usize {
    lines.push(Line { text, kind, sid });
    lines.len() - 1
}

/// The `query_suite` cycle, in blocks of seeded order:
/// per `(program, level, world)` a `pairs`, an `rle` and sixteen `alias`
/// batches (two of each size from 1 to 8 pairs); per program six
/// `load`+`alias` re-attaches; and one one-shot pair.
///
/// The heavy requests open each block, so only one `alias` in sixteen
/// runs right after one, on caches it left cold; spread at random they
/// made a tenth of the requests slow and a p90 flipped between modes.
pub fn suite_plan(seed: u64, programs: &[Program], sids: &[String]) -> Plan {
    let mut rng = XorShift64::new(seed ^ 0x7375_6974_6571_7279); // "suitqry"
    let mut lines = Vec::new();
    let mut blocks: Vec<Vec<Op>> = Vec::new();
    let mut oneshot = None;
    for (p, prog) in programs.iter().enumerate() {
        let key = prog.content.key();
        let sid = &sids[p];
        let load = push(
            &mut lines,
            prog.load_line.clone(),
            ReqKind::Load { key: key.clone() },
            Some(sid.clone()),
        );
        let mut mine = Vec::new();
        for &(level, world) in &LEVEL_WORLDS {
            let kind = ReqKind::Pairs {
                key: key.clone(),
                sid: sid.clone(),
                level,
                world,
            };
            let line = gen::pairs_line(sid, Some((level, world)));
            let mut block = vec![Op::Req(push(&mut lines, line, kind, None))];
            let kind = ReqKind::Rle {
                key: key.clone(),
                sid: sid.clone(),
                level,
                world,
            };
            let line = gen::rle_line(sid, Some((level, world)));
            block.push(Op::Req(push(&mut lines, line, kind, None)));
            let mut aliases = Vec::new();
            for k in 0..16 {
                let pairs = gen::random_pairs(&mut rng, &prog.paths, 1 + k % 8);
                let text = gen::alias_line(sid, Some((level, world)), &pairs);
                let kind = ReqKind::Alias {
                    key: key.clone(),
                    sid: sid.clone(),
                    level,
                    world,
                    pairs,
                };
                let i = push(&mut lines, text, kind, None);
                mine.push(i);
                aliases.push(Op::Req(i));
            }
            gen::shuffle(&mut rng, &mut aliases);
            block.extend(aliases);
            blocks.push(block);
        }
        blocks.push(
            (0..LEVEL_WORLDS.len())
                .map(|_| Op::LoadAlias(load, *rng.pick(&mine)))
                .collect(),
        );
        oneshot = oneshot.or(Some(Op::OneShot(load, mine[0])));
    }
    blocks.push(vec![oneshot.expect("at least one program")]);
    gen::shuffle(&mut rng, &mut blocks);
    Plan {
        lines,
        ops: blocks.concat(),
    }
}

/// The `query_large` cycle, one block per module in seeded order: one
/// `pairs`, one `rle`, thirty-two 64-pair `alias` batches (each of
/// sixteen lines twice), four `load`+`alias` re-attaches and one one-shot
/// pair, all at the default level and world. As in [`suite_plan`], the
/// heavy requests open the block.
pub fn large_plan(seed: u64, programs: &[Program], sids: &[String]) -> Plan {
    let mut rng = XorShift64::new(seed ^ 0x6c61_7267_6571_7279); // "largqry"
    let mut lines = Vec::new();
    let mut blocks: Vec<Vec<Op>> = Vec::new();
    for (p, prog) in programs.iter().enumerate() {
        let key = prog.content.key();
        let sid = &sids[p];
        let load = push(
            &mut lines,
            prog.load_line.clone(),
            ReqKind::Load { key: key.clone() },
            Some(sid.clone()),
        );
        let kind = ReqKind::Pairs {
            key: key.clone(),
            sid: sid.clone(),
            level: DEFAULT_LEVEL,
            world: DEFAULT_WORLD,
        };
        let mut block = vec![Op::Req(push(
            &mut lines,
            gen::pairs_line(sid, None),
            kind,
            None,
        ))];
        let kind = ReqKind::Rle {
            key: key.clone(),
            sid: sid.clone(),
            level: DEFAULT_LEVEL,
            world: DEFAULT_WORLD,
        };
        block.push(Op::Req(push(
            &mut lines,
            gen::rle_line(sid, None),
            kind,
            None,
        )));
        let mut aliases = Vec::new();
        for _ in 0..16 {
            let pairs = gen::random_pairs(&mut rng, &prog.paths, 64);
            let text = gen::alias_line(sid, None, &pairs);
            let kind = ReqKind::Alias {
                key: key.clone(),
                sid: sid.clone(),
                level: DEFAULT_LEVEL,
                world: DEFAULT_WORLD,
                pairs,
            };
            aliases.push(push(&mut lines, text, kind, None));
        }
        let mut timed: Vec<Op> = aliases
            .iter()
            .chain(&aliases)
            .map(|&i| Op::Req(i))
            .collect();
        gen::shuffle(&mut rng, &mut timed);
        block.extend(timed);
        block.extend(aliases[..4].iter().map(|&a| Op::LoadAlias(load, a)));
        block.push(Op::OneShot(load, aliases[4]));
        blocks.push(block);
    }
    gen::shuffle(&mut rng, &mut blocks);
    Plan {
        lines,
        ops: blocks.concat(),
    }
}

// ---- edit workload ---------------------------------------------------------

/// Alias batches prepared per program; a program's `n`-th edit uses
/// batch `n % EDIT_BATCHES`.
const EDIT_BATCHES: usize = 16;
/// Every `EDIT_REPORT_EVERY`-th edit of a program also asks `pairs` and
/// `rle`.
pub const EDIT_REPORT_EVERY: u64 = 8;
/// Every `EDIT_ONESHOT_EVERY`-th edit of a program also runs a one-shot
/// pair.
pub const EDIT_ONESHOT_EVERY: u64 = 100;

const ALIAS_PREFIX: &str = "{\"op\":\"alias\",\"session\":\"";

/// Log tag of slot `slot` of edit iteration `i`.
fn edit_tag(i: u64, slot: u64) -> u64 {
    i << 3 | slot
}

/// The `edit_suite` loop: edit one program, `load` the new version, one
/// `alias` at the default level and world on the new session.
pub struct EditLoop {
    corpus: EditCorpus,
    /// Edits sent so far.
    pub iters: u64,
    pairs: Vec<Vec<Vec<(String, String)>>>,
    suffixes: Vec<Vec<String>>,
    /// The last iteration's `load` and `alias` lines.
    pub last: (String, String),
}

impl EditLoop {
    /// The loop for `seed` over the suite programs (`programs` in suite
    /// order, paths from the oracle).
    pub fn new(seed: u64, programs: &[Program]) -> Self {
        let mut rng = XorShift64::new(seed ^ 0x6564_6974_6c6f_6f70); // "editloop"
        let pairs: Vec<Vec<Vec<(String, String)>>> = programs
            .iter()
            .map(|p| {
                (0..EDIT_BATCHES)
                    .map(|k| gen::random_pairs(&mut rng, &p.paths, 1 + k % 8))
                    .collect()
            })
            .collect();
        let suffixes = pairs
            .iter()
            .map(|batches| {
                batches
                    .iter()
                    .map(|b| {
                        let line = gen::alias_line("", None, b);
                        line[ALIAS_PREFIX.len()..].to_string()
                    })
                    .collect()
            })
            .collect();
        EditLoop {
            corpus: EditCorpus::new(seed),
            iters: 0,
            pairs,
            suffixes,
            last: Default::default(),
        }
    }

    /// One edit iteration.
    pub fn step(&mut self, runner: &mut Runner) {
        let i = self.iters;
        self.iters += 1;
        let v = self.corpus.next_version();
        let load = gen::load_source_line(&v.source);
        let tl = runner.send(edit_tag(i, 0), &load);
        let sid = session_of(runner.reply()).unwrap_or_default().to_string();
        // Counting per program keeps every program's share of each
        // request kind equal, whatever order the seed edits them in.
        let batch = v.nth as usize % EDIT_BATCHES;
        let alias = format!("{ALIAS_PREFIX}{sid}{}", self.suffixes[v.program][batch]);
        let ta = runner.send(edit_tag(i, 1), &alias);
        runner.samples.load.push(ns(tl));
        runner.samples.alias.push(ns(ta));
        runner.samples.edit_answer.push(ns((tl.0, ta.1)));
        if let Some(tr) = runner.tracer.as_mut() {
            let p = tr.record("edit_answer", ROOT, i, tl.0, ta.1);
            tr.record("load", p, i, tl.0, tl.1);
            tr.record("alias", p, i, ta.0, ta.1);
        }
        if v.nth % EDIT_REPORT_EVERY == EDIT_REPORT_EVERY - 1 {
            for (slot, line) in [
                (2, gen::pairs_line(&sid, None)),
                (3, gen::rle_line(&sid, None)),
            ] {
                let t = runner.send(edit_tag(i, slot), &line);
                let verb = if slot == 2 { Verb::Pairs } else { Verb::Rle };
                runner.samples.of(verb).push(ns(t));
                if let Some(tr) = runner.tracer.as_mut() {
                    tr.record(verb.span(), ROOT, i, t.0, t.1);
                }
            }
        }
        if v.nth % EDIT_ONESHOT_EVERY == EDIT_ONESHOT_EVERY - 1 {
            let t = runner.one_shot(
                (edit_tag(i, 6), &alias),
                [(edit_tag(i, 4), &load), (edit_tag(i, 5), &alias)],
                i,
            );
            runner.samples.oneshot.push(ns(t));
        }
        self.last = (load, alias);
    }

    /// Runs edits until `deadline`.
    pub fn run_until(&mut self, runner: &mut Runner, deadline: Instant) {
        while Instant::now() < deadline {
            self.step(runner);
        }
    }

    /// Checks every logged edit reply against a fresh oracle per version,
    /// on `workers` threads. Returns `(checked, failed)`.
    pub fn verify(&self, seed: u64, runner: &Runner, workers: usize) -> (u64, u64) {
        let mut by_iter: Vec<Vec<(u64, Option<&str>)>> = vec![Vec::new(); self.iters as usize];
        for (tag, reply) in runner.log.iter() {
            by_iter[(tag >> 3) as usize].push((tag & 7, reply));
        }
        let mut corpus = EditCorpus::new(seed);
        let versions: Vec<gen::Version> = (0..self.iters).map(|_| corpus.next_version()).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let totals: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers.max(1))
                .map(|_| {
                    s.spawn(|| {
                        let mut acc = (0u64, 0u64);
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= versions.len() {
                                return acc;
                            }
                            let v = &versions[i];
                            let batch = &self.pairs[v.program][v.nth as usize % EDIT_BATCHES];
                            let (c, f) = verify_edit(&v.source, batch, &by_iter[i]);
                            acc.0 += c;
                            acc.1 += f;
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verifier panicked"))
                .collect()
        });
        totals
            .into_iter()
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }
}

/// Checks the replies of one edit iteration.
fn verify_edit(
    source: &str,
    pairs: &[(String, String)],
    replies: &[(u64, Option<&str>)],
) -> (u64, u64) {
    let content = Content::Source {
        text: source.to_string(),
    };
    let key = content.key();
    let checker = DiffChecker::new(std::slice::from_ref(&content));
    let oracle = checker.oracle();
    let mut sid = String::new();
    let mut failed = 0;
    for &(slot, reply) in replies {
        let ok = match reply {
            None => false,
            Some(reply) => match slot {
                0 | 4 => match checker.check(&ReqKind::Load { key: key.clone() }, reply) {
                    CheckOutcome::Loaded { sid: got } => {
                        let same = sid.is_empty() || got == sid;
                        sid = got;
                        same
                    }
                    _ => false,
                },
                1 | 5 | 6 => {
                    reply
                        == oracle.expected_alias_reply(
                            &sid,
                            &key,
                            DEFAULT_LEVEL,
                            DEFAULT_WORLD,
                            pairs,
                        )
                }
                2 => reply == oracle.expected_pairs_reply(&sid, &key, DEFAULT_LEVEL, DEFAULT_WORLD),
                3 => reply == oracle.expected_rle_reply(&sid, &key, DEFAULT_LEVEL, DEFAULT_WORLD),
                _ => false,
            },
        };
        if !ok {
            failed += 1;
            report(
                failed,
                &format!("edit reply (slot {slot}) diverged: {reply:?}"),
            );
        }
    }
    (replies.len() as u64, failed)
}

/// The run directory, created if missing.
pub fn run_dir(root: &Path) -> std::io::Result<PathBuf> {
    let dir = root.join(".bench_build").join("perfbench-run");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
