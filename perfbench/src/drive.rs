//! The closed-loop client: one request in flight on one persistent
//! connection, every reply kept for checking after the timed window.

use std::time::Instant;

use tbaa_bench::load::{CheckOutcome, DiffChecker, ReqKind};
use tbaa_server::json::{parse, Value};

use crate::trace::{SpanId, Tracer, ROOT};
use crate::wire::Conn;

/// The verbs a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `load`.
    Load,
    /// `alias`.
    Alias,
    /// `pairs`.
    Pairs,
    /// `rle`.
    Rle,
}

impl Verb {
    /// The verb of a generated request.
    pub fn of(kind: &ReqKind) -> Verb {
        match kind {
            ReqKind::Load { .. } => Verb::Load,
            ReqKind::Alias { .. } => Verb::Alias,
            ReqKind::Pairs { .. } => Verb::Pairs,
            ReqKind::Rle { .. } => Verb::Rle,
            ReqKind::Stats => unreachable!("workloads never time stats"),
        }
    }

    /// Span name of one request of this verb.
    pub fn span(self) -> &'static str {
        match self {
            Verb::Load => "load",
            Verb::Alias => "alias",
            Verb::Pairs => "pairs",
            Verb::Rle => "rle",
        }
    }
}

/// One distinct request line and what its reply is checked against.
pub struct Line {
    /// The request, newline-terminated.
    pub text: String,
    /// Its identity for the oracle.
    pub kind: ReqKind,
    /// For loads: the session id every reply must name.
    pub sid: Option<String>,
}

impl Line {
    /// The verb this line times under.
    pub fn verb(&self) -> Verb {
        Verb::of(&self.kind)
    }
}

/// One step of a static workload.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// One request on the persistent connection.
    Req(usize),
    /// `load` then `alias` on the persistent connection.
    LoadAlias(usize, usize),
    /// A one-shot pair (see [`Runner::one_shot`]): a lead TCP connection
    /// sends the `alias` alone, then a timed one sends `load`, `alias`
    /// and closes, as a script runs `tbaac query` commands.
    OneShot(usize, usize),
}

/// A static workload: distinct lines and the cycle of steps over them.
pub struct Plan {
    /// Every distinct request line.
    pub lines: Vec<Line>,
    /// One cycle; the timed phase repeats it until time runs out.
    pub ops: Vec<Op>,
}

/// Latency samples of the timed phase, in nanoseconds.
#[derive(Default)]
pub struct Samples {
    pub alias: Vec<u64>,
    pub pairs: Vec<u64>,
    pub rle: Vec<u64>,
    pub load: Vec<u64>,
    pub oneshot: Vec<u64>,
    pub edit_answer: Vec<u64>,
}

impl Samples {
    /// Moves every sample of `other` into `self`.
    pub fn append(&mut self, other: &mut Samples) {
        self.alias.append(&mut other.alias);
        self.pairs.append(&mut other.pairs);
        self.rle.append(&mut other.rle);
        self.load.append(&mut other.load);
        self.oneshot.append(&mut other.oneshot);
        self.edit_answer.append(&mut other.edit_answer);
    }

    /// The sample vector of one verb.
    pub fn of(&mut self, verb: Verb) -> &mut Vec<u64> {
        match verb {
            Verb::Load => &mut self.load,
            Verb::Alias => &mut self.alias,
            Verb::Pairs => &mut self.pairs,
            Verb::Rle => &mut self.rle,
        }
    }
}

/// Every reply received, for checking after the timed window.
#[derive(Default)]
pub struct Log {
    arena: String,
    /// `(tag, start, end)`; an empty range with `failed` set is a
    /// missing reply.
    entries: Vec<(u64, u32, u32, bool)>,
}

impl Log {
    fn push(&mut self, tag: u64, reply: Option<&str>) {
        match reply {
            Some(r) => {
                let start = self.arena.len() as u32;
                self.arena.push_str(r);
                self.entries
                    .push((tag, start, self.arena.len() as u32, false));
            }
            None => self.entries.push((tag, 0, 0, true)),
        }
    }

    /// `(tag, reply)`; `None` for a missing reply.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Option<&str>)> {
        self.entries.iter().map(|&(tag, a, b, failed)| {
            (tag, (!failed).then(|| &self.arena[a as usize..b as usize]))
        })
    }
}

/// The client state of one run.
pub struct Runner {
    pub conn: Conn,
    /// TCP address for one-shot connections.
    pub tcp: String,
    pub log: Log,
    pub samples: Samples,
    /// Spans of the traced half, when tracing.
    pub tracer: Option<Tracer>,
    reply: String,
    next_req: u64,
}

impl Runner {
    /// A client over `conn`; one-shots go to `tcp`.
    pub fn new(conn: Conn, tcp: String) -> Self {
        Runner {
            conn,
            tcp,
            log: Log::default(),
            samples: Samples::default(),
            tracer: None,
            reply: String::new(),
            next_req: 0,
        }
    }

    /// Sends one line on the persistent connection, logs the reply under
    /// `tag`, and returns `(send instant, reply instant)`.
    pub fn send(&mut self, tag: u64, line: &str) -> (Instant, Instant) {
        let t0 = Instant::now();
        let ok = self.conn.exchange(line, &mut self.reply).is_ok();
        let t1 = Instant::now();
        self.log.push(tag, ok.then_some(self.reply.as_str()));
        (t0, t1)
    }

    /// Sends one line without logging it (probes outside the checked
    /// traffic); returns `(send instant, reply instant)`.
    pub fn probe(&mut self, line: &str) -> (Instant, Instant) {
        let t0 = Instant::now();
        let _ = self.conn.exchange(line, &mut self.reply);
        (t0, Instant::now())
    }

    /// The last reply received.
    pub fn reply(&self) -> &str {
        &self.reply
    }

    fn span(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        t: (Instant, Instant),
    ) -> SpanId {
        match &mut self.tracer {
            Some(tr) => tr.record(name, parent, req, t.0, t.1),
            None => ROOT,
        }
    }

    /// A one-shot pair. A lead connection connects over TCP, sends the
    /// `lead` request alone and closes; [`ONESHOT_GAP`] after its reply
    /// the timed connection connects, sends the `timed` requests (`load`
    /// then `alias`) and closes. Returns the interval of the timed one.
    ///
    /// The accept loop polls every `ACCEPT_TICK`, so a lone connection
    /// waits a uniformly random part of a tick and its median needs
    /// thousands of samples to settle. The lead's reply marks an accept,
    /// and the timed connection, a fixed gap later, waits out the rest of
    /// that tick: a single mode. The lead sends one cheap request and the
    /// gap runs from its reply, so the timed connection's own connect,
    /// load, alias and close add to the metric in full.
    pub fn one_shot(
        &mut self,
        lead: (u64, &str),
        timed: [(u64, &str); 2],
        req: u64,
    ) -> (Instant, Instant) {
        let (first, first_end) = self.connect_once(&[lead]);
        let wake = first[1].1 + ONESHOT_GAP;
        if let Some(wait) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let (parts, end) = self.connect_once(&timed);
        if self.tracer.is_some() {
            self.span("oneshot.lead", ROOT, req, (first[0].0, first_end));
            let p = self.span("oneshot", ROOT, req, (parts[0].0, end));
            self.span("oneshot.connect", p, req, parts[0]);
            self.span("oneshot.load", p, req, parts[1]);
            self.span("oneshot.alias", p, req, parts[2]);
        }
        (parts[0].0, end)
    }

    /// One one-shot connection sending `requests` (at most two) in order.
    /// Returns the connect interval, one interval per request, and the
    /// instant after the close.
    fn connect_once(&mut self, requests: &[(u64, &str)]) -> ([(Instant, Instant); 3], Instant) {
        let t0 = Instant::now();
        let mut parts = [(t0, t0); 3];
        match Conn::tcp(&self.tcp) {
            Ok(mut conn) => {
                parts[0].1 = Instant::now();
                for (i, &(tag, line)) in requests.iter().enumerate() {
                    let a = Instant::now();
                    let ok = conn.exchange(line, &mut self.reply).is_ok();
                    parts[i + 1] = (a, Instant::now());
                    self.log.push(tag, ok.then_some(self.reply.as_str()));
                }
            }
            Err(_) => {
                for &(tag, _) in requests {
                    self.log.push(tag, None);
                }
            }
        }
        (parts, Instant::now())
    }

    /// Runs one step of a static plan and records its samples.
    pub fn step(&mut self, plan: &Plan, op: Op) {
        let req = self.next_req;
        self.next_req += 1;
        match op {
            Op::Req(i) => {
                let line = &plan.lines[i];
                let t = self.send(i as u64, &line.text);
                self.samples.of(line.verb()).push(ns(t));
                self.span(line.verb().span(), ROOT, req, t);
            }
            Op::LoadAlias(l, a) => {
                let tl = self.send(l as u64, &plan.lines[l].text);
                let ta = self.send(a as u64, &plan.lines[a].text);
                self.samples.load.push(ns(tl));
                self.samples.alias.push(ns(ta));
                self.samples.edit_answer.push(ns((tl.0, ta.1)));
                let p = self.span("edit_answer", ROOT, req, (tl.0, ta.1));
                self.span("load", p, req, tl);
                self.span("alias", p, req, ta);
            }
            Op::OneShot(l, a) => {
                let (load, alias) = (&plan.lines[l].text, &plan.lines[a].text);
                let t = self.one_shot(
                    (a as u64, alias),
                    [(l as u64, load), (a as u64, alias)],
                    req,
                );
                self.samples.oneshot.push(ns(t));
            }
        }
    }

    /// Repeats the plan's cycle from `*pos` until `deadline`.
    pub fn run_until(&mut self, plan: &Plan, pos: &mut usize, deadline: Instant) {
        while Instant::now() < deadline {
            self.step(plan, plan.ops[*pos % plan.ops.len()]);
            *pos += 1;
        }
    }

    /// Runs exactly `n` steps of the plan's cycle from `*pos`.
    pub fn run_steps(&mut self, plan: &Plan, pos: &mut usize, n: usize) {
        for _ in 0..n {
            self.step(plan, plan.ops[*pos % plan.ops.len()]);
            *pos += 1;
        }
    }

    /// One `stats` round trip, parsed (not logged: stats are not timed).
    pub fn stats(&mut self) -> Option<Value<'static>> {
        self.conn
            .exchange("{\"op\":\"stats\"}\n", &mut self.reply)
            .ok()?;
        parse(&self.reply).ok().map(Value::into_owned)
    }
}

/// Gap between the lead's reply and the timed connection of a one-shot
/// pair. It lets the accept loop go back to sleep after the lead's
/// accept; without it the timed connection was sometimes accepted at
/// once and sometimes a tick later, two modes a median flips between.
pub const ONESHOT_GAP: std::time::Duration = std::time::Duration::from_millis(2);

/// Nanoseconds between two instants.
pub fn ns(t: (Instant, Instant)) -> u64 {
    t.1.saturating_duration_since(t.0).as_nanos() as u64
}

/// Sends every line of the plan once, untimed, so caches are filled
/// before timing.
pub fn warm(runner: &mut Runner, plan: &Plan) {
    for (i, line) in plan.lines.iter().enumerate() {
        runner.send(i as u64, &line.text);
    }
    runner.samples = Samples::default();
}

/// Checks every logged reply of a static plan; returns
/// `(checked, failed)` and prints the first few failures to stderr.
pub fn verify_static(plan: &Plan, log: &Log, checker: &DiffChecker) -> (u64, u64) {
    let oracle = checker.oracle();
    let mut expected: Vec<Option<String>> = vec![None; plan.lines.len()];
    let (mut checked, mut failed) = (0u64, 0u64);
    for (tag, reply) in log.iter() {
        checked += 1;
        let line = &plan.lines[tag as usize];
        let Some(reply) = reply else {
            failed += 1;
            report(failed, &format!("no reply to {}", line.text.trim_end()));
            continue;
        };
        let ok = match &line.kind {
            ReqKind::Load { .. } => match checker.check(&line.kind, reply) {
                CheckOutcome::Loaded { sid } => line.sid.as_deref().is_none_or(|want| want == sid),
                _ => false,
            },
            kind => {
                let want = expected[tag as usize].get_or_insert_with(|| match kind {
                    ReqKind::Alias {
                        key,
                        sid,
                        level,
                        world,
                        pairs,
                    } => oracle.expected_alias_reply(sid, key, *level, *world, pairs),
                    ReqKind::Pairs {
                        key,
                        sid,
                        level,
                        world,
                    } => oracle.expected_pairs_reply(sid, key, *level, *world),
                    ReqKind::Rle {
                        key,
                        sid,
                        level,
                        world,
                    } => oracle.expected_rle_reply(sid, key, *level, *world),
                    ReqKind::Load { .. } | ReqKind::Stats => unreachable!("handled above"),
                });
                want == reply
            }
        };
        if !ok {
            failed += 1;
            report(
                failed,
                &format!("reply diverged: {} -> {reply}", line.text.trim_end()),
            );
        }
    }
    (checked, failed)
}

/// Prints the first few failures to stderr.
pub fn report(failed: u64, detail: &str) {
    if failed <= 5 {
        let cut: String = detail.chars().take(400).collect();
        eprintln!("perfbench: failed operation: {cut}");
    }
}

/// The nearest-rank `q`-quantile of nanosecond samples, in µs.
pub fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// Mean of nanosecond samples, in µs.
pub fn mean_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1e3
}

/// A `stats` histogram's `(count, sum µs)`.
pub fn hist(stats: &Value, name: &str) -> (f64, f64) {
    let h = stats
        .get("stats")
        .and_then(|s| s.get("histograms"))
        .and_then(|h| h.get(name));
    let field = |f: &str| {
        h.and_then(|h| h.get(f))
            .and_then(Value::as_i64)
            .unwrap_or(0) as f64
    };
    (field("count"), field("sum"))
}

/// A `stats` counter.
pub fn counter(stats: &Value, name: &str) -> f64 {
    stats
        .get("stats")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_i64)
        .unwrap_or(0) as f64
}

/// Mean service time of histogram `name` between two snapshots, in µs.
pub fn hist_mean_between(before: &Value, after: &Value, name: &str) -> f64 {
    let (c0, s0) = hist(before, name);
    let (c1, s1) = hist(after, name);
    if c1 > c0 {
        (s1 - s0) / (c1 - c0)
    } else {
        f64::NAN
    }
}

/// Sum of one field over every session in the `engines` table.
pub fn engines_sum(stats: &Value, field: &str) -> f64 {
    match stats.get("engines") {
        Some(Value::Object(items)) => items
            .iter()
            .filter_map(|(_, e)| e.get(field).and_then(Value::as_i64))
            .sum::<i64>() as f64,
        _ => 0.0,
    }
}
