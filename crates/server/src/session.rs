//! Sessions: compiled programs the server keeps warm between requests.
//!
//! A *session* is one compiled program (`Arc<Program>`) plus a memo of
//! built [`Tbaa`] analyses per `(level, world)` — the same
//! compile-once / analyze-once discipline as the evaluation `Engine` in
//! `crates/bench`, via the shared [`tbaa::memo::Memo`].
//!
//! The [`SessionStore`] is keyed by **content** ([`SessionKey`]): loading
//! the same benchsuite program (or byte-identical source) twice — even
//! concurrently from many connections — compiles it exactly once and
//! returns the same session id. Capacity is bounded by an LRU policy;
//! `unload` evicts explicitly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mini_m3::Diagnostics;
use tbaa::analysis::{Level, Tbaa};
use tbaa::memo::Memo;
use tbaa::{CompiledAliasEngine, CompiledStats, World};
use tbaa_benchsuite::Benchmark;
use tbaa_ir::ir::Program;
use tbaa_ir::path::ApId;
use tbaa_ir::pretty;

use tbaa_incr::IncrCompiler;

use crate::journal::Journal;
use crate::json::Value;
use crate::metrics::{Counter, Gauge, Histogram, Registry, LATENCY_US_BUCKETS};

/// Content identity of a session.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SessionKey {
    /// A named benchsuite program at a workload scale.
    Bench {
        /// Program name (e.g. `ktree`).
        name: String,
        /// Workload scale.
        scale: u32,
    },
    /// Inline source, identified by a 64-bit FNV-1a hash of the bytes.
    Source {
        /// Content hash.
        hash: u64,
    },
}

impl SessionKey {
    /// A stable, human-readable spelling (`bench:ktree@2`, `src:1a2b…`).
    pub fn display(&self) -> String {
        match self {
            SessionKey::Bench { name, scale } => format!("bench:{name}@{scale}"),
            SessionKey::Source { hash } => format!("src:{hash:016x}"),
        }
    }
}

/// FNV-1a, the classic 64-bit offset/prime pair.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One compiled program plus its memoized analyses.
pub struct Session {
    /// The id handed to clients (`s1`, `s2`, …; stable per content).
    pub id: String,
    /// Content identity.
    pub key: SessionKey,
    /// The compiled program.
    pub program: Arc<Program>,
    /// Pretty access-path string → interned ApId, for query resolution.
    paths: HashMap<String, ApId>,
    analyses: Memo<(Level, World), Tbaa>,
    engines: Memo<(Level, World), CompiledAliasEngine>,
    analyses_requested: Arc<Counter>,
    analyses_built: Arc<Counter>,
    analysis_us: Arc<Histogram>,
    engines_built: Arc<Counter>,
    engine_build_us: Arc<Histogram>,
    /// Worker-thread budget for engine builds (row-parallel dense fill).
    /// Capped by host cores inside `compile_with_threads`, so `1` on a
    /// single-core box regardless of the configured value.
    compile_threads: usize,
    /// Alias queries served against this session's engines. Counted
    /// here (per session) because the engine's dense query path is
    /// deliberately uninstrumented.
    queries_served: AtomicU64,
}

impl Session {
    fn new(
        id: String,
        key: SessionKey,
        program: Program,
        metrics: &Registry,
        compile_threads: usize,
    ) -> Self {
        let program = Arc::new(program);
        let mut paths = HashMap::new();
        for (_f, ap, _is_store) in program.heap_ref_sites() {
            paths
                .entry(pretty::access_path(&program, ap))
                .or_insert(ap);
        }
        Session {
            id,
            key,
            program,
            paths,
            analyses: Memo::new(),
            engines: Memo::new(),
            analyses_requested: metrics.counter("analyses.requested"),
            analyses_built: metrics.counter("analyses.built"),
            analysis_us: metrics.histogram("analysis_us", LATENCY_US_BUCKETS),
            engines_built: metrics.counter("engines.built"),
            engine_build_us: metrics.histogram("engine_build_us", LATENCY_US_BUCKETS),
            compile_threads,
            queries_served: AtomicU64::new(0),
        }
    }

    /// The analysis for `(level, world)`, built at most once per session.
    pub fn analysis(&self, level: Level, world: World) -> Arc<Tbaa> {
        self.analyses_requested.inc();
        self.analyses.get_or_build((level, world), || {
            self.analyses_built.inc();
            let t0 = Instant::now();
            let tbaa = Tbaa::build(&self.program, level, world);
            self.analysis_us.observe_duration(t0.elapsed());
            tbaa
        })
    }

    /// The compiled query engine for `(level, world)`, built at most
    /// once per session on top of the memoized [`Tbaa`] analysis. Alias
    /// and pair queries route through this; the raw analysis stays
    /// available for clients that need the naive oracle.
    pub fn engine(&self, level: Level, world: World) -> Arc<CompiledAliasEngine> {
        let analysis = self.analysis(level, world);
        self.engines.get_or_build((level, world), || {
            self.engines_built.inc();
            let t0 = Instant::now();
            let engine = CompiledAliasEngine::compile_with_threads(
                &self.program,
                analysis,
                self.compile_threads,
            );
            self.engine_build_us.observe_duration(t0.elapsed());
            engine
        })
    }

    /// Records `n` alias queries served against this session's engines.
    pub fn note_queries_served(&self, n: u64) {
        self.queries_served.fetch_add(n, Ordering::Relaxed);
    }

    /// Alias queries served so far.
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::Relaxed)
    }

    /// Aggregated query-engine counters across every engine this session
    /// has compiled (all `(level, world)` variants summed).
    pub fn engine_stats(&self) -> CompiledStats {
        let mut total = CompiledStats::default();
        for key in self.engines.keys() {
            let Some(engine) = self.engines.get(&key) else {
                continue;
            };
            let s = engine.stats();
            total.queries += s.queries;
            total.memo_hits += s.memo_hits;
            total.memo_misses += s.memo_misses;
            total.fallbacks += s.fallbacks;
            total.dense_pairs += s.dense_pairs;
            total.memo_len += s.memo_len;
            total.nodes += s.nodes;
            total.build_us += s.build_us;
        }
        total
    }

    /// Resolves a pretty access-path string (as printed by
    /// `tbaa_ir::pretty::access_path`, e.g. `t.f` or `v^.next`) to its
    /// interned id. Only paths that occur at heap reference sites are
    /// addressable.
    pub fn resolve_path(&self, path: &str) -> Option<ApId> {
        self.paths.get(path).copied()
    }

    /// The addressable access paths, sorted (for error messages / docs).
    pub fn known_paths(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.paths.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

type SessionSlot = Result<Session, Diagnostics>;

/// A bounded, content-keyed, compile-once session cache.
///
/// Compiles route through a store-level [`IncrCompiler`]: a superseding
/// load whose source differs only locally replays the unchanged
/// functions' lowering and analysis summaries from the function-granular
/// unit cache (`tbaa-incr`) instead of re-lowering the whole program.
/// The unit cache outlives session LRU eviction, so evicting and
/// reloading the same content is an all-hit incremental rebuild.
pub struct SessionStore {
    capacity: usize,
    sessions: Memo<SessionKey, SessionSlot>,
    /// LRU order (front = coldest) plus the id → key index.
    index: Mutex<StoreIndex>,
    next_id: AtomicU64,
    /// The durable journal, attached after recovery replay. Appends
    /// happen inside the index-lock critical section of [`Self::admit`]
    /// and [`Self::unload`], so journal order is admission order.
    journal: OnceLock<Arc<Journal>>,
    incr: IncrCompiler,
    /// Worker-thread budget for cold-compile fan-out and engine builds.
    /// Always ≥ 1; `with_compile_threads(0)` resolves to the host core
    /// count, and every consumer re-caps by cores/work anyway.
    compile_threads: usize,
    metrics: Arc<Registry>,
    compiles: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    compile_us: Arc<Histogram>,
    compile_analyze_us: Arc<Histogram>,
    compile_lower_us: Arc<Histogram>,
    compile_merge_us: Arc<Histogram>,
    incr_func_hits: Arc<Counter>,
    incr_func_misses: Arc<Counter>,
    incr_reuse_ratio: Arc<Gauge>,
    incr_rebuild_us: Arc<Histogram>,
}

#[derive(Default)]
struct StoreIndex {
    lru: Vec<SessionKey>,
    by_id: HashMap<String, SessionKey>,
}

impl SessionStore {
    /// A store holding at most `capacity` live sessions.
    pub fn new(capacity: usize, metrics: Arc<Registry>) -> Self {
        SessionStore {
            capacity: capacity.max(1),
            sessions: Memo::new(),
            index: Mutex::new(StoreIndex::default()),
            next_id: AtomicU64::new(1),
            journal: OnceLock::new(),
            incr: IncrCompiler::new(),
            compile_threads: 1,
            compiles: metrics.counter("sessions.compiles"),
            hits: metrics.counter("sessions.hits"),
            misses: metrics.counter("sessions.misses"),
            evictions: metrics.counter("sessions.evictions"),
            compile_us: metrics.histogram("compile_us", LATENCY_US_BUCKETS),
            compile_analyze_us: metrics.histogram("compile.analyze_us", LATENCY_US_BUCKETS),
            compile_lower_us: metrics.histogram("compile.lower_us", LATENCY_US_BUCKETS),
            compile_merge_us: metrics.histogram("compile.merge_us", LATENCY_US_BUCKETS),
            incr_func_hits: metrics.counter("incr.func_hits"),
            incr_func_misses: metrics.counter("incr.func_misses"),
            incr_reuse_ratio: metrics.gauge("incr.reuse_ratio"),
            incr_rebuild_us: metrics.histogram("incr.rebuild_us", LATENCY_US_BUCKETS),
            metrics,
        }
    }

    /// Sets the worker-thread budget for cold-compile lowering fan-out
    /// and row-parallel engine builds. `0` means "one worker per host
    /// core"; any value is still re-capped by cores and by the amount
    /// of work at each use site, so over-asking is harmless and output
    /// stays byte-identical at every setting.
    #[must_use]
    pub fn with_compile_threads(mut self, threads: usize) -> Self {
        self.compile_threads = if threads == 0 {
            tbaa_ir::host_cores()
        } else {
            threads
        };
        self
    }

    /// Compiles source through the function-granular incremental cache,
    /// recording reuse metrics and per-stage compile timings. Output
    /// (including diagnostics) is byte-identical to a from-scratch
    /// `tbaa_ir::compile_to_ir` at any thread count.
    fn compile_incr(&self, source: &str) -> Result<Program, Diagnostics> {
        let t0 = Instant::now();
        let workers = tbaa_ir::effective_workers(self.compile_threads, usize::MAX);
        let (result, report) = self.incr.compile_with_threads(source, workers);
        self.incr_rebuild_us.observe_duration(t0.elapsed());
        self.compile_analyze_us.observe(report.analyze_us);
        self.compile_lower_us.observe(report.lower_us);
        self.compile_merge_us.observe(report.merge_us);
        self.incr_func_hits.add(report.func_hits);
        self.incr_func_misses.add(report.func_misses);
        // Percent of functions reused by the most recent compile — a
        // gauge, so `stats` shows how incremental the latest load was.
        self.incr_reuse_ratio
            .set((report.reuse_ratio() * 100.0).round() as i64);
        result
    }

    /// Attaches the durable journal. Called once, after recovery
    /// replay — the restored loads are already in the (freshly
    /// compacted) file, so replay must not re-append them. From here
    /// on every admission and unload is journaled from inside the
    /// index-lock critical section, so the journal's append order is
    /// exactly the store's admission order: replay reproduces LRU
    /// recency even when concurrent loads race unloads near capacity.
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        let _ = self.journal.set(journal);
    }

    /// Advances the session-id counter so future mints start at
    /// `next_sid` or later — the recovery watermark. Must be applied
    /// before serving: the highest pre-crash id may belong to an
    /// unloaded session that replay never touches, and re-minting it
    /// would silently point a stale client at a different session.
    pub fn reserve_ids(&self, next_sid: u64) {
        self.next_id.fetch_max(next_sid, Ordering::Relaxed);
    }

    /// Maximum number of live sessions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live sessions.
    pub fn live(&self) -> usize {
        self.index.lock().expect("store poisoned").lru.len()
    }

    /// Loads a benchsuite program (compiling at most once per
    /// `(name, scale)`, no matter how many threads race). The boolean is
    /// `true` when the session was already warm (a cache hit).
    pub fn load_bench(&self, name: &str, scale: u32) -> Result<(Arc<SessionSlot>, bool), String> {
        let bench = Benchmark::by_name(name)
            .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
        let key = SessionKey::Bench {
            name: name.to_string(),
            scale,
        };
        let line = self.journal.get().map(|_| {
            Value::object(vec![
                ("op", Value::Str("load".into())),
                ("bench", Value::Str(name.into())),
                ("scale", Value::Int(scale as i64)),
            ])
            .encode()
        });
        Ok(self.load_with(key, line, || self.compile_incr(&bench.source_at_scale(scale))))
    }

    /// Loads inline source (compiling at most once per content hash).
    /// The boolean is `true` on a cache hit.
    pub fn load_source(&self, source: &str) -> (Arc<SessionSlot>, bool) {
        let key = SessionKey::Source {
            hash: content_hash(source.as_bytes()),
        };
        let line = self.journal.get().map(|_| {
            Value::object(vec![
                ("op", Value::Str("load".into())),
                ("source", Value::Str(source.into())),
            ])
            .encode()
        });
        self.load_with(key, line, || self.compile_incr(source))
    }

    /// `journal_line` is the canonical re-issuable request line to
    /// journal on admission (hits included: replay order is how
    /// recovery reproduces LRU recency), or `None` when journaling is
    /// off. Re-canonicalized by the caller so replay never sees
    /// client-specific extras like `"paths":true`.
    fn load_with(
        &self,
        key: SessionKey,
        journal_line: Option<String>,
        compile: impl FnOnce() -> Result<Program, Diagnostics>,
    ) -> (Arc<SessionSlot>, bool) {
        let mut built_here = false;
        let slot = self.sessions.get_or_build(key.clone(), || {
            built_here = true;
            self.compiles.inc();
            let t0 = Instant::now();
            let compiled = compile();
            self.compile_us.observe_duration(t0.elapsed());
            compiled.map(|program| {
                let id = format!("s{}", self.next_id.fetch_add(1, Ordering::Relaxed));
                Session::new(id, key.clone(), program, &self.metrics, self.compile_threads)
            })
        });
        let cached = match (&*slot, built_here) {
            (Err(_), _) => {
                // Don't cache failures: the client may retry with fixed
                // source, and a failed compile holds no reusable state.
                self.sessions.remove(&key);
                self.misses.inc();
                false
            }
            (Ok(session), true) => {
                self.misses.inc();
                self.admit(key, &session.id, journal_line.as_deref());
                false
            }
            (Ok(session), false) => {
                self.hits.inc();
                // Admit (not just touch): a hit thread can win the memo
                // race and reply before the builder thread has indexed
                // the id — its client's next query must still resolve.
                self.admit(key, &session.id, journal_line.as_deref());
                true
            }
        };
        (slot, cached)
    }

    /// Re-admits a journaled load under its *original* session id —
    /// the replay half of crash recovery ([`crate::journal`]). The line
    /// is a canonical `{"op":"load",…}` request; compilation routes
    /// through the incremental cache like any other load, so recovery
    /// cost is visible in the `incr.*` counters. Admission obeys the
    /// normal LRU policy: replaying in journal order re-evicts exactly
    /// what the crashed daemon had evicted. The id counter is advanced
    /// past every restored id so future mints can never collide.
    pub fn restore_line(&self, id: &str, line: &str) -> Result<(), String> {
        let req = crate::proto::decode_request(line).map_err(|e| e.to_string())?;
        let crate::proto::Request::Load { source, bench, scale, .. } = req else {
            return Err("journal record is not a load".into());
        };
        match (&source, &bench) {
            (Some(src), None) => {
                let key = SessionKey::Source {
                    hash: content_hash(src.as_bytes()),
                };
                self.restore_with(id, key, || self.compile_incr(src))
            }
            (None, Some(name)) => {
                let bench = Benchmark::by_name(name)
                    .ok_or_else(|| format!("unknown benchmark `{name}`"))?;
                let key = SessionKey::Bench {
                    name: name.to_string(),
                    scale,
                };
                self.restore_with(id, key, || self.compile_incr(&bench.source_at_scale(scale)))
            }
            _ => Err("journal load has neither source nor bench".into()),
        }
    }

    fn restore_with(
        &self,
        id: &str,
        key: SessionKey,
        compile: impl FnOnce() -> Result<Program, Diagnostics>,
    ) -> Result<(), String> {
        // Never re-mint a restored id, even if its session is later
        // superseded or unloaded.
        if let Some(n) = id.strip_prefix('s').and_then(|t| t.parse::<u64>().ok()) {
            self.next_id.fetch_max(n + 1, Ordering::Relaxed);
        }
        let slot = self.sessions.get_or_build(key.clone(), || {
            self.compiles.inc();
            let t0 = Instant::now();
            let compiled = compile();
            self.compile_us.observe_duration(t0.elapsed());
            compiled.map(|program| {
                Session::new(
                    id.to_string(),
                    key.clone(),
                    program,
                    &self.metrics,
                    self.compile_threads,
                )
            })
        });
        match slot.as_ref() {
            Err(diags) => {
                self.sessions.remove(&key);
                Err(format!(
                    "restored source does not compile ({} diagnostic{})",
                    diags.len(),
                    if diags.len() == 1 { "" } else { "s" }
                ))
            }
            Ok(session) => {
                // No journal line: replay must not re-append records the
                // recovered (already compacted) file still holds.
                self.admit(key, &session.id, None);
                Ok(())
            }
        }
    }

    /// Looks a session up by client-visible id, refreshing its LRU slot.
    pub fn by_id(&self, id: &str) -> Option<Arc<SessionSlot>> {
        let key = {
            let index = self.index.lock().expect("store poisoned");
            index.by_id.get(id)?.clone()
        };
        let slot = self.sessions.get(&key)?;
        self.touch(&key);
        Some(slot)
    }

    /// Per-session query-engine counters for every live session —
    /// `(id, queries served, aggregated engine stats)` — sorted by id
    /// (so `stats` replies are deterministic).
    pub fn engine_stats(&self) -> Vec<(String, u64, CompiledStats)> {
        let ids: Vec<(String, SessionKey)> = {
            let index = self.index.lock().expect("store poisoned");
            index
                .by_id
                .iter()
                .map(|(id, key)| (id.clone(), key.clone()))
                .collect()
        };
        let mut out: Vec<(String, u64, CompiledStats)> = ids
            .into_iter()
            .filter_map(|(id, key)| {
                let slot = self.sessions.get(&key)?;
                let session = slot.as_ref().as_ref().ok()?;
                Some((id, session.queries_served(), session.engine_stats()))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Drops a session by id. Returns whether it was live. The journal
    /// tombstone (when journaling is on) is appended while the index
    /// lock is still held, for the same admission-ordering guarantee
    /// as [`Self::admit`].
    pub fn unload(&self, id: &str) -> bool {
        let key = {
            let mut index = self.index.lock().expect("store poisoned");
            let Some(key) = index.by_id.remove(id) else {
                return false;
            };
            index.lru.retain(|k| k != &key);
            if let Some(journal) = self.journal.get() {
                journal.append_unload(id);
            }
            key
        };
        self.sessions.remove(&key);
        true
    }

    fn admit(&self, key: SessionKey, id: &str, journal_line: Option<&str>) {
        let key_display = journal_line.map(|_| key.display());
        let evicted: Vec<SessionKey> = {
            let mut index = self.index.lock().expect("store poisoned");
            index.by_id.insert(id.to_string(), key.clone());
            index.lru.retain(|k| k != &key);
            index.lru.push(key);
            // Journal while the admission lock is still held: the
            // append order on disk is then exactly the order admissions
            // (and unloads) took effect, so replay can never resurrect
            // a session whose unload raced its load, or misorder LRU
            // recency near capacity.
            if let (Some(journal), Some(line)) = (self.journal.get(), journal_line) {
                journal.append_load(key_display.as_deref().unwrap_or_default(), id, line);
            }
            let mut evicted = Vec::new();
            while index.lru.len() > self.capacity {
                let cold = index.lru.remove(0);
                index.by_id.retain(|_, k| k != &cold);
                evicted.push(cold);
            }
            evicted
        };
        for key in evicted {
            self.evictions.inc();
            self.sessions.remove(&key);
        }
    }

    fn touch(&self, key: &SessionKey) {
        let mut index = self.index.lock().expect("store poisoned");
        if let Some(pos) = index.lru.iter().position(|k| k == key) {
            let k = index.lru.remove(pos);
            index.lru.push(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbaa::AliasAnalysis;

    const SMOKE: &str = "MODULE M;
         TYPE T = OBJECT f: INTEGER; END;
         VAR t: T; x, y: INTEGER;
         BEGIN t := NEW(T); t.f := 1; x := t.f; y := t.f; END M.";

    fn store(capacity: usize) -> SessionStore {
        SessionStore::new(capacity, Arc::new(Registry::new()))
    }

    #[test]
    fn load_is_idempotent_per_content() {
        let store = store(8);
        let (a, a_cached) = store.load_bench("ktree", 1).unwrap();
        let (b, b_cached) = store.load_bench("ktree", 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!a_cached && b_cached);
        assert_eq!(store.compiles.get(), 1);
        assert_eq!(store.hits.get(), 1);
        let s = a.as_ref().as_ref().unwrap();
        assert_eq!(store.by_id(&s.id).map(|x| Arc::ptr_eq(&x, &a)), Some(true));
        // A different scale is a different session.
        store.load_bench("ktree", 2).unwrap();
        assert_eq!(store.compiles.get(), 2);
        assert_eq!(store.live(), 2);
    }

    #[test]
    fn source_sessions_hash_content() {
        let store = store(8);
        let (a, _) = store.load_source(SMOKE);
        let (b, cached) = store.load_source(SMOKE);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(cached);
        assert_eq!(store.compiles.get(), 1);
        let s = a.as_ref().as_ref().unwrap();
        assert!(s.resolve_path("t.f").is_some());
        assert!(s.resolve_path("nope").is_none());
    }

    #[test]
    fn analyses_build_once_per_level_world() {
        let store = store(8);
        let (slot, _) = store.load_source(SMOKE);
        let s = slot.as_ref().as_ref().unwrap();
        let a1 = s.analysis(Level::SmFieldTypeRefs, World::Closed);
        let a2 = s.analysis(Level::SmFieldTypeRefs, World::Closed);
        assert!(Arc::ptr_eq(&a1, &a2));
        let open = s.analysis(Level::SmFieldTypeRefs, World::Open);
        assert!(!Arc::ptr_eq(&a1, &open));
        assert_eq!(s.analyses_built.get(), 2);
        assert_eq!(s.analyses_requested.get(), 3);
    }

    #[test]
    fn engines_build_once_and_report_stats() {
        let store = store(8);
        let (slot, _) = store.load_source(SMOKE);
        let s = slot.as_ref().as_ref().unwrap();
        let e1 = s.engine(Level::SmFieldTypeRefs, World::Closed);
        let e2 = s.engine(Level::SmFieldTypeRefs, World::Closed);
        assert!(Arc::ptr_eq(&e1, &e2));
        assert_eq!(s.engines_built.get(), 1);
        // Building the engine goes through the analysis memo too.
        assert_eq!(s.analyses_built.get(), 1);
        let ap = s.resolve_path("t.f").unwrap();
        assert!(e1.may_alias(&s.program.aps, ap, ap));
        s.note_queries_served(1);
        let per_session = store.engine_stats();
        assert_eq!(per_session.len(), 1);
        let (id, served, stats) = &per_session[0];
        assert_eq!(id, &s.id);
        assert_eq!(*served, 1);
        assert!(stats.dense_pairs > 0, "small programs precompute densely");
        assert_eq!(stats.fallbacks, 0);
        assert!(stats.nodes > 0);
    }

    #[test]
    fn compile_failures_are_not_cached() {
        let store = store(8);
        let (bad, cached) = store.load_source("MODULE Broken");
        assert!(bad.as_ref().is_err());
        assert!(!cached);
        assert_eq!(store.live(), 0);
        let (again, _) = store.load_source("MODULE Broken");
        assert!(again.as_ref().is_err());
        assert_eq!(store.compiles.get(), 2, "failures recompile");
    }

    #[test]
    fn lru_evicts_coldest() {
        let store = store(2);
        let (a, _) = store.load_bench("ktree", 1).unwrap();
        let a_id = a.as_ref().as_ref().unwrap().id.clone();
        store.load_bench("format", 1).unwrap();
        // Touch ktree so format is coldest.
        store.load_bench("ktree", 1).unwrap();
        store.load_bench("slisp", 1).unwrap();
        assert_eq!(store.live(), 2);
        assert_eq!(store.evictions.get(), 1);
        assert!(store.by_id(&a_id).is_some(), "ktree survived (was touched)");
        // format was evicted; reloading recompiles.
        let before = store.compiles.get();
        store.load_bench("format", 1).unwrap();
        assert_eq!(store.compiles.get(), before + 1);
    }

    #[test]
    fn unload_drops_and_allows_reload() {
        let store = store(8);
        let (slot, _) = store.load_bench("ktree", 1).unwrap();
        let id = slot.as_ref().as_ref().unwrap().id.clone();
        assert!(store.unload(&id));
        assert!(!store.unload(&id), "second unload is a no-op");
        assert!(store.by_id(&id).is_none());
        assert_eq!(store.live(), 0);
    }

    #[test]
    fn restore_readmits_under_original_id_and_advances_the_counter() {
        let store = store(8);
        store
            .restore_line("s7", r#"{"op":"load","bench":"ktree","scale":1}"#)
            .expect("restore");
        let slot = store.by_id("s7").expect("restored id resolves");
        assert_eq!(
            slot.as_ref().as_ref().unwrap().key.display(),
            "bench:ktree@1"
        );
        // Fresh loads mint strictly past the restored watermark.
        let (s, _) = store.load_bench("format", 1).unwrap();
        assert_eq!(s.as_ref().as_ref().unwrap().id, "s8");
        // Restoring broken source reports, never admits.
        assert!(store
            .restore_line("s9", r#"{"op":"load","source":"MODULE Broken"}"#)
            .is_err());
        assert!(store.by_id("s9").is_none());
    }

    #[test]
    fn concurrent_loads_compile_once() {
        let store = store(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| store.load_bench("ktree", 1).unwrap());
            }
        });
        assert_eq!(store.compiles.get(), 1);
        assert_eq!(store.live(), 1);
    }
}
