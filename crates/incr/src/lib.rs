//! # tbaa-incr — incremental re-analysis via a function-granular cache
//!
//! The paper's pitch is that type-based alias analysis is nearly free;
//! recompiling a whole program because one function changed is not. This
//! crate makes superseding `load`s pay only for what changed: it splits a
//! module into per-function **units**, content-hashes each
//! ([`units::unit_hashes`]), and caches every unit's lowering together
//! with its **effect summary** ([`tbaa_ir::FuncEffects`]) — the access
//! paths, interned symbols/texts, fresh-id consumption, pointer-assignment
//! merges (§2.4), and `AddressTaken` facts (§2.3) that the unit
//! contributed to module-shared state.
//!
//! ## Context-hash chaining
//!
//! A cached unit is only reusable when the shared state it was lowered
//! under is reproduced exactly (interned ids are positional). The cache
//! key is therefore `(unit_hash, ctx)` where
//!
//! ```text
//! ctx₀ = header_hash          (types, globals, consts, signatures, impls)
//! ctxᵢ₊₁ = chain(ctxᵢ, effect_hashᵢ)
//! ```
//!
//! so unit *i* hits iff its own text is unchanged **and** every earlier
//! unit left the shared tables in the same state. A one-function edit
//! whose effects are unchanged (the common case: the edit touches only
//! that function's body) leaves every downstream context intact — `n−1`
//! of `n` units replay from cache.
//!
//! ## What is and is not reused
//!
//! Reused per hit: the lowered [`tbaa_ir::Function`] body and the
//! function's analysis summary (merge edges + address-taken facts),
//! spliced in by [`tbaa_ir::ModuleLowerer::replay_next`]. Recomputed
//! every load: parse/check (the source must be validated regardless),
//! and the global fixpoint — the type hierarchy and Steensgaard merge in
//! `tbaa` are whole-program unions over the summaries and are cheap
//! relative to lowering; recombining them fresh keeps the invariant that
//! **incremental output is byte-identical to a from-scratch compile**.
//!
//! ```
//! use tbaa_incr::IncrCompiler;
//!
//! let incr = IncrCompiler::new();
//! let base = "MODULE M;
//!     VAR g: INTEGER;
//!     PROCEDURE A (): INTEGER = BEGIN RETURN 1 END A;
//!     PROCEDURE B (): INTEGER = BEGIN RETURN 2 END B;
//!     BEGIN g := A() + B(); END M.";
//! let (p1, r1) = incr.compile(base);
//! assert!(p1.is_ok());
//! assert_eq!(r1.func_hits, 0); // cold
//! let (p2, r2) = incr.compile(&base.replace("RETURN 2", "RETURN 3"));
//! assert!(p2.is_ok());
//! assert_eq!(r2.func_hits, 2); // A and <main> replayed; only B re-lowered
//! ```

pub mod hash;
pub mod units;

use mini_m3::error::Diagnostics;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tbaa_ir::lower::{FuncLowering, ModuleLowerer};
use tbaa_ir::Program;

/// Default bound on cached units. Units are single lowered functions —
/// small next to the `Arc<Program>`s the session store already retains —
/// so the bound exists to cap pathological churn, not memory pressure.
pub const DEFAULT_UNIT_CAPACITY: usize = 4096;

/// Per-compile reuse accounting, plus wall-clock stage timings so the
/// compile path is separately observable (`compile.analyze_us` /
/// `compile.lower_us` / `compile.merge_us` in the daemon's stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrReport {
    /// Functions replayed from cache.
    pub func_hits: u64,
    /// Functions lowered fresh.
    pub func_misses: u64,
    /// Parse/check plus unit hashing time.
    pub analyze: Duration,
    /// Time spent lowering units fresh — the scoped-thread fan-out on the
    /// parallel cold path, or the summed in-line lowerings otherwise.
    pub lower: Duration,
    /// Time spent replaying/absorbing units into the shared tables and
    /// assembling the final program.
    pub merge: Duration,
}

impl IncrReport {
    /// Total functions in the compiled module.
    pub fn funcs(&self) -> u64 {
        self.func_hits + self.func_misses
    }

    /// Fraction of functions replayed from cache (0 for an empty module).
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.funcs();
        if total == 0 {
            0.0
        } else {
            self.func_hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct UnitKey {
    unit: u64,
    ctx: u64,
}

struct CachedUnit {
    lowering: FuncLowering,
    effect_hash: u64,
}

struct Entry {
    unit: Arc<CachedUnit>,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<UnitKey, Entry>,
    tick: u64,
    capacity: usize,
}

/// A concurrent, bounded, content-addressed cache of per-function
/// lowerings, usable as the compile function for any number of sessions.
///
/// Thread-safe: lookups and inserts take a short internal lock; the
/// lowering itself runs outside it. Two threads racing on the same unit
/// at worst lower it twice — the second insert wins, output is unaffected.
pub struct IncrCompiler {
    inner: Mutex<CacheInner>,
}

impl Default for IncrCompiler {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrCompiler {
    /// A compiler with the default unit capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_UNIT_CAPACITY)
    }

    /// A compiler caching at most `capacity` units (0 disables caching).
    pub fn with_capacity(capacity: usize) -> Self {
        IncrCompiler {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
                capacity,
            }),
        }
    }

    /// Number of units currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache holds no units.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compiles `source` to IR, replaying every unit whose content and
    /// shared-state context match a cached lowering.
    ///
    /// The result — including diagnostics on failure — is byte-identical
    /// to [`tbaa_ir::compile_to_ir`]; the report says how much was reused.
    pub fn compile(&self, source: &str) -> (Result<Program, Diagnostics>, IncrReport) {
        self.compile_with_threads(source, 1)
    }

    /// [`compile`](Self::compile) with up to `threads` lowering workers on
    /// the cold path.
    ///
    /// `threads` is an exact worker count (clamped only to the unit
    /// count) so tests can force the fan-out on single-core hosts;
    /// production callers should pass it through
    /// [`tbaa_ir::effective_workers`] first. The fan-out engages only when
    /// the cache is empty: a warm cache replays most units, and lowering
    /// them detached first would be wasted work. Output is byte-identical
    /// to the serial path either way, and a subsequent edit replays the
    /// same n−1/1 hit/miss walk whether the cold compile was parallel or
    /// serial.
    pub fn compile_with_threads(
        &self,
        source: &str,
        threads: usize,
    ) -> (Result<Program, Diagnostics>, IncrReport) {
        let mut report = IncrReport::default();
        let t_analyze = Instant::now();
        let checked = match mini_m3::compile(source) {
            Ok(c) => c,
            Err(e) => return (Err(e), report),
        };
        let hashes = units::unit_hashes(&checked, source);
        report.analyze = t_analyze.elapsed();

        let workers = threads.clamp(1, checked.procs.len().max(1));
        if workers > 1 && self.is_empty() {
            let checked = Arc::new(checked);
            let t_lower = Instant::now();
            let units = tbaa_ir::lower_units_detached(&checked, workers);
            report.lower = t_lower.elapsed();

            let t_merge = Instant::now();
            let mut ml = ModuleLowerer::new_shared(checked);
            let mut ctx = hashes.header;
            for (i, unit) in units.into_iter().enumerate() {
                let key = UnitKey {
                    unit: hashes.units[i],
                    ctx,
                };
                // Still consult the cache per unit (another session may
                // have populated it since the emptiness check) so the
                // hit/miss counters stay truthful.
                if let Some(cached) = self.lookup(key) {
                    ml.replay_next(&cached.lowering);
                    ctx = hash::chain(ctx, cached.effect_hash);
                    report.func_hits += 1;
                } else {
                    let fl = ml.absorb_next_captured(unit);
                    let effect_hash = hash::fnv_hash(&fl.effects);
                    ctx = hash::chain(ctx, effect_hash);
                    if fl.clean {
                        self.insert(
                            key,
                            CachedUnit {
                                lowering: fl,
                                effect_hash,
                            },
                        );
                    }
                    report.func_misses += 1;
                }
            }
            let out = ml.finish();
            report.merge = t_merge.elapsed();
            return (out, report);
        }

        let mut ml = ModuleLowerer::new_shared(Arc::new(checked));
        let mut ctx = hashes.header;
        for i in 0..ml.num_procs() {
            let key = UnitKey {
                unit: hashes.units[i],
                ctx,
            };
            if let Some(cached) = self.lookup(key) {
                let t = Instant::now();
                ml.replay_next(&cached.lowering);
                report.merge += t.elapsed();
                ctx = hash::chain(ctx, cached.effect_hash);
                report.func_hits += 1;
            } else {
                let t = Instant::now();
                let fl = ml.lower_next();
                report.lower += t.elapsed();
                let effect_hash = hash::fnv_hash(&fl.effects);
                ctx = hash::chain(ctx, effect_hash);
                // Units whose lowering emitted diagnostics are never
                // cached: the diagnostics are observable output and must
                // be re-emitted by re-lowering.
                if fl.clean {
                    self.insert(
                        key,
                        CachedUnit {
                            lowering: fl,
                            effect_hash,
                        },
                    );
                }
                report.func_misses += 1;
            }
        }
        let t = Instant::now();
        let out = ml.finish();
        report.merge += t.elapsed();
        (out, report)
    }

    fn lookup(&self, key: UnitKey) -> Option<Arc<CachedUnit>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(&key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.unit)
        })
    }

    fn insert(&self, key: UnitKey, unit: CachedUnit) {
        let mut inner = self.inner.lock().unwrap();
        if inner.capacity == 0 {
            return;
        }
        while inner.map.len() >= inner.capacity && !inner.map.contains_key(&key) {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
            else {
                break;
            };
            inner.map.remove(&oldest);
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            Entry {
                unit: Arc::new(unit),
                last_used: tick,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A structural fingerprint: the full pretty-printed program, which
    /// covers functions, blocks, access paths, merges, and tables.
    fn fingerprint(p: &Program) -> String {
        tbaa_ir::pretty::program(p)
    }

    fn fresh(src: &str) -> Program {
        tbaa_ir::compile_to_ir(src).expect("fresh compile")
    }

    const CORPUS: &[&str] = &[
        "MODULE M; VAR x: INTEGER; BEGIN x := 1 + 2 END M.",
        "MODULE M;
         TYPE T = OBJECT f: INTEGER; g: T; END;
         PROCEDURE Get (t: T): INTEGER = BEGIN RETURN t.f END Get;
         PROCEDURE Hop (t: T): T = BEGIN RETURN t.g END Hop;
         VAR t: T; x: INTEGER;
         BEGIN t := NEW(T); x := Get(Hop(t)); END M.",
        "MODULE M;
         TYPE A = ARRAY OF INTEGER;
         PROCEDURE Sum (a: A): INTEGER =
           VAR s: INTEGER;
           BEGIN FOR i := 0 TO NUMBER(a) - 1 DO s := s + a[i] END; RETURN s END Sum;
         VAR a: A; n: INTEGER;
         BEGIN a := NEW(A, 8); n := Sum(a); END M.",
        "MODULE M;
         TYPE T = OBJECT END; S = T OBJECT END;
         PROCEDURE F (x: T) = BEGIN END F;
         VAR s: S; t: T;
         BEGIN s := NEW(S); t := s; F(s); END M.",
        "MODULE M;
         TYPE T = OBJECT v: INTEGER; METHODS get (): INTEGER := Get; END;
         PROCEDURE Get (self: T): INTEGER = BEGIN RETURN self.v END Get;
         PROCEDURE Bump (VAR x: INTEGER) = BEGIN x := x + 1 END Bump;
         VAR t: T; x: INTEGER;
         BEGIN t := NEW(T); Bump(t.v); x := t.get(); END M.",
    ];

    #[test]
    fn cold_compile_matches_fresh_compile() {
        for src in CORPUS {
            let incr = IncrCompiler::new();
            let (p, r) = incr.compile(src);
            assert_eq!(r.func_hits, 0);
            assert!(r.func_misses >= 1);
            assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(src)));
        }
    }

    #[test]
    fn warm_recompile_is_all_hits_and_identical() {
        for src in CORPUS {
            let incr = IncrCompiler::new();
            let (_, r1) = incr.compile(src);
            let (p, r2) = incr.compile(src);
            assert_eq!(r2.func_misses, 0, "identical source re-lowered: {src}");
            assert_eq!(r2.func_hits, r1.funcs());
            assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(src)));
        }
    }

    #[test]
    fn single_function_edit_reuses_all_others() {
        let base = "MODULE M;
            TYPE T = OBJECT f: INTEGER; END;
            PROCEDURE A (t: T): INTEGER = BEGIN RETURN t.f END A;
            PROCEDURE B (t: T): INTEGER = BEGIN RETURN t.f + 1 END B;
            PROCEDURE C (t: T): INTEGER = BEGIN RETURN t.f + 2 END C;
            VAR t: T; x: INTEGER;
            BEGIN t := NEW(T); x := A(t) + B(t) + C(t); END M.";
        let edited = base.replace("RETURN t.f + 1", "RETURN t.f + 100");
        let incr = IncrCompiler::new();
        let (_, r1) = incr.compile(base);
        assert_eq!(r1.funcs(), 4); // A, B, C, <main>
        let (p, r2) = incr.compile(&edited);
        assert_eq!(r2.func_misses, 1, "only B re-lowered");
        assert_eq!(r2.func_hits, 3);
        assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(&edited)));
    }

    #[test]
    fn effect_changing_edit_invalidates_downstream() {
        // A introduces a *new* access path shape; editing it shifts the
        // shared intern tables, so B (lowered after A, using paths A
        // first interned) must not replay against stale ids.
        let base = "MODULE M;
            TYPE T = OBJECT f: INTEGER; g: INTEGER; END;
            PROCEDURE A (t: T): INTEGER = BEGIN RETURN t.f END A;
            PROCEDURE B (t: T): INTEGER = BEGIN RETURN t.f END B;
            VAR t: T; x: INTEGER;
            BEGIN t := NEW(T); x := A(t) + B(t); END M.";
        let edited = base.replace("RETURN t.f END A", "RETURN t.g END A");
        let incr = IncrCompiler::new();
        let _ = incr.compile(base);
        let (p, r) = incr.compile(&edited);
        assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(&edited)));
        // B's unit text is unchanged but its context changed; it may only
        // hit if A's effects happened to hash identically — they do not.
        assert!(r.func_misses >= 2, "A and downstream units re-lowered");
    }

    #[test]
    fn compile_errors_match_fresh_diagnostics() {
        let bad = "MODULE M;
            PROCEDURE A (): INTEGER = BEGIN RETURN 1 END A;
            VAR a: INTEGER;
            BEGIN FOR i := 0 TO 9 BY a DO a := a + i END; END M.";
        let incr = IncrCompiler::new();
        let (r1, _) = incr.compile(bad);
        let fresh_err = tbaa_ir::compile_to_ir(bad).unwrap_err();
        let incr_err = r1.unwrap_err();
        assert_eq!(format!("{incr_err:?}"), format!("{fresh_err:?}"));
        // And again warm: the erroring unit is never cached, so the
        // diagnostics are re-emitted identically.
        let (r2, _) = incr.compile(bad);
        assert_eq!(format!("{:?}", r2.unwrap_err()), format!("{fresh_err:?}"));
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let incr = IncrCompiler::with_capacity(0);
        let src = CORPUS[1];
        let _ = incr.compile(src);
        assert_eq!(incr.len(), 0);
        let (p, r) = incr.compile(src);
        assert_eq!(r.func_hits, 0);
        assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(src)));
    }

    #[test]
    fn eviction_keeps_output_correct() {
        let incr = IncrCompiler::with_capacity(2);
        for src in CORPUS {
            let (p, _) = incr.compile(src);
            assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(src)));
        }
        assert!(incr.len() <= 2);
        // Churned units are gone, but recompiles stay correct.
        let (p, _) = incr.compile(CORPUS[0]);
        assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(CORPUS[0])));
    }

    #[test]
    fn distinct_procs_with_identical_bodies_do_not_share_entries() {
        // A and B have byte-identical bodies; FuncIds differ, so reusing
        // one for the other would corrupt local roots.
        let src = "MODULE M;
            VAR g: INTEGER;
            PROCEDURE A () = BEGIN g := g + 1 END A;
            PROCEDURE B () = BEGIN g := g + 1 END B;
            BEGIN A(); B(); END M.";
        let incr = IncrCompiler::new();
        let (p, _) = incr.compile(src);
        assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(src)));
        let (p2, r2) = incr.compile(src);
        assert_eq!(r2.func_misses, 0);
        assert_eq!(fingerprint(&p2.unwrap()), fingerprint(&fresh(src)));
    }

    #[test]
    fn parallel_cold_compile_matches_fresh_compile() {
        for src in CORPUS {
            for workers in [2, 4] {
                let incr = IncrCompiler::new();
                let (p, r) = incr.compile_with_threads(src, workers);
                assert_eq!(r.func_hits, 0);
                assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(src)));
            }
        }
    }

    #[test]
    fn parallel_cold_compile_then_edit_walks_n_minus_one() {
        let base = "MODULE M;
            TYPE T = OBJECT f: INTEGER; END;
            PROCEDURE A (t: T): INTEGER = BEGIN RETURN t.f END A;
            PROCEDURE B (t: T): INTEGER = BEGIN RETURN t.f + 1 END B;
            PROCEDURE C (t: T): INTEGER = BEGIN RETURN t.f + 2 END C;
            VAR t: T; x: INTEGER;
            BEGIN t := NEW(T); x := A(t) + B(t) + C(t); END M.";
        let edited = base.replace("RETURN t.f + 1", "RETURN t.f + 100");
        let incr = IncrCompiler::new();
        // Parallel cold compile caches the same (unit, ctx) entries a
        // serial one would...
        let (_, r1) = incr.compile_with_threads(base, 4);
        assert_eq!(r1.func_misses, 4);
        // ...so a one-function edit replays exactly n−1 units.
        let (p, r2) = incr.compile(&edited);
        assert_eq!(r2.func_misses, 1, "only B re-lowered");
        assert_eq!(r2.func_hits, 3);
        assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(&edited)));
    }

    #[test]
    fn warm_cache_skips_the_fan_out() {
        let src = CORPUS[1];
        let incr = IncrCompiler::new();
        let (_, r1) = incr.compile_with_threads(src, 4);
        let (p, r2) = incr.compile_with_threads(src, 4);
        assert_eq!(r2.func_misses, 0);
        assert_eq!(r2.func_hits, r1.funcs());
        assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(src)));
    }

    #[test]
    fn report_reuse_ratio() {
        let r = IncrReport {
            func_hits: 3,
            func_misses: 1,
            ..IncrReport::default()
        };
        assert_eq!(r.funcs(), 4);
        assert!((r.reuse_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(IncrReport::default().reuse_ratio(), 0.0);
    }
}
