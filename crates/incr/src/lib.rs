//! # tbaa-incr — incremental re-analysis via a function-granular cache
//!
//! The paper's pitch is that type-based alias analysis is nearly free;
//! recompiling a whole program because one function changed is not. This
//! crate makes superseding `load`s pay only for what changed: it splits a
//! module into per-function **units**, content-hashes each
//! ([`units::unit_hashes`]), and caches every unit's lowering as a
//! [`tbaa_ir::DetachedUnit`] — the function body plus the access paths,
//! interned symbols/texts, fresh-id consumption, pointer-assignment
//! merges (§2.4) and `AddressTaken` facts (§2.3) it contributes, all
//! lowered against the unit's own empty tables.
//!
//! ## The cache key
//!
//! The merges and `AddressTaken` facts are flow-insensitive unions over
//! all functions, and a detached unit numbers its ids locally, so what a
//! unit contributes does not depend on where it sits in the module or on
//! what earlier units interned. A unit depends only on its own text and
//! the module header (types, globals, consts, signatures, method impls).
//! The cache key is therefore
//!
//! ```text
//! (unit_hash, header_hash)
//! ```
//!
//! and an edit to one function — even one that changes its effects, such
//! as a new access path — re-lowers that unit alone; the other `n−1`
//! units hit. An edit to the header misses every unit.
//!
//! ## One drive loop
//!
//! Every compile keys every unit, lowers the misses detached (on up to
//! `threads` workers), absorbs every unit by reference **in unit order**
//! through [`tbaa_ir::ModuleLowerer::absorb_next`], and caches the misses
//! that emitted no diagnostics. Absorbing rebases each unit's local ids
//! into the module tables exactly as serial lowering would have numbered
//! them, so **incremental output is byte-identical to a from-scratch
//! compile**. Recomputed every load: parse/check (the source must be
//! validated regardless), and the global fixpoint — the type hierarchy
//! and Steensgaard merge in `tbaa` are whole-program unions over the
//! units' summaries and are cheap relative to lowering.
//!
//! ## Eviction
//!
//! The cache holds two generations of at most half the capacity each.
//! New units enter the young generation; a hit in the old one moves the
//! unit to the young one; when the young generation fills, it becomes
//! the old one and the previous old one is dropped. Eviction is O(1)
//! amortized, and a unit survives as long as it is used at least once
//! while half the capacity's worth of other units is added.
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
//! assert_eq!(r2.func_hits, 2); // A and <main> from cache; only B re-lowered
//! ```

pub mod hash;
pub mod units;

use mini_m3::check::ProcId;
use mini_m3::error::Diagnostics;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tbaa_ir::lower::{lower_units_detached, DetachedUnit, ModuleLowerer};
use tbaa_ir::Program;

/// Default bound on cached units. The bound is memory pressure: on the
/// benchmark's edit stream (`edit_suite`) a full cache of detached units
/// holds about 18.5 MB, most of that daemon's ~26 MB resident set.
pub const DEFAULT_UNIT_CAPACITY: usize = 4096;

/// Per-compile reuse accounting, plus wall-clock stage timings so the
/// compile path is separately observable (`compile.analyze_us` /
/// `compile.lower_us` / `compile.merge_us` in the daemon's stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrReport {
    /// Functions taken from cache.
    pub func_hits: u64,
    /// Functions lowered fresh.
    pub func_misses: u64,
    /// Parse/check plus unit hashing time.
    pub analyze: Duration,
    /// Time spent lowering the missed units detached.
    pub lower: Duration,
    /// Time spent absorbing every unit into the shared tables and
    /// assembling the final program.
    pub merge: Duration,
}

impl IncrReport {
    /// Total functions in the compiled module.
    pub fn funcs(&self) -> u64 {
        self.func_hits + self.func_misses
    }

    /// Fraction of functions taken from cache (0 for an empty module).
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
    header: u64,
}

type Generation = HashMap<UnitKey, Arc<DetachedUnit>>;

/// Two generations; see the crate docs' "Eviction".
struct CacheInner {
    young: Generation,
    old: Generation,
    capacity: usize,
}

impl CacheInner {
    /// Looks every key up. Hits in the old generation move to the young
    /// one once all keys are looked up, so a turn of the generations in
    /// the middle cannot drop a unit this same compile still needs.
    fn get_all(&mut self, keys: &[UnitKey]) -> Vec<Option<Arc<DetachedUnit>>> {
        let mut promoted = Vec::new();
        let units = keys
            .iter()
            .map(|key| {
                if let Some(unit) = self.young.get(key) {
                    return Some(Arc::clone(unit));
                }
                let unit = self.old.remove(key)?;
                promoted.push((*key, Arc::clone(&unit)));
                Some(unit)
            })
            .collect();
        for (key, unit) in promoted {
            self.put(key, unit);
        }
        units
    }

    fn put(&mut self, key: UnitKey, unit: Arc<DetachedUnit>) {
        if self.capacity == 0 {
            return;
        }
        self.old.remove(&key);
        self.young.insert(key, unit);
        // On return the young generation holds fewer than ⌈capacity/2⌉
        // units and the old one at most that many, so the two together
        // never pass the capacity.
        if self.young.len() >= self.capacity.div_ceil(2) {
            self.old = std::mem::take(&mut self.young);
        }
    }
}

/// A concurrent, bounded, content-addressed cache of per-function
/// lowerings, usable as the compile function for any number of sessions.
///
/// Thread-safe: each compile takes a short internal lock once to look its
/// units up and once to cache its misses; the lowering runs outside it.
/// Two threads racing on the same unit at worst lower it twice — the
/// second insert wins, output is unaffected.
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
                young: HashMap::new(),
                old: HashMap::new(),
                capacity,
            }),
        }
    }

    fn cache(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // Only map operations run under the lock, so a poisoned lock
        // means a panic inside the standard library.
        self.inner.lock().expect("unit cache lock poisoned")
    }

    /// Number of units currently cached.
    pub fn len(&self) -> usize {
        let inner = self.cache();
        inner.young.len() + inner.old.len()
    }

    /// Whether the cache holds no units.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compiles `source` to IR, taking every unit whose text and module
    /// header match a cached one from the cache.
    ///
    /// The result — including diagnostics on failure — is byte-identical
    /// to [`tbaa_ir::compile_to_ir`]; the report says how much was reused.
    pub fn compile(&self, source: &str) -> (Result<Program, Diagnostics>, IncrReport) {
        self.compile_with_threads(source, 1)
    }

    /// [`compile`](Self::compile) with up to `threads` workers lowering
    /// the missed units.
    ///
    /// `threads` is an exact worker count (clamped only to the number of
    /// misses) so tests can force the fan-out on single-core hosts;
    /// production callers should pass it through
    /// [`tbaa_ir::effective_workers`] first. Output and the hit/miss walk
    /// are the same at any thread count.
    pub fn compile_with_threads(
        &self,
        source: &str,
        threads: usize,
    ) -> (Result<Program, Diagnostics>, IncrReport) {
        let mut report = IncrReport::default();
        let t_analyze = Instant::now();
        let checked = match mini_m3::compile(source) {
            Ok(c) => Arc::new(c),
            Err(e) => return (Err(e), report),
        };
        let hashes = units::unit_hashes(&checked, source);
        report.analyze = t_analyze.elapsed();

        let keys: Vec<UnitKey> = hashes
            .units
            .iter()
            .map(|&unit| UnitKey {
                unit,
                header: hashes.header,
            })
            .collect();
        let mut units = self.cache().get_all(&keys);
        let misses: Vec<ProcId> = (0..units.len() as u32)
            .filter(|&i| units[i as usize].is_none())
            .map(ProcId)
            .collect();
        report.func_misses = misses.len() as u64;
        report.func_hits = (units.len() - misses.len()) as u64;

        let t_lower = Instant::now();
        let fresh = lower_units_detached(&checked, &misses, threads);
        report.lower = t_lower.elapsed();

        let t_merge = Instant::now();
        {
            let mut inner = self.cache();
            for (pid, unit) in misses.iter().zip(fresh) {
                let unit = Arc::new(unit);
                // Units whose lowering emitted diagnostics are never
                // cached: the diagnostics are observable output and must
                // be re-emitted by re-lowering.
                if unit.is_clean() {
                    inner.put(keys[pid.0 as usize], Arc::clone(&unit));
                }
                units[pid.0 as usize] = Some(unit);
            }
        }
        let mut ml = ModuleLowerer::new_shared(checked);
        for unit in &units {
            ml.absorb_next(unit.as_ref().expect("every unit looked up or lowered"));
        }
        let out = ml.finish();
        report.merge = t_merge.elapsed();
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A structural fingerprint: the full pretty-printed program, which
    /// covers functions, blocks, access paths, merges, and tables. Every
    /// program fingerprinted is verified first.
    fn fingerprint(p: &Program) -> String {
        tbaa_ir::verify(p).expect("program verifies");
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
        // Opaque subscripts (call results) in three units, so absorb
        // rebases opaque ids past earlier units'.
        "MODULE M;
         TYPE A = ARRAY OF INTEGER;
         PROCEDURE Id (i: INTEGER): INTEGER = BEGIN RETURN i END Id;
         PROCEDURE Get (a: A): INTEGER = BEGIN RETURN a[Id(0)] + a[Id(1)] END Get;
         PROCEDURE Put (a: A) = BEGIN a[Id(2)] := 7 END Put;
         VAR a: A; x: INTEGER;
         BEGIN a := NEW(A, 4); Put(a); x := Get(a) + a[Id(3)]; END M.",
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
    fn effect_changing_edit_relowers_only_that_unit() {
        // A's edit interns a *new* access path first, which shifts every
        // module id after it; B and <main> are absorbed from cache and
        // rebased past it, so only A re-lowers.
        let base = "MODULE M;
            TYPE T = OBJECT f: INTEGER; g: INTEGER; END;
            PROCEDURE A (t: T): INTEGER = BEGIN RETURN t.f END A;
            PROCEDURE B (t: T): INTEGER = BEGIN RETURN t.f END B;
            VAR t: T; x: INTEGER;
            BEGIN t := NEW(T); x := A(t) + B(t); END M.";
        let edited = base.replace("RETURN t.f END A", "RETURN t.g END A");
        let incr = IncrCompiler::new();
        let (_, r1) = incr.compile(base);
        let n = r1.funcs();
        let (p, r) = incr.compile(&edited);
        assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(&edited)));
        assert_eq!(r.func_misses, 1, "only A re-lowered");
        assert_eq!(r.func_hits, n - 1);
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
        // Parallel cold compile caches the same (unit, header) entries a
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
    fn warm_threaded_compile_is_all_hits() {
        let src = CORPUS[1];
        let incr = IncrCompiler::new();
        let (_, r1) = incr.compile_with_threads(src, 4);
        let (p, r2) = incr.compile_with_threads(src, 4);
        assert_eq!(r2.func_misses, 0);
        assert_eq!(r2.func_hits, r1.funcs());
        assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(src)));
    }

    /// A module of one procedure per entry of `bodies` plus `<main>`;
    /// procedure `k` reads `t.g` when `bodies[k].0` (an effect-changing
    /// edit: a new access path) and `t.f` otherwise, plus `bodies[k].1`.
    fn stream_module(bodies: &[(bool, u32)]) -> String {
        let mut s = String::from("MODULE M; TYPE T = OBJECT f: INTEGER; g: INTEGER; END;\n");
        for (k, &(g, lit)) in bodies.iter().enumerate() {
            let field = if g { "g" } else { "f" };
            s += &format!(
                "PROCEDURE P{k} (t: T): INTEGER = BEGIN RETURN t.{field} + {lit} END P{k};\n"
            );
        }
        s += "VAR t: T; x: INTEGER; BEGIN t := NEW(T); x := 0";
        for k in 0..bodies.len() {
            s += &format!(" + P{k}(t)");
        }
        s + "; END M."
    }

    #[test]
    fn eviction_bounds_the_cache_and_keeps_an_edited_program_warm() {
        const PROCS: usize = 4;
        let units = PROCS as u64 + 1;
        for capacity in [1usize, 2, 3, 5, 9, 10, 11, 64] {
            let incr = IncrCompiler::with_capacity(capacity);
            let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ capacity as u64;
            let mut bodies: Vec<(bool, u32)> = (0..PROCS as u32).map(|k| (false, k)).collect();
            for round in 0..40u32 {
                if round > 0 {
                    // xorshift64: one procedure per round gets a literal
                    // never seen before, and a coin flip picks its field.
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    bodies[rng as usize % PROCS] = (rng >> 32 & 1 == 1, 100 + round);
                }
                let src = stream_module(&bodies);
                let (p, r) = incr.compile(&src);
                assert_eq!(fingerprint(&p.unwrap()), fingerprint(&fresh(&src)));
                assert!(
                    incr.len() <= capacity,
                    "capacity {capacity}: {}",
                    incr.len()
                );
                // A module whose units fit in one generation keeps them.
                if round > 0 && units as usize <= capacity.div_ceil(2) {
                    assert_eq!(
                        (r.func_misses, r.func_hits),
                        (1, units - 1),
                        "capacity {capacity}, round {round}"
                    );
                }
            }
        }
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
