//! Static alias-pair counting — the evaluation metric of Table 5.
//!
//! For each analysis the paper reports, per benchmark: the number of heap
//! memory references in the source, the number of *local* alias pairs
//! (pairs of references within the same procedure that may alias), and the
//! number of *global* alias pairs (pairs not necessarily within the same
//! procedure). Trivial self-pairs are excluded. Computing all pairs is
//! O(e²) in the number of memory expressions, as §2.5 notes — so the
//! enumeration tiles the upper-triangular pair space across a scoped
//! thread pool. Counts are pure sums of pure queries, so the result is
//! deterministic at any thread count.
//!
//! Two census paths produce the same counts:
//!
//! * [`count_alias_pairs`] — the scalar walk: one
//!   [`may_alias_uncached`](AliasAnalysis::may_alias_uncached) query per
//!   upper-triangular pair. Works against any analysis; kept as the
//!   lazy-regime fallback and the differential oracle.
//! * [`census_alias_pairs`] — the word-parallel kernel: when the
//!   [`CompiledAliasEngine`] is in the dense regime, the answers already
//!   sit in its bit matrix, so the census AND-masks each reference's
//!   matrix row against per-function and upper-triangular word masks and
//!   sums `count_ones()` — 64 pair verdicts per instruction (see
//!   [`CompiledAliasEngine::dense_census`]). Exact count equality with
//!   the scalar walk is enforced by `tests/census_differential.rs`.

use crate::analysis::AliasAnalysis;
use crate::compiled::CompiledAliasEngine;
use std::sync::atomic::{AtomicUsize, Ordering};
use tbaa_ir::ir::{HeapRefRows, Program};
use tbaa_ir::path::ApId;
use tbaa_ir::FuncId;

/// The counts reported in Table 5 for one (program, analysis) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AliasPairCounts {
    /// Distinct heap memory reference expressions in the program.
    pub references: usize,
    /// May-alias pairs of references within the same procedure.
    pub local_pairs: usize,
    /// May-alias pairs across the whole program (including local ones).
    pub global_pairs: usize,
}

impl AliasPairCounts {
    /// Average number of other intraprocedural references each reference
    /// may alias (the "3.4 references" style numbers in §3.3).
    pub fn avg_local_per_ref(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            2.0 * self.local_pairs as f64 / self.references as f64
        }
    }

    /// Average number of other interprocedural references each reference
    /// may alias.
    pub fn avg_global_per_ref(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            2.0 * self.global_pairs as f64 / self.references as f64
        }
    }
}

/// Counts alias pairs over all *distinct reference expressions*. Two
/// occurrences of the same access path in the same function count as one
/// reference, mirroring the paper's "references in the source". Uses
/// every available core; see [`count_alias_pairs_with_threads`].
pub fn count_alias_pairs(
    prog: &Program,
    analysis: &(dyn AliasAnalysis + Sync),
) -> AliasPairCounts {
    let threads = tbaa_ir::host_cores();
    count_alias_pairs_with_threads(prog, analysis, threads)
}

/// [`count_alias_pairs`] with an explicit worker count. Workers claim
/// rows `i` of the upper-triangular pair space off a shared atomic
/// cursor and sum privately, so any `threads` value produces identical
/// counts. Queries go through
/// [`may_alias_uncached`](AliasAnalysis::may_alias_uncached) so a
/// memoizing engine is not serialized on its cache lock.
pub fn count_alias_pairs_with_threads(
    prog: &Program,
    analysis: &(dyn AliasAnalysis + Sync),
    threads: usize,
) -> AliasPairCounts {
    count_alias_pairs_rows(prog, &prog.heap_ref_rows(), analysis, threads)
}

/// The scalar pair walk over precomputed reference rows: one
/// [`may_alias_uncached`](AliasAnalysis::may_alias_uncached) query per
/// upper-triangular pair. This is the lazy-regime fallback of
/// [`census_alias_pairs`] and the differential oracle for
/// [`CompiledAliasEngine::dense_census`]; separating row collection
/// lets benchmarks time the two pair kernels on identical inputs.
pub fn count_alias_pairs_rows(
    prog: &Program,
    rows: &HeapRefRows,
    analysis: &(dyn AliasAnalysis + Sync),
    threads: usize,
) -> AliasPairCounts {
    let refs: Vec<(FuncId, ApId)> = rows.iter().collect();
    let n = refs.len();
    let count_row = |i: usize| -> (usize, usize) {
        let (fi, ai) = refs[i];
        let mut local = 0usize;
        let mut global = 0usize;
        for &(fj, aj) in &refs[i + 1..] {
            if analysis.may_alias_uncached(&prog.aps, ai, aj) {
                global += 1;
                if fi == fj {
                    local += 1;
                }
            }
        }
        (local, global)
    };
    // Host-core cap included: on a single-core host every `threads`
    // value degrades to the serial fold, so thread-spawn overhead never
    // shows up as a scaling "slowdown" (the pairs.scaling fix).
    let workers = tbaa_ir::effective_workers(threads, n);
    let (local, global) = if workers <= 1 {
        (0..n).map(count_row).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut sums = (0usize, 0usize);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let (l, g) = count_row(i);
                            sums.0 += l;
                            sums.1 += g;
                        }
                        sums
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pair worker panicked"))
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        })
    };
    AliasPairCounts {
        references: n,
        local_pairs: local,
        global_pairs: global,
    }
}

/// How a [`census_alias_pairs`] call was answered, for metrics: exactly
/// one of `dense_rows` / `fallback_pairs` is non-zero (unless the
/// program has no references at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CensusReport {
    /// The counts (identical on either path).
    pub counts: AliasPairCounts,
    /// Matrix rows popcounted by the word-parallel kernel (0 when the
    /// scalar fallback ran).
    pub dense_rows: u64,
    /// Upper-triangular pair probes walked by the scalar fallback (0
    /// when the dense kernel ran).
    pub fallback_pairs: u64,
}

/// [`count_alias_pairs`] routed through the word-parallel kernel: uses
/// [`CompiledAliasEngine::dense_census`] when the engine is in the
/// dense regime, and falls back to the scalar walk (lazy regime, or
/// references interned after the engine compiled). Counts are exactly
/// equal on both paths. The dense kernel runs serially; the scalar
/// fallback fans out over every available core.
pub fn census_alias_pairs(prog: &Program, engine: &CompiledAliasEngine) -> CensusReport {
    let threads = tbaa_ir::host_cores();
    census_alias_pairs_with_threads(prog, engine, threads)
}

/// [`census_alias_pairs`] with an explicit worker count for the scalar
/// fallback (the dense kernel is always serial); any value produces
/// identical counts.
pub fn census_alias_pairs_with_threads(
    prog: &Program,
    engine: &CompiledAliasEngine,
    threads: usize,
) -> CensusReport {
    let rows = prog.heap_ref_rows();
    if let Some(counts) = engine.dense_census(&rows) {
        return CensusReport {
            counts,
            dense_rows: rows.references() as u64,
            fallback_pairs: 0,
        };
    }
    let counts = count_alias_pairs_rows(prog, &rows, engine, threads);
    let n = rows.references() as u64;
    CensusReport {
        counts,
        dense_rows: 0,
        fallback_pairs: n * n.saturating_sub(1) / 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Level, Tbaa};
    use crate::merge::World;
    use tbaa_ir::compile_to_ir;

    #[test]
    fn single_core_worker_count_short_circuits_spawn() {
        // The pair and census kernels derive their worker count from
        // `effective_workers`; on a 1-core host every requested thread
        // count collapses to 1, taking the spawn-free serial arm.
        for requested in [1, 2, 8, 64] {
            assert_eq!(tbaa_ir::effective_workers_for(requested, 1000, 1), 1);
        }
    }

    fn prog() -> Program {
        compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f, g: INTEGER; END;
             PROCEDURE UseF (t: T): INTEGER = BEGIN RETURN t.f END UseF;
             VAR t: T; x: INTEGER;
             BEGIN
               t := NEW(T);
               t.f := 1;
               t.g := 2;
               x := UseF(t);
             END M.",
        )
        .unwrap()
    }

    #[test]
    fn counts_references_and_pairs() {
        let p = prog();
        let td = Tbaa::build(&p, Level::TypeDecl, World::Closed);
        let ftd = Tbaa::build(&p, Level::FieldTypeDecl, World::Closed);
        let c_td = count_alias_pairs(&p, &td);
        let c_ftd = count_alias_pairs(&p, &ftd);
        // Three reference expressions: t.f (store, main), t.g (store, main),
        // t.f (load, UseF).
        assert_eq!(c_td.references, 3);
        // TypeDecl: all three are INTEGER-typed — all pairs alias.
        assert_eq!(c_td.global_pairs, 3);
        assert_eq!(c_td.local_pairs, 1);
        // FieldTypeDecl separates .f from .g.
        assert_eq!(c_ftd.global_pairs, 1, "only t.f(main) vs t.f(UseF)");
        assert_eq!(c_ftd.local_pairs, 0);
    }

    #[test]
    fn precision_ordering_matches_table_5() {
        let p = prog();
        let mut last = usize::MAX;
        for level in Level::ALL {
            let a = Tbaa::build(&p, level, World::Closed);
            let c = count_alias_pairs(&p, &a);
            assert!(
                c.global_pairs <= last,
                "{level} should not be less precise than its predecessor"
            );
            last = c.global_pairs;
        }
    }

    #[test]
    fn thread_count_does_not_change_counts() {
        let p = prog();
        let ftd = Tbaa::build(&p, Level::FieldTypeDecl, World::Closed);
        let serial = count_alias_pairs_with_threads(&p, &ftd, 1);
        for t in [2, 3, 8, 64] {
            assert_eq!(count_alias_pairs_with_threads(&p, &ftd, t), serial);
        }
    }

    #[test]
    fn census_matches_scalar_walk() {
        let p = prog();
        for level in Level::ALL {
            for world in [World::Closed, World::Open] {
                let tbaa = std::sync::Arc::new(Tbaa::build(&p, level, world));
                let engine = crate::compiled::CompiledAliasEngine::compile(&p, tbaa.clone());
                let oracle = count_alias_pairs_with_threads(&p, tbaa.as_ref(), 1);
                for t in [1, 2, 8] {
                    let report = census_alias_pairs_with_threads(&p, &engine, t);
                    assert_eq!(report.counts, oracle, "{level} {world:?} threads={t}");
                    assert_eq!(report.dense_rows, oracle.references as u64);
                    assert_eq!(report.fallback_pairs, 0);
                }
            }
        }
    }

    #[test]
    fn census_counts_multiplicity_across_three_functions() {
        // The same global path `t.f` is referenced from three separate
        // procedures plus the module body: the (f,a)×(g,a) cross pairs
        // number C(4,2) = 6, which a suffix *union* (one bit per path,
        // no multiplicity) would undercount. This pins the bit-sliced
        // suffix counts.
        let p = compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T;
             PROCEDURE A (): INTEGER = BEGIN RETURN t.f END A;
             PROCEDURE B (): INTEGER = BEGIN RETURN t.f END B;
             PROCEDURE C (): INTEGER = BEGIN RETURN t.f END C;
             VAR x: INTEGER;
             BEGIN
               t := NEW(T);
               t.f := 1;
               x := A() + B() + C();
             END M.",
        )
        .unwrap();
        for level in Level::ALL {
            let tbaa = std::sync::Arc::new(Tbaa::build(&p, level, World::Closed));
            let engine = crate::compiled::CompiledAliasEngine::compile(&p, tbaa.clone());
            let oracle = count_alias_pairs_with_threads(&p, tbaa.as_ref(), 1);
            let report = census_alias_pairs_with_threads(&p, &engine, 1);
            assert_eq!(report.counts, oracle, "{level}");
            assert!(
                oracle.global_pairs >= 6,
                "expected at least the six t.f cross pairs, got {oracle:?}"
            );
        }
    }

    #[test]
    fn census_falls_back_in_lazy_regime() {
        let p = prog();
        let tbaa = std::sync::Arc::new(Tbaa::build(&p, Level::TypeDecl, World::Closed));
        let engine = crate::compiled::CompiledAliasEngine::compile_with_dense_limit(&p, tbaa, 0);
        let report = census_alias_pairs_with_threads(&p, &engine, 2);
        let oracle = count_alias_pairs(&p, &Tbaa::build(&p, Level::TypeDecl, World::Closed));
        assert_eq!(report.counts, oracle);
        assert_eq!(report.dense_rows, 0);
        let n = oracle.references as u64;
        assert_eq!(report.fallback_pairs, n * (n - 1) / 2);
    }

    #[test]
    fn averages() {
        let c = AliasPairCounts {
            references: 4,
            local_pairs: 2,
            global_pairs: 6,
        };
        assert!((c.avg_local_per_ref() - 1.0).abs() < 1e-9);
        assert!((c.avg_global_per_ref() - 3.0).abs() < 1e-9);
        let z = AliasPairCounts::default();
        assert_eq!(z.avg_local_per_ref(), 0.0);
    }
}
