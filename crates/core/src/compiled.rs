//! The compiled alias-query engine.
//!
//! [`Tbaa::may_alias_paths`] re-walks both `AccessPath`s on every query:
//! it re-derives `Type(p)` from the last step, compares steps
//! structurally, and recurses through freshly materialized parents. The
//! paper's own pitch (§2.5) is that TBAA is cheap because everything
//! hard happens once per program — this module finishes the job for the
//! query side.
//!
//! At build time [`CompiledAliasEngine::compile`] hash-conses every
//! interned access path *and every prefix of it* into a node DAG:
//!
//! * node identity ⟺ structural path equality, so Table 2's case 1
//!   ("identical access paths") is one integer compare at every
//!   recursion depth;
//! * each node caches its leaf classification (field symbol / deref /
//!   subscript / dope slot), the payload the Table 2 arms need, and the
//!   resolved terminal `TypeId` (`Type(p)` with the dope-slot INTEGER
//!   rule already applied);
//! * parents are integer links, so the `FieldTypeDecl` recursion becomes
//!   an allocation-free loop over `u32`s.
//!
//! For programs whose snapshot fits [`DENSE_LIMIT`] (the whole
//! benchsuite does, by orders of magnitude), the build finishes the
//! precomputation outright: every `(ApId, ApId)` verdict is evaluated
//! once into a dense bit matrix, and a query becomes a single indexed
//! load with **no** locks, hashing, or atomic counters on the path —
//! that is what makes the engine faster than the (already allocation-
//! free) naive walk, whose early exits cost only a few nanoseconds.
//! Oversized snapshots keep a lazy regime instead: a [`Memo`] keyed by
//! the normalized `(ApId, ApId)` pair caches verdicts as they are first
//! asked, with hit/miss counters. Bulk enumerations
//! ([`count_alias_pairs`](crate::pairs::count_alias_pairs)) go through
//! [`AliasAnalysis::may_alias_uncached`] and skip the memo lock.
//!
//! Paths interned *after* the engine was compiled (RLE/DSE kill scans
//! clone the program's `ApTable` and intern fresh prefix paths; the
//! limit study interns shadow paths) fall back to the naive oracle.
//! That is sound because `ApTable::intern` is append-only: an `ApId`
//! below the compiled snapshot length denotes the same path in every
//! table cloned from the program's, and anything at or above it is
//! answered against the caller's own table.

use crate::analysis::{AliasAnalysis, Level, Tbaa};
use crate::memo::Memo;
use crate::merge::World;
use crate::pairs::AliasPairCounts;
use mini_m3::types::TypeId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tbaa_ir::ir::{HeapRefRows, Program};
use tbaa_ir::path::{ApId, ApRoot, ApStep, ApTable};
use tbaa_ir::symbols::Symbol;

/// Per-node step classification with the payloads Table 2 consumes.
/// Subscript expressions and dope details are identity-only (they live
/// in the cons key, not here): case 6 ignores subscripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    /// A bare root (no steps).
    Root,
    /// `.f` — Qualify.
    Field {
        sym: Symbol,
        base_ty: TypeId,
        field_ty: TypeId,
    },
    /// `^` — Dereference.
    Deref,
    /// `[i]` — Subscript.
    Index { base_ty: TypeId, elem_ty: TypeId },
    /// The hidden `#length` dope slot.
    Dope,
}

/// One hash-consed access-path prefix.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Parent node index; self-referential for roots (never followed:
    /// the walk stops at `Root`).
    parent: u32,
    kind: NodeKind,
    /// Resolved `Type(p)` for this prefix (dope slots already INTEGER).
    ty: TypeId,
    /// Whether the path is rooted at an anonymous temp.
    temp: bool,
}

/// Snapshots larger than this many access paths skip the dense pair
/// matrix (quadratic bits and build-time walks) and use the lazy memo
/// regime instead.
///
/// Placed by the `bench-alias --sweep-dense-limit` crossover sweep
/// (data in `BENCH_alias_query.json` under `dense_limit_sweep`): at
/// 2048 paths the matrix costs ~10.7 ms to build and pays for itself
/// after ~152k queries — under 4% of the `n²` queries a single `pairs`
/// census issues — while the build cost grows roughly quadratically
/// (~47 ms at 4096 paths) with no matching gain over the ~1.4e7 q/s
/// lazy memo for interactive traffic. The benchsuite tops out near 70
/// paths, so the limit only gates large synthetic/user programs.
pub const DENSE_LIMIT: usize = 2048;

/// Counters exported through the `tbaad` metrics registry.
///
/// The dense regime's query path is deliberately uninstrumented (a
/// single atomic increment would cost several times the lookup itself),
/// so `queries`/`memo_*` only move in the lazy regime; `dense_pairs`
/// reports how many verdicts were precomputed at build time, and
/// `fallbacks` counts post-snapshot queries in either regime. Serving
/// layers that need per-query counts (the `tbaad` dispatch loop) count
/// at their own grain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompiledStats {
    /// Lazy-regime `may_alias` queries (memoized entry point).
    pub queries: u64,
    /// Lazy-regime queries answered from the pair memo.
    pub memo_hits: u64,
    /// Lazy-regime queries that ran the compiled walk and populated the
    /// memo.
    pub memo_misses: u64,
    /// Queries (either entry point) on post-compile `ApId`s, answered by
    /// the naive oracle.
    pub fallbacks: u64,
    /// Distinct pair verdicts precomputed into the dense matrix (0 in
    /// the lazy regime).
    pub dense_pairs: u64,
    /// Resident pair-memo entries (lazy regime).
    pub memo_len: usize,
    /// Hash-consed prefix nodes.
    pub nodes: usize,
    /// Wall time spent compiling the node DAG and dense matrix, in
    /// microseconds.
    pub build_us: u64,
}

/// A [`Tbaa`] analysis compiled into an integer-indexed query engine.
///
/// Implements [`AliasAnalysis`] with answers identical to the wrapped
/// analysis (the differential suite in `tests/compiled_engine.rs` checks
/// every pair on every benchmark); only the cost model changes.
pub struct CompiledAliasEngine {
    tbaa: Arc<Tbaa>,
    /// Node index per build-time `ApId` (dense snapshot).
    node_of: Vec<u32>,
    nodes: Vec<Node>,
    /// Precomputed full-square pair matrix, row padded: row `a` is the
    /// `dense_wpr` words starting at `a * dense_wpr`, with bit `b` set
    /// iff the pair may alias (both mirror-bits set, so queries skip
    /// normalization). Word-aligned rows are what lets
    /// [`Self::dense_census`] AND whole rows against reference masks
    /// and popcount them. Empty in the lazy regime.
    dense: Vec<u64>,
    /// Snapshot size when the dense matrix exists, else `0` — so the
    /// hot path decides "dense AND both ids in range" with the single
    /// comparison `max(a, b) < dense_n`.
    dense_n: u32,
    /// Words per matrix row: `ceil(dense_n / 64)` (0 in the lazy
    /// regime).
    dense_wpr: u32,
    memo: Memo<(ApId, ApId), bool>,
    queries: AtomicU64,
    memo_misses: AtomicU64,
    fallbacks: AtomicU64,
    build_us: u64,
}

impl CompiledAliasEngine {
    /// Builds the analysis and compiles it in one step.
    pub fn build(prog: &Program, level: Level, world: World) -> Self {
        Self::compile(prog, Arc::new(Tbaa::build(prog, level, world)))
    }

    /// Compiles the program's interned access paths against an
    /// already-built analysis, precomputing the dense pair matrix when
    /// the snapshot fits [`DENSE_LIMIT`].
    pub fn compile(prog: &Program, tbaa: Arc<Tbaa>) -> Self {
        Self::compile_with_options(prog, tbaa, DENSE_LIMIT, 1)
    }

    /// [`compile`](Self::compile) with the dense matrix filled row-
    /// parallel on up to `threads` workers (capped by the host's core
    /// count via [`tbaa_ir::effective_workers`]; one effective worker
    /// runs the serial fill with zero thread overhead). The matrix is
    /// bit-for-bit identical at any thread count.
    pub fn compile_with_threads(prog: &Program, tbaa: Arc<Tbaa>, threads: usize) -> Self {
        let workers = tbaa_ir::effective_workers(threads, prog.aps.len());
        Self::compile_with_options(prog, tbaa, DENSE_LIMIT, workers)
    }

    /// [`compile`](Self::compile) with an explicit dense-matrix cutoff;
    /// `0` forces the lazy memo regime (the differential tests use this
    /// to cover both query paths on the same programs).
    pub fn compile_with_dense_limit(prog: &Program, tbaa: Arc<Tbaa>, dense_limit: usize) -> Self {
        Self::compile_with_options(prog, tbaa, dense_limit, 1)
    }

    /// Full-control constructor: explicit dense cutoff and an **exact**
    /// dense-fill worker count (clamped only to the row count, not the
    /// host's cores — tests use this to force the parallel fill on a
    /// single-core host; production callers go through
    /// [`compile_with_threads`](Self::compile_with_threads)).
    pub fn compile_with_options(
        prog: &Program,
        tbaa: Arc<Tbaa>,
        dense_limit: usize,
        threads: usize,
    ) -> Self {
        let start = std::time::Instant::now();
        let integer = prog.types.integer();
        let mut nodes: Vec<Node> = Vec::new();
        let mut root_ids: std::collections::HashMap<(ApRoot, TypeId), u32> =
            std::collections::HashMap::new();
        let mut step_ids: std::collections::HashMap<(u32, ApStep), u32> =
            std::collections::HashMap::new();
        let mut node_of = Vec::with_capacity(prog.aps.len());
        for (_, path) in prog.aps.iter() {
            let temp = matches!(path.root, ApRoot::Temp(_));
            let mut cur = *root_ids
                .entry((path.root, path.root_ty))
                .or_insert_with(|| {
                    nodes.push(Node {
                        parent: nodes.len() as u32,
                        kind: NodeKind::Root,
                        ty: path.root_ty,
                        temp,
                    });
                    (nodes.len() - 1) as u32
                });
            for step in &path.steps {
                cur = *step_ids.entry((cur, step.clone())).or_insert_with(|| {
                    let kind = match step {
                        ApStep::Field { name, base_ty, ty } => NodeKind::Field {
                            sym: *name,
                            base_ty: *base_ty,
                            field_ty: *ty,
                        },
                        ApStep::Deref { .. } => NodeKind::Deref,
                        ApStep::Index { base_ty, ty, .. } => NodeKind::Index {
                            base_ty: *base_ty,
                            elem_ty: *ty,
                        },
                        ApStep::DopeLen { .. } => NodeKind::Dope,
                    };
                    nodes.push(Node {
                        parent: cur,
                        kind,
                        ty: step.ty(integer),
                        temp,
                    });
                    (nodes.len() - 1) as u32
                });
            }
            node_of.push(cur);
        }
        let mut engine = CompiledAliasEngine {
            tbaa,
            node_of,
            nodes,
            dense: Vec::new(),
            dense_n: 0,
            dense_wpr: 0,
            memo: Memo::new(),
            queries: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            build_us: 0,
        };
        let n = engine.node_of.len();
        if n > 0 && n <= dense_limit {
            // Evaluate every pair once (symmetry halves the walks) into
            // a row-padded full-square bit matrix: rows start on word
            // boundaries so a query is one multiply, one load, one
            // shift, and the census kernel can mask and popcount whole
            // rows. Padding costs < 64 bits per row over the flat
            // `a*n+b` layout it replaced.
            let wpr = n.div_ceil(64);
            let workers = threads.clamp(1, n);
            let bits = if workers <= 1 {
                let mut bits = vec![0u64; n * wpr];
                for a in 0..n {
                    for b in a..n {
                        if engine
                            .compiled_answer(ApId(a as u32), ApId(b as u32))
                            .expect("snapshot ids are dense")
                        {
                            bits[a * wpr + (b >> 6)] |= 1 << (b & 63);
                            bits[b * wpr + (a >> 6)] |= 1 << (a & 63);
                        }
                    }
                }
                bits
            } else {
                // Row-parallel fill: each worker claims upper-triangle
                // rows off an atomic cursor (row a holds pairs b >= a,
                // so the cursor balances the skewed row costs), writes
                // only its own row's words, and the mirror half is
                // copied serially after the join. `compiled_answer` is
                // `&self` over the shared memo, so the walks race only
                // on monotonic counters — the verdicts, and hence the
                // matrix, are bit-identical to the serial fill.
                let abits: Vec<AtomicU64> = (0..n * wpr).map(|_| AtomicU64::new(0)).collect();
                let cursor = AtomicUsize::new(0);
                std::thread::scope(|s| {
                    for _ in 0..workers {
                        let abits = &abits;
                        let cursor = &cursor;
                        let engine = &engine;
                        s.spawn(move || {
                            let mut row = vec![0u64; wpr];
                            loop {
                                let a = cursor.fetch_add(1, Ordering::Relaxed);
                                if a >= n {
                                    break;
                                }
                                row.fill(0);
                                for b in a..n {
                                    if engine
                                        .compiled_answer(ApId(a as u32), ApId(b as u32))
                                        .expect("snapshot ids are dense")
                                    {
                                        row[b >> 6] |= 1 << (b & 63);
                                    }
                                }
                                for (w, &v) in row.iter().enumerate() {
                                    if v != 0 {
                                        abits[a * wpr + w].store(v, Ordering::Relaxed);
                                    }
                                }
                            }
                        });
                    }
                });
                let mut bits: Vec<u64> = abits.into_iter().map(AtomicU64::into_inner).collect();
                for a in 0..n {
                    for b in (a + 1)..n {
                        if bits[a * wpr + (b >> 6)] >> (b & 63) & 1 == 1 {
                            bits[b * wpr + (a >> 6)] |= 1 << (a & 63);
                        }
                    }
                }
                bits
            };
            engine.dense = bits;
            engine.dense_n = n as u32;
            engine.dense_wpr = wpr as u32;
        }
        engine.build_us = start.elapsed().as_micros() as u64;
        engine
    }

    /// The wrapped analysis (for clients that need type-level queries,
    /// e.g. devirtualization's `possible_types`).
    pub fn tbaa(&self) -> &Tbaa {
        &self.tbaa
    }

    /// A counter snapshot.
    pub fn stats(&self) -> CompiledStats {
        let queries = self.queries.load(Ordering::Relaxed);
        let memo_misses = self.memo_misses.load(Ordering::Relaxed);
        let fallbacks = self.fallbacks.load(Ordering::Relaxed);
        let n = self.node_of.len() as u64;
        CompiledStats {
            queries,
            memo_hits: queries.saturating_sub(memo_misses),
            memo_misses,
            fallbacks,
            dense_pairs: if self.dense.is_empty() {
                0
            } else {
                n * (n + 1) / 2
            },
            memo_len: self.memo.len(),
            nodes: self.nodes.len(),
            build_us: self.build_us,
        }
    }

    /// Table 2 over node indices. Mirrors `Tbaa::ftd` arm for arm; the
    /// recursion is a loop because every arm either returns or descends
    /// to both parents.
    fn walk(&self, mut p: u32, mut q: u32) -> bool {
        let t = &*self.tbaa;
        loop {
            let np = self.nodes[p as usize];
            let nq = self.nodes[q as usize];
            if p == q {
                if !np.temp {
                    // Case 1: identical access paths always alias.
                    return true;
                }
                // Identical temp-rooted paths skip case 1; the naive walk
                // descends matching steps until the bare temp root falls
                // through to case 7.
                match np.kind {
                    NodeKind::Field { .. } | NodeKind::Index { .. } | NodeKind::Dope => {
                        p = np.parent;
                        q = nq.parent;
                        continue;
                    }
                    NodeKind::Deref | NodeKind::Root => {
                        return t.type_compatible(np.ty, nq.ty);
                    }
                }
            }
            return match (np.kind, nq.kind) {
                // Case 2: same field on possibly the same object.
                (NodeKind::Field { sym: f, .. }, NodeKind::Field { sym: g, .. }) => {
                    if f == g {
                        p = np.parent;
                        q = nq.parent;
                        continue;
                    }
                    false
                }
                // Case 3: field vs deref — AddressTaken gates it.
                (
                    NodeKind::Field {
                        sym,
                        base_ty,
                        field_ty,
                    },
                    NodeKind::Deref,
                )
                | (
                    NodeKind::Deref,
                    NodeKind::Field {
                        sym,
                        base_ty,
                        field_ty,
                    },
                ) => {
                    t.address_taken_field(base_ty, sym, field_ty)
                        && t.type_compatible(np.ty, nq.ty)
                }
                // Case 4: deref vs subscript — taken element gates it.
                (NodeKind::Deref, NodeKind::Index { base_ty, elem_ty })
                | (NodeKind::Index { base_ty, elem_ty }, NodeKind::Deref) => {
                    t.address_taken_element(base_ty, elem_ty)
                        && t.type_compatible(np.ty, nq.ty)
                }
                // Case 5: a subscript never aliases a qualification.
                (NodeKind::Field { .. }, NodeKind::Index { .. })
                | (NodeKind::Index { .. }, NodeKind::Field { .. }) => false,
                // Case 6: subscripts ignored; the arrays decide.
                (NodeKind::Index { .. }, NodeKind::Index { .. }) => {
                    p = np.parent;
                    q = nq.parent;
                    continue;
                }
                // Dope slots alias only each other.
                (NodeKind::Dope, NodeKind::Dope) => {
                    p = np.parent;
                    q = nq.parent;
                    continue;
                }
                (NodeKind::Dope, _) | (_, NodeKind::Dope) => false,
                // Case 7: everything else is plain type compatibility.
                _ => t.type_compatible(np.ty, nq.ty),
            };
        }
    }

    /// The precomputed verdict for a pair inside the dense snapshot.
    /// Callers must have checked `a.0.max(b.0) < self.dense_n`.
    #[inline]
    fn dense_bit(&self, a: ApId, b: ApId) -> bool {
        let b_idx = b.0 as usize;
        let idx = a.0 as usize * self.dense_wpr as usize + (b_idx >> 6);
        // SAFETY: both ids are < dense_n (caller contract), so the row
        // offset is at most (dense_n-1)*dense_wpr and the word index
        // within the row at most dense_wpr-1; the matrix was built with
        // dense_n * dense_wpr words.
        let word = unsafe { *self.dense.get_unchecked(idx) };
        (word >> (b_idx & 63)) & 1 != 0
    }

    /// Bulk Table-5 census over the dense matrix: counts may-alias
    /// pairs among the reference expressions of `rows` with masked
    /// popcounts — 64 pair verdicts per `AND` + `count_ones` — instead
    /// of one [`Self::dense_bit`] probe per pair. Returns `None` when
    /// the engine is in the lazy regime or any reference postdates the
    /// compiled snapshot (RLE scratch programs intern fresh paths);
    /// callers fall back to the scalar pair walk.
    ///
    /// For each function `f` in `rows`, with `B_f` the bitset of `f`'s
    /// reference paths over `ApId` space:
    ///
    /// * **local pairs**: for each path `a ∈ B_f`, popcount
    ///   `row(a) & B_f` restricted to bits strictly above `a` — the
    ///   upper-triangular mask counts every unordered pair exactly once
    ///   and drops the trivial self pair;
    /// * **global pairs** need *multiplicity*, not membership: the pair
    ///   `(f,a)` vs `(g,b)` is distinct for every function `g`
    ///   containing `b` (including `b == a`, which is how the same
    ///   global path referenced from two functions gets counted), so a
    ///   mask union would undercount any path referenced by three or
    ///   more functions. With `m_x` the number of functions referencing
    ///   path `x`, kept *bit-sliced* (plane `p` holds bit `2^p` of
    ///   every path's count), the weighted row sum
    ///   `S = Σ_refs Σ_p popcount(row(a) & plane_p) << p` counts every
    ///   ordered reference pair whose paths may alias — so with
    ///   `D = Σ_refs diag(a)` (the self-verdict per reference),
    ///   `global = (S − D) / 2` exactly: off-diagonal terms appear
    ///   twice in `S` by matrix symmetry, and the diagonal's
    ///   `m_a² − m_a` surplus over the wanted `C(m_a, 2)` pairs cancels
    ///   against the subtracted self pairs. One global plane set — no
    ///   per-function suffix state — still 64 paths per `AND`, times
    ///   the ⌈log₂(max multiplicity)⌉ live planes.
    ///
    /// Serial by design: the sweep takes about a microsecond on a
    /// benchsuite program, far less than spawning one thread, so a
    /// fan-out here only ever lost (measured unpinned on 2 vCPUs).
    pub fn dense_census(&self, rows: &HeapRefRows) -> Option<AliasPairCounts> {
        if self.dense_n == 0 || rows.refs.iter().any(|ap| ap.0 >= self.dense_n) {
            return None;
        }
        let wpr = self.dense_wpr as usize;
        let groups = rows.funcs.len();
        // The per-call setup cost matters: benchsuite-sized programs
        // finish the whole popcount sweep in well under a microsecond,
        // so scratch space is ONE allocation (function masks and the
        // multiplicity planes carved out of a single zeroed buffer) and
        // the plane count is bounded by ⌈log₂ groups⌉ upfront (a path
        // can appear in at most every group) instead of an extra
        // counting pass; `used` tracks how many planes ever received a
        // bit so the census scans only live ones.
        let planes = (usize::BITS - groups.leading_zeros()) as usize;
        let fm_len = groups * wpr;
        let need = fm_len + planes * wpr;
        // Benchsuite-sized scratch fits on the stack; the heap path
        // covers wide programs (many functions × many words per row).
        let mut stack = [0u64; 256];
        let mut heap: Vec<u64>;
        let scratch: &mut [u64] = if need <= stack.len() {
            &mut stack[..need]
        } else {
            heap = vec![0u64; need];
            &mut heap
        };
        let (func_masks, mult_planes) = scratch.split_at_mut(fm_len);
        for (gi, &(_, s, e)) in rows.funcs.iter().enumerate() {
            let mask = &mut func_masks[gi * wpr..(gi + 1) * wpr];
            for &ap in &rows.refs[s as usize..e as usize] {
                mask[ap.0 as usize >> 6] |= 1 << (ap.0 & 63);
            }
        }
        // Ripple-carry each function's bitset into the bit-sliced
        // multiplicity planes (a path appears at most once per group,
        // so adding the mask adds exactly 1 per member).
        let mut used = 0usize;
        for gi in 0..groups {
            let mask = &func_masks[gi * wpr..(gi + 1) * wpr];
            for w in 0..wpr {
                let mut carry = mask[w];
                let mut p = 0;
                while carry != 0 {
                    let slot = &mut mult_planes[p * wpr + w];
                    let next = *slot & carry;
                    *slot ^= carry;
                    carry = next;
                    p += 1;
                }
                used = used.max(p);
            }
        }
        let func_masks = &*func_masks;
        let mult_planes = &*mult_planes;
        // Per group: (local pairs, weighted row sum S, diagonal sum D).
        let census_group = |gi: usize| -> (u64, u64, u64) {
            let (_, s, e) = rows.funcs[gi];
            let fmask = &func_masks[gi * wpr..(gi + 1) * wpr];
            let (mut local, mut weighted, mut diag) = (0u64, 0u64, 0u64);
            for &ap in &rows.refs[s as usize..e as usize] {
                let a = ap.0 as usize;
                let row = &self.dense[a * wpr..(a + 1) * wpr];
                // Bits strictly above `a` within its own word; the
                // second shift (by 1, never 64) zeroes the mask when
                // `a` is bit 63.
                let above = (!0u64 << (a & 63)) << 1;
                let wi = a >> 6;
                local += (row[wi] & fmask[wi] & above).count_ones() as u64;
                for w in wi + 1..wpr {
                    local += (row[w] & fmask[w]).count_ones() as u64;
                }
                for p in 0..used {
                    let plane = &mult_planes[p * wpr..(p + 1) * wpr];
                    let mut hits = 0u64;
                    for w in 0..wpr {
                        hits += (row[w] & plane[w]).count_ones() as u64;
                    }
                    weighted += hits << p;
                }
                diag += (row[wi] >> (a & 63)) & 1;
            }
            (local, weighted, diag)
        };
        let (local, weighted, diag) = (0..groups)
            .map(census_group)
            .fold((0, 0, 0), |x, y| (x.0 + y.0, x.1 + y.1, x.2 + y.2));
        Some(AliasPairCounts {
            references: rows.refs.len(),
            local_pairs: local as usize,
            global_pairs: ((weighted - diag) / 2) as usize,
        })
    }

    /// The memoized-entry slow path: lazy-regime memo lookup, or the
    /// naive-oracle fallback for post-snapshot ids. Outlined so the
    /// dense fast path in [`AliasAnalysis::may_alias`] stays small
    /// enough to inline into bulk query loops.
    #[inline(never)]
    fn may_alias_slow(&self, aps: &ApTable, a: ApId, b: ApId) -> bool {
        let n = self.node_of.len();
        if (a.0 as usize) < n && (b.0 as usize) < n {
            self.queries.fetch_add(1, Ordering::Relaxed);
            let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
            return *self.memo.get_or_build(key, || {
                self.memo_misses.fetch_add(1, Ordering::Relaxed);
                self.compiled_answer(a, b).expect("ids checked dense")
            });
        }
        // Post-compile id: the pair is only meaningful in the caller's
        // table, so it is answered there and never cached.
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        self.tbaa.may_alias_paths(aps.path(a), aps.path(b))
    }

    /// The uncached-entry slow path; see [`Self::may_alias_slow`].
    #[inline(never)]
    fn may_alias_uncached_slow(&self, aps: &ApTable, a: ApId, b: ApId) -> bool {
        let n = self.node_of.len();
        if (a.0 as usize) < n && (b.0 as usize) < n {
            return self.compiled_answer(a, b).expect("ids checked dense");
        }
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        self.tbaa.may_alias_paths(aps.path(a), aps.path(b))
    }

    /// The compiled answer for a pair of build-time ids, or `None` if
    /// either id postdates the compiled snapshot.
    fn compiled_answer(&self, a: ApId, b: ApId) -> Option<bool> {
        let pa = *self.node_of.get(a.0 as usize)?;
        let pb = *self.node_of.get(b.0 as usize)?;
        if self.tbaa.level() == Level::TypeDecl {
            // TypeDecl short-circuits to case 7 for every pair.
            return Some(
                self.tbaa
                    .type_compatible(self.nodes[pa as usize].ty, self.nodes[pb as usize].ty),
            );
        }
        Some(self.walk(pa, pb))
    }
}

impl AliasAnalysis for CompiledAliasEngine {
    fn name(&self) -> &str {
        self.tbaa.name()
    }

    #[inline]
    fn may_alias(&self, aps: &ApTable, a: ApId, b: ApId) -> bool {
        // Dense regime: one comparison and one load, no locks, no
        // atomics — this is the hot path the whole module exists for.
        if a.0.max(b.0) < self.dense_n {
            return self.dense_bit(a, b);
        }
        self.may_alias_slow(aps, a, b)
    }

    #[inline]
    fn may_alias_uncached(&self, aps: &ApTable, a: ApId, b: ApId) -> bool {
        if a.0.max(b.0) < self.dense_n {
            return self.dense_bit(a, b);
        }
        self.may_alias_uncached_slow(aps, a, b)
    }

    fn wild_may_modify(&self, aps: &ApTable, ap: ApId) -> bool {
        match self.node_of.get(ap.0 as usize) {
            Some(&n) => match self.nodes[n as usize].kind {
                NodeKind::Field {
                    sym,
                    base_ty,
                    field_ty,
                } => self.tbaa.address_taken_field(base_ty, sym, field_ty),
                NodeKind::Index { base_ty, elem_ty } => {
                    self.tbaa.address_taken_element(base_ty, elem_ty)
                }
                NodeKind::Dope => false,
                NodeKind::Deref | NodeKind::Root => true,
            },
            None => self.tbaa.wild_may_modify(aps, ap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbaa_ir::compile_to_ir;

    fn prog() -> Program {
        compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f, g: INTEGER; END; A = ARRAY OF INTEGER;
             P = REF INTEGER;
             PROCEDURE Touch (VAR v: INTEGER) = BEGIN v := v + 1 END Touch;
             PROCEDURE Get (): T = BEGIN RETURN NEW(T) END Get;
             VAR t, u: T; a: A; p: P; x: INTEGER;
             BEGIN
               t := NEW(T); u := NEW(T); a := NEW(A, 3); p := NEW(P);
               Touch(t.f);
               t.f := 1; t.g := 2; u.f := 3; a[0] := 4; p^ := 5;
               x := t.f + t.g + u.f + a[1] + p^ + NUMBER(a) + Get().f;
             END M.",
        )
        .unwrap()
    }

    #[test]
    fn matches_naive_on_every_pair_at_every_level() {
        let prog = prog();
        let ids: Vec<ApId> = prog.aps.iter().map(|(id, _)| id).collect();
        for world in [World::Closed, World::Open] {
            for level in Level::ALL {
                let naive = Arc::new(Tbaa::build(&prog, level, world));
                // Cover both regimes: dense matrix and lazy memo.
                for dense_limit in [DENSE_LIMIT, 0] {
                    let engine = CompiledAliasEngine::compile_with_dense_limit(
                        &prog,
                        naive.clone(),
                        dense_limit,
                    );
                    for &a in &ids {
                        for &b in &ids {
                            let want = naive.may_alias(&prog.aps, a, b);
                            assert_eq!(
                                engine.may_alias(&prog.aps, a, b),
                                want,
                                "{level}/{world:?}/limit {dense_limit} memoized {a:?} vs {b:?}"
                            );
                            assert_eq!(
                                engine.may_alias_uncached(&prog.aps, a, b),
                                want,
                                "{level}/{world:?}/limit {dense_limit} uncached {a:?} vs {b:?}"
                            );
                        }
                        assert_eq!(
                            engine.wild_may_modify(&prog.aps, a),
                            naive.wild_may_modify(&prog.aps, a),
                            "{level}/{world:?} wild {a:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_dense_fill_is_bit_identical() {
        let prog = prog();
        for world in [World::Closed, World::Open] {
            for level in Level::ALL {
                let tbaa = Arc::new(Tbaa::build(&prog, level, world));
                let serial = CompiledAliasEngine::compile(&prog, tbaa.clone());
                for workers in [2, 3, 8] {
                    let par = CompiledAliasEngine::compile_with_options(
                        &prog,
                        tbaa.clone(),
                        DENSE_LIMIT,
                        workers,
                    );
                    assert_eq!(par.dense_n, serial.dense_n);
                    assert_eq!(par.dense_wpr, serial.dense_wpr);
                    assert_eq!(
                        par.dense, serial.dense,
                        "{level}/{world:?} dense matrix diverged at {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn post_compile_ids_fall_back_to_the_oracle() {
        let prog = prog();
        let naive = Tbaa::build(&prog, Level::FieldTypeDecl, World::Closed);
        let engine = CompiledAliasEngine::build(&prog, Level::FieldTypeDecl, World::Closed);
        // Intern a fresh prefix path in a cloned table, as the RLE/DSE
        // kill scans do.
        let mut aps = prog.aps.clone();
        let with_steps = prog
            .aps
            .iter()
            .find(|(_, p)| !p.steps.is_empty())
            .map(|(_, p)| p.clone())
            .expect("some stepped path");
        let parent = with_steps.parent().unwrap();
        let fresh = aps.intern(parent);
        for (old, _) in prog.aps.iter() {
            assert_eq!(
                engine.may_alias(&aps, fresh, old),
                naive.may_alias(&aps, fresh, old),
                "fallback {fresh:?} vs {old:?}"
            );
        }
        assert!(engine.stats().fallbacks > 0);
    }

    #[test]
    fn stats_track_memo_traffic_in_the_lazy_regime() {
        let prog = prog();
        let tbaa = Arc::new(Tbaa::build(&prog, Level::FieldTypeDecl, World::Closed));
        let engine = CompiledAliasEngine::compile_with_dense_limit(&prog, tbaa, 0);
        let ids: Vec<ApId> = prog.aps.iter().map(|(id, _)| id).collect();
        let (a, b) = (ids[0], ids[1]);
        engine.may_alias(&prog.aps, a, b);
        engine.may_alias(&prog.aps, b, a); // symmetric key → memo hit
        let s = engine.stats();
        assert_eq!(s.dense_pairs, 0, "limit 0 forces the lazy regime");
        assert_eq!(s.queries, 2);
        assert_eq!(s.memo_misses, 1);
        assert_eq!(s.memo_hits, 1);
        assert_eq!(s.memo_len, 1);
        assert!(s.nodes > 0);
    }

    #[test]
    fn dense_regime_precomputes_every_pair() {
        let prog = prog();
        let engine = CompiledAliasEngine::build(&prog, Level::FieldTypeDecl, World::Closed);
        let ids: Vec<ApId> = prog.aps.iter().map(|(id, _)| id).collect();
        for &a in &ids {
            for &b in &ids {
                engine.may_alias(&prog.aps, a, b);
            }
        }
        let s = engine.stats();
        let n = ids.len() as u64;
        assert_eq!(s.dense_pairs, n * (n + 1) / 2);
        assert_eq!(s.queries, 0, "dense lookups are uninstrumented");
        assert_eq!(s.memo_len, 0, "dense regime never touches the memo");
        assert_eq!(s.fallbacks, 0);
    }
}
