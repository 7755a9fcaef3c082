//! Splitting a checked module into hashable compilation units.
//!
//! A *unit* is one function's worth of source: the procedure header, its
//! local declarations, and its body (the module body is the `<main>`
//! unit). Lowering a unit detached reads one kind of context besides the
//! unit's own text: **header state** — the type table, global/const
//! declarations, the procedure signature list (call resolution is by
//! index), and the method-implementation map. Any change here can change
//! what *any* unit lowers to, so it is hashed once per module and is the
//! second half of every unit's cache key (see [`crate::IncrCompiler`]).
//! The module-shared intern tables and fresh-id counters are not context:
//! a detached unit numbers its ids locally, and absorbing it rebases them.
//!
//! Unit boundaries are *positional slices* of the source: unit `i` spans
//! from its procedure header to the next procedure's header (or the
//! module body), so every byte of the module is covered by exactly one
//! unit or the header. Over-inclusion (e.g. a TYPE decl between two
//! procedures landing in the preceding unit's slice) is conservative:
//! it can only cause a spurious miss, never a wrong hit.

use crate::hash::FnvHasher;
use mini_m3::check::{CheckedModule, VarKind};
use mini_m3::types::ParamMode;
use std::hash::Hasher;

/// Content hashes for one checked module: the shared header and one hash
/// per function, indexed like `checked.procs` (`<main>` included).
#[derive(Debug, Clone)]
pub struct UnitHashes {
    /// Hash of everything lowering reads that is not one function's text.
    pub header: u64,
    /// Per-function unit hashes, in `checked.procs` order.
    pub units: Vec<u64>,
}

/// Computes the header and per-unit hashes for `checked` + its source.
pub fn unit_hashes(checked: &CheckedModule, source: &str) -> UnitHashes {
    let n_ast = checked.ast.procs.len();
    let src_len = source.len();

    // Where the module body begins: the first body statement, or end of
    // source for an empty body. Everything from a procedure's header to
    // the next anchor belongs to that procedure's unit.
    let main_start = checked
        .ast
        .body
        .first()
        .map(|&s| checked.ast.stmt_span(s).start as usize)
        .unwrap_or(src_len)
        .min(src_len);

    // Procedure slice bounds, in source order.
    let mut order: Vec<usize> = (0..n_ast).collect();
    order.sort_by_key(|&i| checked.ast.procs[i].span.start);
    let mut bounds = vec![(0usize, 0usize); n_ast];
    for (k, &i) in order.iter().enumerate() {
        let start = (checked.ast.procs[i].span.start as usize).min(src_len);
        let end = if k + 1 < n_ast {
            (checked.ast.procs[order[k + 1]].span.start as usize).min(src_len)
        } else {
            main_start
        };
        bounds[i] = (start, end.max(start));
    }

    let units = (0..checked.procs.len())
        .map(|p| {
            let mut h = FnvHasher::new();
            h.write_u32(p as u32);
            if p == checked.main.0 as usize {
                // The module body, through the end of the source (the
                // `END Name.` trailer is re-parsed anyway; including it
                // costs nothing).
                h.write_str("<main>");
                h.write_str(&source[main_start..]);
            } else {
                h.write_str(&checked.procs[p].name);
                let (s, e) = bounds[p];
                h.write_str(&source[s..e]);
            }
            h.finish()
        })
        .collect();

    UnitHashes {
        header: header_hash(checked, source),
        units,
    }
}

/// Hashes the module-level context every unit's lowering depends on.
fn header_hash(checked: &CheckedModule, source: &str) -> u64 {
    let slice = |span: mini_m3::span::Span| {
        let s = (span.start as usize).min(source.len());
        let e = (span.end as usize).min(source.len()).max(s);
        &source[s..e]
    };
    let mut h = FnvHasher::new();

    // The entire type table, structurally. Anonymous types declared in
    // procedure locals get interleaved TypeIds, so the id↔structure
    // mapping — not just module-level TYPE decls — must match for cached
    // ids to stay meaningful.
    h.write_u64(checked.types.len() as u64);
    for id in checked.types.iter() {
        h.write_str(&format!("{:?}", checked.types.kind(id)));
    }

    // Globals: layout order, name, type, and the full declaration text —
    // initializer expressions live before the main-body anchor but lower
    // into `<main>`, so their text must participate here.
    h.write_u64(checked.globals.len() as u64);
    for g in &checked.globals {
        h.write_str(&g.name);
        h.write_u32(g.ty.0);
    }
    for d in &checked.ast.globals {
        h.write_str(slice(d.span));
    }

    // Constant declarations by source text: constant *values* are folded
    // into use sites at lowering time without appearing in unit slices.
    h.write_u64(checked.ast.consts.len() as u64);
    for c in &checked.ast.consts {
        h.write_str(slice(c.span));
    }

    // Procedure signatures, in index order: calls resolve to indices and
    // read the callee's parameter modes/types and return type, and
    // `FuncId`s are embedded in cached bodies — any reordering or
    // signature change must invalidate everything.
    h.write_u64(checked.procs.len() as u64);
    h.write_u32(checked.main.0);
    for p in &checked.procs {
        h.write_str(&p.name);
        h.write_u32(p.n_params);
        h.write_u32(p.ret.map(|t| t.0 + 1).unwrap_or(0));
        for l in p.locals.iter().take(p.n_params as usize) {
            h.write_u32(l.ty.0);
            h.write_u8(match l.kind {
                VarKind::Param(ParamMode::Var) => 2,
                VarKind::Param(ParamMode::Value) => 1,
                _ => 0,
            });
        }
    }

    // Method implementations (sorted: HashMap iteration order is not
    // deterministic), read during method-call lowering.
    let mut impls: Vec<(u32, &str, u32)> = checked
        .method_impls
        .iter()
        .map(|(&(t, ref m), &p)| (t.0, m.as_str(), p.0))
        .collect();
    impls.sort_unstable();
    h.write_u64(impls.len() as u64);
    for (t, m, p) in impls {
        h.write_u32(t);
        h.write_str(m);
        h.write_u32(p);
    }

    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hashes(src: &str) -> UnitHashes {
        let checked = mini_m3::compile(src).expect("compiles");
        unit_hashes(&checked, src)
    }

    const TWO_PROCS: &str = "MODULE M;
        VAR g: INTEGER;
        PROCEDURE A (): INTEGER = BEGIN RETURN 1 END A;
        PROCEDURE B (): INTEGER = BEGIN RETURN 2 END B;
        BEGIN g := A() + B(); END M.";

    #[test]
    fn stable_across_recompiles() {
        let a = hashes(TWO_PROCS);
        let b = hashes(TWO_PROCS);
        assert_eq!(a.header, b.header);
        assert_eq!(a.units, b.units);
    }

    #[test]
    fn one_function_edit_changes_one_unit() {
        let base = hashes(TWO_PROCS);
        let edited = hashes(&TWO_PROCS.replace("RETURN 2", "RETURN 3"));
        assert_eq!(base.header, edited.header);
        assert_eq!(base.units.len(), edited.units.len());
        let changed: Vec<usize> = (0..base.units.len())
            .filter(|&i| base.units[i] != edited.units[i])
            .collect();
        assert_eq!(changed.len(), 1, "exactly one unit invalidated");
        // Unit 1 is PROCEDURE B.
        assert_eq!(changed, vec![1]);
    }

    #[test]
    fn main_body_edit_changes_only_main_unit() {
        let base = hashes(TWO_PROCS);
        let edited = hashes(&TWO_PROCS.replace("A() + B()", "B() + A()"));
        assert_eq!(base.header, edited.header);
        let main = base.units.len() - 1;
        assert_eq!(base.units[..main], edited.units[..main]);
        assert_ne!(base.units[main], edited.units[main]);
    }

    #[test]
    fn type_change_invalidates_header() {
        let base = hashes(TWO_PROCS);
        let edited = hashes(&TWO_PROCS.replace(
            "VAR g: INTEGER;",
            "TYPE T = OBJECT f: INTEGER; END; VAR g: INTEGER;",
        ));
        assert_ne!(base.header, edited.header);
    }

    #[test]
    fn global_init_edit_invalidates_header() {
        let a = hashes("MODULE M; VAR g: INTEGER := 1; BEGIN g := g END M.");
        let b = hashes("MODULE M; VAR g: INTEGER := 2; BEGIN g := g END M.");
        // The initializer text lives before the first body statement and
        // is covered by the main unit / globals; an init change must not
        // produce identical hashes everywhere.
        assert!(a.header != b.header || a.units != b.units);
    }

    #[test]
    fn const_value_edit_invalidates() {
        let a = hashes("MODULE M; CONST K = 1; VAR g: INTEGER; BEGIN g := K END M.");
        let b = hashes("MODULE M; CONST K = 2; VAR g: INTEGER; BEGIN g := K END M.");
        assert!(a.header != b.header || a.units != b.units);
    }

    #[test]
    fn proc_rename_changes_header() {
        let base = hashes(TWO_PROCS);
        let edited = hashes(
            &TWO_PROCS
                .replace("PROCEDURE B", "PROCEDURE C")
                .replace("END B;", "END C;")
                .replace("B()", "C()"),
        );
        assert_ne!(base.header, edited.header);
    }
}
