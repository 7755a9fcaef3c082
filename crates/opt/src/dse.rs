//! Dead store elimination — a second client of the alias analysis.
//!
//! The paper notes that "RLE is just one of many optimizations that
//! benefits from alias analysis"; DSE is the natural dual. A heap store
//! is dead when, on **every** path forward, the same access path is
//! stored again before anything that might *read* the location:
//!
//! * overwrite detection uses *path identity* (the only must-alias
//!   relation the type-based framework offers);
//! * read detection uses the alias analysis's may-alias (any load,
//!   callee summary load, indirect load through a VAR location, or
//!   function return kills deadness);
//! * an assignment to a root or index variable of a pending path stops
//!   the overwrite from counting (it would target a different location).
//!
//! This is a backward all-paths dataflow over the same interned path
//! universe RLE uses.

use crate::modref::ModRef;
use crate::rle::{build_ctx, Avail, KillCtx, Meet};
use std::collections::HashMap;
use tbaa::analysis::AliasAnalysis;
use tbaa_ir::cfg::Cfg;
use tbaa_ir::ir::{BlockId, Instr, Program, SlotBase};
use tbaa_ir::path::FuncId;

/// What DSE did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DseStats {
    /// Heap stores removed.
    pub removed: usize,
}

/// Runs dead store elimination over every function.
///
/// # Examples
///
/// ```
/// use tbaa::analysis::{Level, Tbaa};
/// use tbaa::World;
///
/// let mut prog = tbaa_ir::compile_to_ir(
///     "MODULE M;
///      TYPE T = OBJECT f: INTEGER; END;
///      VAR t: T; x: INTEGER;
///      BEGIN t := NEW(T); t.f := 1; t.f := 2; x := t.f; END M.")?;
/// let analysis = Tbaa::build(&prog, Level::SmFieldTypeRefs, World::Closed);
/// let stats = tbaa_opt::dse::run_dse(&mut prog, &analysis);
/// assert_eq!(stats.removed, 1); // `t.f := 1` was overwritten unread
/// # Ok::<(), mini_m3::Diagnostics>(())
/// ```
pub fn run_dse(prog: &mut Program, analysis: &dyn AliasAnalysis) -> DseStats {
    let modref = ModRef::build(prog);
    let mut stats = DseStats::default();
    for i in 0..prog.funcs.len() {
        stats.removed += dse_function(prog, FuncId(i as u32), analysis, &modref);
    }
    stats
}

/// Backward transfer: `dead` holds path indices that will definitely be
/// overwritten before any potential read.
fn transfer_back(instr: &Instr, dead: &mut Avail, ctx: &KillCtx<'_>) {
    match instr {
        Instr::StoreMem { ap, .. } => {
            if let Some(i) = ctx.idx(*ap) {
                dead.set(i);
            }
        }
        // Any may-aliased read revives the location. (Hidden dope loads
        // read the dope slot, which is never stored, but go through the
        // same may-alias test for uniformity.)
        Instr::LoadMem { ap, .. } => dead.clear_where(|i| ctx.analysis_may_alias(*ap, i)),
        Instr::LoadInd { .. } => dead.clear_where(|i| ctx.wild_kills(i)),
        // A root/index variable changes: pending overwrites above this
        // point would hit a different location.
        Instr::StoreSlot { addr, .. } => dead.clear_where(|i| match addr.base {
            SlotBase::Local(v) => ctx.mentions_var(i, v),
            SlotBase::Global(g) => ctx.mentions_global(i, g),
        }),
        // An indirect store may target the same location through an
        // alias; treating it as an overwrite would need must-alias, and it
        // may also be *read* downstream through the location — drop
        // everything addressable.
        Instr::StoreInd { .. } => dead.clear_where(|i| ctx.wild_kills(i)),
        Instr::Call { addr_aps, .. } | Instr::CallMethod { addr_aps, .. } => {
            let callees = ctx.modref.callees(instr);
            dead.clear_where(|i| {
                callees.clone().any(|s| {
                    ((s.wild_load || s.wild_store) && ctx.wild_kills(i))
                        || s.loads.iter().any(|&l| ctx.analysis_may_alias(l, i))
                        // Callee stores are may-stores, not must-overwrites:
                        // they do not make anything dead, and a store the
                        // callee performs may also be to a *different*
                        // object of the same path shape, so conservatively
                        // drop deadness for may-aliased paths too.
                        || s.stores.iter().any(|&st| ctx.analysis_may_alias(st, i))
                })
                // Location values passed by address may be read inside.
                || addr_aps.iter().any(|&a| ctx.analysis_may_alias(a, i))
            });
        }
        _ => {}
    }
}

fn dse_function(
    prog: &mut Program,
    fid: FuncId,
    analysis: &dyn AliasAnalysis,
    modref: &ModRef,
) -> usize {
    let Some(ctx) = build_ctx(prog, fid, analysis, modref) else {
        return 0;
    };
    let n = ctx.n();
    let cfg = Cfg::new(prog.func(fid));
    let nb = prog.func(fid).blocks.len();
    // OUT of a block: empty at an exit, else the intersection of its
    // successors' IN.
    let out_of = |ins: &[Avail], bi: usize| {
        let succs = &cfg.succs[bi];
        if succs.is_empty() {
            return Avail::empty(n);
        }
        let mut acc = Avail::universal(n);
        for &s in succs {
            acc.meet(&ins[s.0 as usize], Meet::Must);
        }
        acc
    };

    // Backward dataflow: unknown blocks start universal.
    let mut ins: Vec<Avail> = (0..nb).map(|_| Avail::universal(n)).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo.iter().rev() {
            let bi = b.0 as usize;
            let mut dead = out_of(&ins, bi);
            for instr in prog.func(fid).blocks[bi].instrs.iter().rev() {
                transfer_back(instr, &mut dead, &ctx);
            }
            if dead != ins[bi] {
                ins[bi] = dead;
                changed = true;
            }
        }
    }

    // Identify dead stores: re-walk each block backward with the
    // converged successor state.
    let mut dead_sites: Vec<(BlockId, usize)> = Vec::new();
    for &b in &cfg.rpo {
        let bi = b.0 as usize;
        let mut dead = out_of(&ins, bi);
        for (ii, instr) in prog.func(fid).blocks[bi].instrs.iter().enumerate().rev() {
            if let Instr::StoreMem { ap, .. } = instr {
                if let Some(i) = ctx.idx(*ap) {
                    if dead.contains(i) {
                        dead_sites.push((b, ii));
                    }
                }
            }
            transfer_back(instr, &mut dead, &ctx);
        }
    }

    let count = dead_sites.len();
    let func = prog.func_mut(fid);
    let mut by_block: HashMap<BlockId, Vec<usize>> = HashMap::new();
    for (b, i) in dead_sites {
        by_block.entry(b).or_default().push(i);
    }
    for (b, mut idxs) in by_block {
        idxs.sort_unstable();
        for &i in idxs.iter().rev() {
            func.blocks[b.0 as usize].instrs.remove(i);
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbaa::analysis::{Level, Tbaa};
    use tbaa::World;

    fn dse_with(src: &str) -> (Program, DseStats) {
        let mut p = tbaa_ir::compile_to_ir(src).unwrap();
        let a = Tbaa::build(&p, Level::SmFieldTypeRefs, World::Closed);
        let stats = run_dse(&mut p, &a);
        (p, stats)
    }

    fn count_heap_stores(p: &Program) -> usize {
        p.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.instrs.iter())
            .filter(|i| matches!(i, Instr::StoreMem { .. }))
            .count()
    }

    #[test]
    fn overwritten_store_is_removed() {
        let (p, stats) = dse_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; x: INTEGER;
             BEGIN
               t := NEW(T);
               t.f := 1;      (* dead: overwritten before any read *)
               t.f := 2;
               x := t.f;
             END M.",
        );
        assert_eq!(stats.removed, 1);
        assert_eq!(count_heap_stores(&p), 1);
    }

    #[test]
    fn read_between_keeps_store() {
        let (_, stats) = dse_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; x: INTEGER;
             BEGIN
               t := NEW(T);
               t.f := 1;
               x := t.f;      (* read revives *)
               t.f := 2;
             END M.",
        );
        assert_eq!(stats.removed, 0);
    }

    #[test]
    fn may_aliased_read_keeps_store() {
        let (_, stats) = dse_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t, u: T; x: INTEGER;
             BEGIN
               t := NEW(T); u := NEW(T);
               t := u;        (* merge: u.f may read t's cell *)
               t.f := 1;
               x := u.f;
               t.f := 2;
             END M.",
        );
        assert_eq!(stats.removed, 0);
    }

    #[test]
    fn root_change_between_stores_keeps_first() {
        let (_, stats) = dse_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T;
             BEGIN
               t := NEW(T);
               t.f := 1;      (* NOT dead: t changes, second store hits a
                                 different object; the first object might
                                 still be reachable elsewhere *)
               t := NEW(T);
               t.f := 2;
             END M.",
        );
        assert_eq!(stats.removed, 0);
    }

    #[test]
    fn call_reading_field_keeps_store() {
        let (_, stats) = dse_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Peek (t: T): INTEGER = BEGIN RETURN t.f END Peek;
             VAR t: T; x: INTEGER;
             BEGIN
               t := NEW(T);
               t.f := 1;
               x := Peek(t);
               t.f := 2;
             END M.",
        );
        assert_eq!(stats.removed, 0);
    }

    #[test]
    fn conditional_overwrite_not_dead() {
        let (_, stats) = dse_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; c: BOOLEAN;
             BEGIN
               t := NEW(T);
               t.f := 1;      (* only one path overwrites: live *)
               IF c THEN t.f := 2 END;
             END M.",
        );
        assert_eq!(stats.removed, 0);
    }

    #[test]
    fn store_before_return_is_live() {
        // The object may be observed by the caller or later code.
        let (_, stats) = dse_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Mk (): T =
             VAR t: T;
             BEGIN t := NEW(T); t.f := 7; RETURN t END Mk;
             VAR g: T; x: INTEGER;
             BEGIN g := Mk(); x := g.f; END M.",
        );
        assert_eq!(stats.removed, 0);
    }

    #[test]
    fn precision_depends_on_analysis_level() {
        // Under TypeDecl the intervening load of u.g may alias t.f
        // (both INTEGER); FieldTypeDecl knows better and kills the store.
        let src = "MODULE M;
             TYPE T = OBJECT f, g: INTEGER; END;
             VAR t, u: T; x: INTEGER;
             BEGIN
               t := NEW(T); u := NEW(T);
               t.f := 1;
               x := u.g;
               t.f := 2;
               x := x + t.f;
             END M.";
        let mut p1 = tbaa_ir::compile_to_ir(src).unwrap();
        let td = Tbaa::build(&p1, Level::TypeDecl, World::Closed);
        let s1 = run_dse(&mut p1, &td);
        let mut p2 = tbaa_ir::compile_to_ir(src).unwrap();
        let ftd = Tbaa::build(&p2, Level::FieldTypeDecl, World::Closed);
        let s2 = run_dse(&mut p2, &ftd);
        assert_eq!(s1.removed, 0, "TypeDecl cannot prove the store dead");
        assert_eq!(s2.removed, 1, "FieldTypeDecl can");
    }
}
