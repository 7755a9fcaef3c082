//! Access-path copy propagation.
//!
//! The paper's optimizer "does not do copy propagation", which is why some
//! dynamically redundant loads survive RLE — the *Breakup* category of
//! Figure 10: a redundant expression made of multiple smaller expressions,
//! e.g.
//!
//! ```text
//! t := a.b;        (* t names the value of path a.b *)
//! x := t^.c;       (* path t^.c      *)
//! y := a.b^.c;     (* path a.b^.c — textually different, same location *)
//! ```
//!
//! This pass canonicalizes such chains: when a register-class local `t`
//! has exactly one definition `t := <value of path P>` (a heap load or a
//! plain variable read), and nothing executed after that definition can
//! modify `P`, every access path rooted at `t` is rewritten to start with
//! `P`. Running RLE afterwards recovers the Breakup loads; the limit
//! study uses this as a shadow pass to attribute remaining redundancy,
//! and the benches use it as an ablation.

use crate::modref::ModRef;
use std::collections::{HashMap, HashSet};
use tbaa::analysis::AliasAnalysis;
use tbaa_ir::cfg::Cfg;
use tbaa_ir::ir::{BlockId, Instr, Operand, Program, SlotBase, VarClass};
use tbaa_ir::path::{AccessPath, ApId, ApRoot, FuncId, VarId};

/// A copy variable being considered: a local of the current function or a
/// module-level global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CandVar {
    Local(VarId),
    Global(mini_m3::check::GlobalId),
}

/// Rewrites copy-chain access paths; returns how many path occurrences
/// changed.
pub fn propagate_access_paths(prog: &mut Program, analysis: &dyn AliasAnalysis) -> usize {
    let modref = ModRef::build(prog);
    let mut total = 0;
    for i in 0..prog.funcs.len() {
        let fid = FuncId(i as u32);
        // Fixpoint: each rewrite may expose further chains.
        for _round in 0..8 {
            let Some((var, base)) = find_candidate(prog, fid, analysis, &modref) else {
                break;
            };
            let n = rewrite_var_roots(prog, fid, var, &base);
            total += n;
            if n == 0 {
                break;
            }
        }
    }
    total
}

/// The defining path of a candidate copy.
#[derive(Debug, Clone)]
enum BaseDef {
    /// `v := load P` for a canonical heap path `P`.
    Heap(AccessPath),
    /// `v := w` for a stable local/global variable.
    Var(ApRoot, mini_m3::types::TypeId),
}

fn find_candidate(
    prog: &Program,
    fid: FuncId,
    analysis: &dyn AliasAnalysis,
    modref: &ModRef,
) -> Option<(CandVar, AccessPath)> {
    let func = prog.func(fid);
    let cfg = Cfg::new(func);

    // Definition census over this function.
    let mut store_count: HashMap<CandVar, usize> = HashMap::new();
    let mut store_site: HashMap<CandVar, (BlockId, usize, Operand)> = HashMap::new();
    let mut reg_defs: HashMap<u32, usize> = HashMap::new();
    let mut load_def: HashMap<u32, ApId> = HashMap::new();
    let mut slot_def: HashMap<u32, SlotBase> = HashMap::new();
    for (bi, b) in func.blocks.iter().enumerate() {
        for (ii, instr) in b.instrs.iter().enumerate() {
            if let Some(d) = instr.dst() {
                *reg_defs.entry(d.0).or_insert(0) += 1;
            }
            match instr {
                Instr::StoreSlot { addr, src } => {
                    let cv = match addr.base {
                        SlotBase::Local(v) => CandVar::Local(v),
                        SlotBase::Global(g) => CandVar::Global(g),
                    };
                    let w = if addr.is_simple() { 1 } else { 10 };
                    *store_count.entry(cv).or_insert(0) += w;
                    store_site.insert(cv, (BlockId(bi as u32), ii, *src));
                }
                Instr::LoadMem {
                    dst,
                    ap,
                    hidden: false,
                    ..
                } => {
                    load_def.insert(dst.0, *ap);
                }
                Instr::LoadSlot { dst, addr } if addr.is_simple() => {
                    slot_def.insert(dst.0, addr.base);
                }
                _ => {}
            }
        }
    }

    // Candidate variables in a deterministic order.
    let mut vars: Vec<CandVar> = store_count
        .iter()
        .filter(|&(_, &c)| c == 1)
        .map(|(&v, _)| v)
        .collect();
    vars.sort_by_key(|c| match c {
        CandVar::Local(v) => (0, v.0),
        CandVar::Global(g) => (1, g.0),
    });
    'vars: for v in vars {
        match v {
            CandVar::Local(lv) => {
                if lv.0 < func.n_params || func.vars[lv.0 as usize].class != VarClass::Register {
                    continue;
                }
            }
            CandVar::Global(g) => {
                // A global is a safe copy only if this is its sole store in
                // the whole program and its address is never taken.
                if !global_is_private_here(prog, fid, g) {
                    continue;
                }
            }
        }
        let (def_block, def_idx, src) = store_site[&v];
        let Operand::Reg(r) = src else { continue };
        if reg_defs.get(&r.0) != Some(&1) {
            continue;
        }
        // What does the copy bind v to?
        let self_rooted = |root: &ApRoot| match (root, v) {
            (ApRoot::Local { var, .. }, CandVar::Local(lv)) => *var == lv,
            (ApRoot::Global(g), CandVar::Global(gv)) => *g == gv,
            _ => false,
        };
        let base: BaseDef = if let Some(&ap) = load_def.get(&r.0) {
            let p = prog.aps.path(ap);
            if !p.is_canonical() {
                continue;
            }
            if self_rooted(&p.root) {
                continue; // self-rooted: would not terminate
            }
            BaseDef::Heap(p.clone())
        } else if let Some(&sb) = slot_def.get(&r.0) {
            match sb {
                SlotBase::Local(w) => {
                    // w must be stable after the def: at most one store and
                    // register class.
                    if v == CandVar::Local(w)
                        || func.vars[w.0 as usize].class != VarClass::Register
                        || store_count.get(&CandVar::Local(w)).copied().unwrap_or(0) > 1
                        || (w.0 < func.n_params
                            && func.param_modes.get(w.0 as usize)
                                == Some(&mini_m3::types::ParamMode::Var))
                    {
                        continue;
                    }
                    // Reject if w is stored anywhere reachable after the def.
                    if store_reaches_after(prog, fid, &cfg, def_block, def_idx, |i| {
                        matches!(i, Instr::StoreSlot { addr, .. }
                            if matches!(addr.base, SlotBase::Local(x) if x == w))
                    }) {
                        continue;
                    }
                    BaseDef::Var(
                        ApRoot::Local { func: fid, var: w },
                        func.vars[w.0 as usize].ty,
                    )
                }
                SlotBase::Global(g) => {
                    // Globals may be written by calls; require no stores,
                    // no calls after the def.
                    if v == CandVar::Global(g)
                        || store_reaches_after(prog, fid, &cfg, def_block, def_idx, |i| {
                            matches!(i, Instr::StoreSlot { addr, .. }
                            if matches!(addr.base, SlotBase::Global(x) if x == g))
                                || matches!(
                                    i,
                                    Instr::Call { .. }
                                        | Instr::CallMethod { .. }
                                        | Instr::StoreInd { .. }
                                )
                        })
                    {
                        continue;
                    }
                    BaseDef::Var(ApRoot::Global(g), prog.globals[g.0 as usize].ty)
                }
            }
        } else {
            continue;
        };

        // For heap bases, nothing executed after the def may modify P.
        if let BaseDef::Heap(p) = &base {
            let prefix_ids = structural_prefix_ids(prog, p);
            let killed = store_reaches_after(prog, fid, &cfg, def_block, def_idx, |i| {
                instr_may_modify(prog, i, &prefix_ids, analysis, modref)
            });
            if killed {
                continue 'vars;
            }
        }

        // The rewrite must make progress: some path roots at v.
        let base_path = match &base {
            BaseDef::Heap(p) => p.clone(),
            BaseDef::Var(root, ty) => AccessPath {
                root: *root,
                root_ty: *ty,
                steps: vec![],
            },
        };
        let progresses = func_aps(prog, fid).into_iter().any(|ap| {
            let p = prog.aps.path(ap);
            if p.steps.is_empty() {
                return false;
            }
            match (&p.root, v) {
                (ApRoot::Local { func: f, var }, CandVar::Local(lv)) => *f == fid && *var == lv,
                (ApRoot::Global(g), CandVar::Global(gv)) => *g == gv,
                _ => false,
            }
        });
        if progresses {
            return Some((v, base_path));
        }
    }
    None
}

/// Whether global `g` is stored exactly once program-wide (in function
/// `fid`) and never has its address taken.
fn global_is_private_here(prog: &Program, fid: FuncId, g: mini_m3::check::GlobalId) -> bool {
    let mut stores_elsewhere = 0usize;
    for (i, f) in prog.funcs.iter().enumerate() {
        for b in &f.blocks {
            for instr in &b.instrs {
                match instr {
                    Instr::StoreSlot { addr, .. }
                        if matches!(addr.base, SlotBase::Global(x) if x == g)
                            && i as u32 != fid.0 =>
                    {
                        stores_elsewhere += 1;
                    }
                    Instr::TakeAddrSlot { addr, .. } if matches!(addr.base, SlotBase::Global(x) if x == g) =>
                    {
                        return false;
                    }
                    _ => {}
                }
            }
        }
    }
    stores_elsewhere == 0
}

/// Whether any instruction satisfying `pred` can execute after position
/// `(def_block, def_idx)` (flow-insensitively over reachability, including
/// loops back to the defining block).
fn store_reaches_after(
    prog: &Program,
    fid: FuncId,
    cfg: &Cfg,
    def_block: BlockId,
    def_idx: usize,
    pred: impl Fn(&Instr) -> bool,
) -> bool {
    let func = prog.func(fid);
    // Blocks reachable from def_block's successors.
    let mut reach: HashSet<BlockId> = HashSet::new();
    let mut stack: Vec<BlockId> = cfg.succs[def_block.0 as usize].clone();
    while let Some(b) = stack.pop() {
        if reach.insert(b) {
            stack.extend(cfg.succs[b.0 as usize].iter().copied());
        }
    }
    // Rest of the defining block always executes after.
    for instr in func.blocks[def_block.0 as usize]
        .instrs
        .iter()
        .skip(def_idx + 1)
    {
        if pred(instr) {
            return true;
        }
    }
    for &b in &reach {
        for instr in &func.blocks[b.0 as usize].instrs {
            if pred(instr) {
                return true;
            }
        }
    }
    false
}

/// The interned ids of every structural prefix of `path` present in the
/// table (lowering interns each step, so they all exist).
fn structural_prefix_ids(prog: &Program, path: &AccessPath) -> Vec<ApId> {
    let mut out = Vec::new();
    for (id, p) in prog.aps.iter() {
        if p.root == path.root
            && !p.steps.is_empty()
            && p.steps.len() <= path.steps.len()
            && p.steps[..] == path.steps[..p.steps.len()]
        {
            out.push(id);
        }
    }
    out
}

fn instr_may_modify(
    prog: &Program,
    instr: &Instr,
    prefix_ids: &[ApId],
    analysis: &dyn AliasAnalysis,
    modref: &ModRef,
) -> bool {
    match instr {
        Instr::StoreMem { ap, .. } => prefix_ids
            .iter()
            .any(|&p| analysis.may_alias(&prog.aps, *ap, p)),
        Instr::StoreInd { .. } => prefix_ids
            .iter()
            .any(|&p| analysis.wild_may_modify(&prog.aps, p)),
        Instr::StoreSlot { addr, .. } => {
            // Root or index variables of the base path may change.
            prefix_ids.iter().any(|&pid| {
                let p = prog.aps.path(pid);
                match addr.base {
                    SlotBase::Local(w) => p.mentions_var(w),
                    SlotBase::Global(g) => p.mentions_global(g),
                }
            })
        }
        Instr::Call { addr_aps, .. } | Instr::CallMethod { addr_aps, .. } => {
            modref.callees(instr).any(|s| {
                (s.wild_store
                    && prefix_ids
                        .iter()
                        .any(|&p| analysis.wild_may_modify(&prog.aps, p)))
                    || s.stores.iter().any(|&st| {
                        prefix_ids
                            .iter()
                            .any(|&p| analysis.may_alias(&prog.aps, st, p))
                    })
                    || s.stored_globals.iter().any(|&g| {
                        prefix_ids
                            .iter()
                            .any(|&p| prog.aps.path(p).mentions_global(g))
                    })
            }) || addr_aps.iter().any(|&a| {
                prefix_ids
                    .iter()
                    .any(|&p| analysis.may_alias(&prog.aps, a, p))
            })
        }
        _ => false,
    }
}

/// All distinct APs mentioned in a function's heap instructions.
fn func_aps(prog: &Program, fid: FuncId) -> Vec<ApId> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    for b in &prog.func(fid).blocks {
        for instr in &b.instrs {
            let ap = match instr {
                Instr::LoadMem { ap, .. }
                | Instr::StoreMem { ap, .. }
                | Instr::TakeAddrMem { ap, .. } => Some(*ap),
                _ => None,
            };
            if let Some(ap) = ap {
                if seen.insert(ap) {
                    out.push(ap);
                }
            }
        }
    }
    out
}

/// Rewrites every AP rooted at `var` to start with `base` instead.
fn rewrite_var_roots(prog: &mut Program, fid: FuncId, var: CandVar, base: &AccessPath) -> usize {
    let mut map: HashMap<ApId, ApId> = HashMap::new();
    for ap in func_aps(prog, fid) {
        let p = prog.aps.path(ap).clone();
        let rooted = match (&p.root, var) {
            (ApRoot::Local { func: f, var: v }, CandVar::Local(lv)) => *f == fid && *v == lv,
            (ApRoot::Global(g), CandVar::Global(gv)) => *g == gv,
            _ => false,
        };
        if !rooted || p.steps.is_empty() {
            continue;
        }
        let mut np = base.clone();
        np.steps.extend(p.steps.iter().cloned());
        let nid = prog.aps.intern(np);
        map.insert(ap, nid);
    }
    if map.is_empty() {
        return 0;
    }
    let mut count = 0;
    let func = prog.func_mut(fid);
    for b in &mut func.blocks {
        for instr in &mut b.instrs {
            let slots: Vec<&mut ApId> = match instr {
                Instr::LoadMem { ap, .. }
                | Instr::StoreMem { ap, .. }
                | Instr::TakeAddrMem { ap, .. } => vec![ap],
                Instr::Call { addr_aps, .. } | Instr::CallMethod { addr_aps, .. } => {
                    addr_aps.iter_mut().collect()
                }
                _ => vec![],
            };
            for slot in slots {
                if let Some(&n) = map.get(slot) {
                    *slot = n;
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbaa::analysis::{Level, Tbaa};
    use tbaa::World;
    use tbaa_ir::compile_to_ir;

    #[test]
    fn breakup_chain_is_canonicalized_and_then_eliminated() {
        let src = "MODULE M;
             TYPE T = OBJECT c: INTEGER; END;
                  B = OBJECT t: T; END;
             VAR b: B; tv: T; x, y: INTEGER;
             BEGIN
               b := NEW(B); b.t := NEW(T);
               tv := b.t;          (* the copy RLE alone cannot see through *)
               x := tv.c;
               y := b.t.c;         (* same location as tv.c *)
             END M.";
        // Without copy propagation, RLE misses the tv.c / b.t.c pair.
        let mut p1 = compile_to_ir(src).unwrap();
        let a1 = Tbaa::build(&p1, Level::SmFieldTypeRefs, World::Closed);
        let s1 = crate::rle::run_rle(&mut p1, &a1);
        // With copy propagation, the pair unifies.
        let mut p2 = compile_to_ir(src).unwrap();
        let a2 = Tbaa::build(&p2, Level::SmFieldTypeRefs, World::Closed);
        let n = propagate_access_paths(&mut p2, &a2);
        assert!(n > 0, "some paths rewritten");
        let s2 = crate::rle::run_rle(&mut p2, &a2);
        assert!(
            s2.eliminated > s1.eliminated,
            "copy prop exposes the Breakup load: {s1:?} vs {s2:?}"
        );
    }

    #[test]
    fn no_rewrite_when_base_changes_after_copy() {
        let src = "MODULE M;
             TYPE T = OBJECT c: INTEGER; END;
                  B = OBJECT t: T; END;
             VAR b: B; tv: T; x, y: INTEGER;
             BEGIN
               b := NEW(B); b.t := NEW(T);
               tv := b.t;
               b.t := NEW(T);      (* the base path changes after the copy *)
               x := tv.c;
               y := b.t.c;
             END M.";
        let mut p = compile_to_ir(src).unwrap();
        let a = Tbaa::build(&p, Level::SmFieldTypeRefs, World::Closed);
        let before: Vec<_> = p.heap_ref_sites();
        let n = propagate_access_paths(&mut p, &a);
        let after: Vec<_> = p.heap_ref_sites();
        assert_eq!(n, 0, "unsafe to rewrite tv");
        assert_eq!(before, after);
    }

    #[test]
    fn var_to_var_copy_is_propagated() {
        let src = "MODULE M;
             TYPE T = OBJECT c: INTEGER; END;
             PROCEDURE Get (p: T): INTEGER =
             VAR q: T;
             BEGIN
               q := p;
               RETURN q.c + p.c;   (* q.c and p.c are the same path *)
             END Get;
             VAR t: T; x: INTEGER;
             BEGIN t := NEW(T); t.c := 1; x := Get(t); END M.";
        let mut p = compile_to_ir(src).unwrap();
        let a = Tbaa::build(&p, Level::SmFieldTypeRefs, World::Closed);
        let n = propagate_access_paths(&mut p, &a);
        assert!(n > 0, "q-rooted path rewritten to p");
        let s = crate::rle::run_rle(&mut p, &a);
        assert!(s.eliminated >= 1, "p.c reuse found: {s:?}");
    }
}
