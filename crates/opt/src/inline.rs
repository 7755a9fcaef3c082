//! Procedure inlining (the second half of Figure 11's Minv+Inlining).
//!
//! Direct calls to small, non-(mutually-)recursive procedures are spliced
//! into the caller: callee blocks, registers, and frame slots are
//! renumbered, parameters become slot stores, and returns become jumps to
//! a continuation block. Access paths rooted at callee locals are
//! re-interned with their new roots so the alias analyses and RLE keep
//! working on inlined code.

use std::collections::{HashMap, HashSet};
use tbaa_ir::ir::{
    Block, BlockId, Instr, MemAddr, Operand, Program, Reg, SlotAddr, SlotBase, Terminator,
};
use tbaa_ir::path::{ApId, ApIndex, ApRoot, ApTable, FuncId, VarId};

/// What inlining did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InlineStats {
    /// Call sites inlined.
    pub inlined: usize,
}

/// Inlines direct calls whose callee has at most `max_callee_instrs`
/// instructions. Runs until no more sites qualify (growth is bounded by
/// `max_caller_instrs`).
pub fn inline_small(
    prog: &mut Program,
    max_callee_instrs: usize,
    max_caller_instrs: usize,
) -> InlineStats {
    let mut stats = InlineStats::default();
    for caller_idx in 0..prog.funcs.len() {
        let caller = FuncId(caller_idx as u32);
        // Bounded rescanning: inlined bodies may contain further calls.
        for _round in 0..32 {
            let Some((b, i, callee)) =
                find_site(prog, caller, max_callee_instrs, max_caller_instrs)
            else {
                break;
            };
            inline_site(prog, caller, b, i, callee);
            stats.inlined += 1;
        }
    }
    stats
}

fn find_site(
    prog: &Program,
    caller: FuncId,
    max_callee: usize,
    max_caller: usize,
) -> Option<(BlockId, usize, FuncId)> {
    let f = prog.func(caller);
    if f.instr_count() > max_caller {
        return None;
    }
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, instr) in b.instrs.iter().enumerate() {
            if let Instr::Call { func, .. } = instr {
                let callee = *func;
                if callee == caller {
                    continue;
                }
                if prog.func(callee).instr_count() > max_callee {
                    continue;
                }
                if reaches(prog, callee, caller) || reaches(prog, callee, callee) {
                    continue; // recursion: inlining would never terminate
                }
                return Some((BlockId(bi as u32), ii, callee));
            }
        }
    }
    None
}

/// Whether `from`'s body can (transitively) call `to`. `from == to` is
/// not trivially true: it holds only if `from` is actually recursive.
fn reaches(prog: &Program, from: FuncId, to: FuncId) -> bool {
    let mut seen = HashSet::new();
    let mut stack = vec![(from, true)];
    while let Some((f, is_start)) = stack.pop() {
        if f == to && !is_start {
            return true;
        }
        if !seen.insert(f) && !is_start {
            continue;
        }
        for b in &prog.func(f).blocks {
            for instr in &b.instrs {
                match instr {
                    Instr::Call { func, .. } => stack.push((*func, false)),
                    Instr::CallMethod {
                        method, recv_ty, ..
                    } => {
                        stack.extend(
                            prog.method_targets(*recv_ty, method)
                                .into_iter()
                                .map(|t| (t, false)),
                        );
                    }
                    _ => {}
                }
            }
        }
    }
    false
}

struct Remap {
    reg_off: u32,
    var_off: u32,
    block_off: u32,
    ap_map: HashMap<ApId, ApId>,
}

impl Remap {
    fn reg(&self, r: Reg) -> Reg {
        Reg(r.0 + self.reg_off)
    }
    fn op(&self, o: Operand) -> Operand {
        match o {
            Operand::Reg(r) => Operand::Reg(self.reg(r)),
            other => other,
        }
    }
    fn var(&self, v: VarId) -> VarId {
        VarId(v.0 + self.var_off)
    }
    fn slot_base(&self, b: SlotBase) -> SlotBase {
        match b {
            SlotBase::Local(v) => SlotBase::Local(self.var(v)),
            g => g,
        }
    }
    fn slot_addr(&self, a: &SlotAddr) -> SlotAddr {
        SlotAddr {
            base: self.slot_base(a.base),
            offset: a.offset,
            indices: a
                .indices
                .iter()
                .map(|(o, lo, s)| (self.op(*o), *lo, *s))
                .collect(),
        }
    }
    fn mem_addr(&self, a: &MemAddr) -> MemAddr {
        MemAddr {
            base: self.op(a.base),
            offset: a.offset,
            indices: a
                .indices
                .iter()
                .map(|(o, lo, s)| (self.op(*o), *lo, *s))
                .collect(),
        }
    }
    fn block(&self, b: BlockId) -> BlockId {
        BlockId(b.0 + self.block_off)
    }
    fn ap(&self, a: ApId) -> ApId {
        *self.ap_map.get(&a).unwrap_or(&a)
    }
}

/// Builds the AP remapping for every path rooted in the callee's frame.
fn build_ap_map(
    aps: &mut ApTable,
    callee_body_aps: &[ApId],
    callee: FuncId,
    caller: FuncId,
    var_off: u32,
) -> HashMap<ApId, ApId> {
    fn remap_index(idx: &ApIndex, callee: FuncId, var_off: u32) -> ApIndex {
        let _ = callee;
        match idx {
            ApIndex::Var(v) => ApIndex::Var(VarId(v.0 + var_off)),
            ApIndex::Bin(op, l, r) => ApIndex::Bin(
                *op,
                Box::new(remap_index(l, callee, var_off)),
                Box::new(remap_index(r, callee, var_off)),
            ),
            other => other.clone(),
        }
    }
    let mut map = HashMap::new();
    for &ap in callee_body_aps {
        let mut p = aps.path(ap).clone();
        let mut changed = false;
        if let ApRoot::Local { func, var } = p.root {
            if func == callee {
                p.root = ApRoot::Local {
                    func: caller,
                    var: VarId(var.0 + var_off),
                };
                changed = true;
            }
        }
        for s in &mut p.steps {
            if let tbaa_ir::path::ApStep::Index { index, .. } = s {
                let n = remap_index(index, callee, var_off);
                if *index != n {
                    *index = n;
                    changed = true;
                }
            }
        }
        if changed {
            let nid = aps.intern(p);
            map.insert(ap, nid);
        }
    }
    map
}

fn remap_instr(instr: &Instr, m: &Remap) -> Instr {
    match instr {
        Instr::ConstText { dst, text } => Instr::ConstText {
            dst: m.reg(*dst),
            text: *text,
        },
        Instr::Copy { dst, src } => Instr::Copy {
            dst: m.reg(*dst),
            src: m.op(*src),
        },
        Instr::Un { dst, op, src } => Instr::Un {
            dst: m.reg(*dst),
            op: *op,
            src: m.op(*src),
        },
        Instr::Bin { dst, op, lhs, rhs } => Instr::Bin {
            dst: m.reg(*dst),
            op: *op,
            lhs: m.op(*lhs),
            rhs: m.op(*rhs),
        },
        Instr::LoadSlot { dst, addr } => Instr::LoadSlot {
            dst: m.reg(*dst),
            addr: m.slot_addr(addr),
        },
        Instr::StoreSlot { addr, src } => Instr::StoreSlot {
            addr: m.slot_addr(addr),
            src: m.op(*src),
        },
        Instr::LoadMem {
            dst,
            addr,
            ap,
            hidden,
        } => Instr::LoadMem {
            dst: m.reg(*dst),
            addr: m.mem_addr(addr),
            ap: m.ap(*ap),
            hidden: *hidden,
        },
        Instr::StoreMem { addr, src, ap } => Instr::StoreMem {
            addr: m.mem_addr(addr),
            src: m.op(*src),
            ap: m.ap(*ap),
        },
        Instr::LoadInd { dst, loc } => Instr::LoadInd {
            dst: m.reg(*dst),
            loc: m.op(*loc),
        },
        Instr::StoreInd { loc, src } => Instr::StoreInd {
            loc: m.op(*loc),
            src: m.op(*src),
        },
        Instr::TakeAddrSlot { dst, addr } => Instr::TakeAddrSlot {
            dst: m.reg(*dst),
            addr: m.slot_addr(addr),
        },
        Instr::TakeAddrMem { dst, addr, ap } => Instr::TakeAddrMem {
            dst: m.reg(*dst),
            addr: m.mem_addr(addr),
            ap: m.ap(*ap),
        },
        Instr::New { dst, ty } => Instr::New {
            dst: m.reg(*dst),
            ty: *ty,
        },
        Instr::NewArray { dst, ty, len } => Instr::NewArray {
            dst: m.reg(*dst),
            ty: *ty,
            len: m.op(*len),
        },
        Instr::Call {
            dst,
            func,
            args,
            addr_aps,
            addr_slots,
        } => Instr::Call {
            dst: dst.map(|d| m.reg(d)),
            func: *func,
            args: args.iter().map(|a| m.op(*a)).collect(),
            addr_aps: addr_aps.iter().map(|a| m.ap(*a)).collect(),
            addr_slots: addr_slots.iter().map(|s| m.slot_base(*s)).collect(),
        },
        Instr::CallMethod {
            dst,
            method,
            recv_ty,
            args,
            addr_aps,
            addr_slots,
        } => Instr::CallMethod {
            dst: dst.map(|d| m.reg(d)),
            method: method.clone(),
            recv_ty: *recv_ty,
            args: args.iter().map(|a| m.op(*a)).collect(),
            addr_aps: addr_aps.iter().map(|a| m.ap(*a)).collect(),
            addr_slots: addr_slots.iter().map(|s| m.slot_base(*s)).collect(),
        },
        Instr::Intrinsic { dst, op, args } => Instr::Intrinsic {
            dst: dst.map(|d| m.reg(d)),
            op: *op,
            args: args.iter().map(|a| m.op(*a)).collect(),
        },
        Instr::TypeTest { dst, src, ty } => Instr::TypeTest {
            dst: m.reg(*dst),
            src: m.op(*src),
            ty: *ty,
        },
        Instr::NarrowTo { dst, src, ty } => Instr::NarrowTo {
            dst: m.reg(*dst),
            src: m.op(*src),
            ty: *ty,
        },
    }
}

fn inline_site(prog: &mut Program, caller: FuncId, b: BlockId, idx: usize, callee_id: FuncId) {
    let callee = prog.func(callee_id).clone();
    // Collect every AP mentioned in the callee body.
    let mut callee_aps: Vec<ApId> = Vec::new();
    {
        let mut seen = HashSet::new();
        for blk in &callee.blocks {
            for instr in &blk.instrs {
                let mut push = |ap: ApId| {
                    if seen.insert(ap) {
                        callee_aps.push(ap);
                    }
                };
                match instr {
                    Instr::LoadMem { ap, .. }
                    | Instr::StoreMem { ap, .. }
                    | Instr::TakeAddrMem { ap, .. } => push(*ap),
                    Instr::Call { addr_aps, .. } | Instr::CallMethod { addr_aps, .. } => {
                        for &a in addr_aps {
                            push(a);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    let (reg_off, var_off, block_off, call_instr, trailing, old_term);
    {
        let f = prog.func_mut(caller);
        reg_off = f.n_regs;
        var_off = f.vars.len() as u32;
        block_off = f.blocks.len() as u32;
        // Split block b after the call.
        let blk = &mut f.blocks[b.0 as usize];
        call_instr = blk.instrs[idx].clone();
        trailing = blk.instrs.split_off(idx + 1);
        blk.instrs.pop(); // remove the call itself
        old_term = blk.term.clone();
    }
    let ap_map = build_ap_map(&mut prog.aps, &callee_aps, callee_id, caller, var_off);
    let cont = BlockId(block_off + callee.blocks.len() as u32);
    let m = Remap {
        reg_off,
        var_off,
        block_off,
        ap_map,
    };

    let Instr::Call {
        dst: call_dst,
        args,
        ..
    } = call_instr
    else {
        unreachable!("inline_site called on a direct call");
    };

    let f = prog.func_mut(caller);
    // Append renamed callee vars.
    f.n_regs += callee.n_regs;
    for v in &callee.vars {
        let mut nv = v.clone();
        nv.name = format!("$in.{}", v.name);
        f.vars.push(nv);
    }
    // Parameter stores + jump to the callee entry.
    {
        let blk = &mut f.blocks[b.0 as usize];
        for (i, a) in args.iter().enumerate() {
            blk.instrs.push(Instr::StoreSlot {
                addr: SlotAddr::var(SlotBase::Local(VarId(i as u32 + var_off))),
                src: *a,
            });
        }
        blk.term = Terminator::Jump(BlockId(block_off));
    }
    // Splice remapped callee blocks.
    for cb in &callee.blocks {
        let mut instrs: Vec<Instr> = cb.instrs.iter().map(|i| remap_instr(i, &m)).collect();
        let term = match &cb.term {
            Terminator::Jump(t) => Terminator::Jump(m.block(*t)),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => Terminator::Branch {
                cond: m.op(*cond),
                then_bb: m.block(*then_bb),
                else_bb: m.block(*else_bb),
            },
            Terminator::Return(val) => {
                if let (Some(d), Some(v)) = (call_dst, val) {
                    instrs.push(Instr::Copy {
                        dst: d,
                        src: m.op(*v),
                    });
                }
                Terminator::Jump(cont)
            }
        };
        f.blocks.push(Block { instrs, term });
    }
    // Continuation block.
    f.blocks.push(Block {
        instrs: trailing,
        term: old_term,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbaa_ir::compile_to_ir;

    fn count_calls(p: &Program) -> usize {
        p.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.instrs.iter())
            .filter(|i| matches!(i, Instr::Call { .. }))
            .count()
    }

    #[test]
    fn small_callee_is_inlined() {
        let mut p = compile_to_ir(
            "MODULE M;
             PROCEDURE Add (a, b: INTEGER): INTEGER = BEGIN RETURN a + b END Add;
             VAR x: INTEGER;
             BEGIN x := Add(1, 2); END M.",
        )
        .unwrap();
        let before = count_calls(&p);
        let stats = inline_small(&mut p, 50, 100_000);
        assert_eq!(before, 1);
        assert_eq!(stats.inlined, 1);
        assert_eq!(count_calls(&p), 0);
    }

    #[test]
    fn recursive_callee_not_inlined() {
        let mut p = compile_to_ir(
            "MODULE M;
             PROCEDURE Fact (n: INTEGER): INTEGER =
             BEGIN
               IF n <= 1 THEN RETURN 1 END;
               RETURN n * Fact(n - 1);
             END Fact;
             VAR x: INTEGER;
             BEGIN x := Fact(5); END M.",
        )
        .unwrap();
        let stats = inline_small(&mut p, 1000, 100_000);
        assert_eq!(stats.inlined, 0);
    }

    #[test]
    fn inlined_heap_paths_are_rerooted() {
        let mut p = compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE GetF (t: T): INTEGER = BEGIN RETURN t.f END GetF;
             VAR t: T; x: INTEGER;
             BEGIN t := NEW(T); x := GetF(t); END M.",
        )
        .unwrap();
        let stats = inline_small(&mut p, 50, 100_000);
        assert_eq!(stats.inlined, 1);
        // The load of t.f now lives in <main> and its AP root must point
        // at a <main> variable.
        let main = p.func(p.main);
        let mut found = false;
        for blk in &main.blocks {
            for instr in &blk.instrs {
                if let Instr::LoadMem {
                    ap, hidden: false, ..
                } = instr
                {
                    let path = p.aps.path(*ap);
                    if let ApRoot::Local { func, .. } = path.root {
                        assert_eq!(func, p.main, "AP rerooted into the caller");
                        found = true;
                    }
                }
            }
        }
        assert!(found, "inlined load present in main");
    }

    #[test]
    fn execution_semantics_preserved_structurally() {
        // The callee writes through a VAR param; after inlining the store
        // must still target the caller's variable.
        let mut p = compile_to_ir(
            "MODULE M;
             PROCEDURE Set (VAR v: INTEGER) = BEGIN v := 42 END Set;
             VAR g: INTEGER;
             BEGIN Set(g); END M.",
        )
        .unwrap();
        let stats = inline_small(&mut p, 50, 100_000);
        assert_eq!(stats.inlined, 1);
        // StoreInd survives, with the loc coming from a TakeAddrSlot of g.
        let main = p.func(p.main);
        let has_store_ind = main
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .any(|i| matches!(i, Instr::StoreInd { .. }));
        assert!(has_store_ind);
    }

    #[test]
    fn caller_growth_is_bounded() {
        let mut p = compile_to_ir(
            "MODULE M;
             PROCEDURE Add (a, b: INTEGER): INTEGER = BEGIN RETURN a + b END Add;
             VAR x: INTEGER;
             BEGIN
               x := Add(1, 2) + Add(3, 4) + Add(5, 6);
             END M.",
        )
        .unwrap();
        let stats = inline_small(&mut p, 50, 100_000);
        assert_eq!(stats.inlined, 3);
        assert_eq!(count_calls(&p), 0);
    }
}
