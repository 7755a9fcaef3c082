//! Method invocation resolution (the paper's "Minv" client, §3.7).
//!
//! Uses TBAA's `TypeRefsTable` (plus the set of types the program actually
//! allocates) to compute the feasible dynamic types of a method receiver.
//! When every feasible type binds the same implementation, the dynamic
//! dispatch is replaced by a direct call — which both removes dispatch
//! overhead and exposes the call to inlining (Figure 11's Minv+Inlining
//! configuration).

use std::collections::HashSet;
use tbaa::analysis::Tbaa;
use tbaa_ir::ir::{Instr, Program};
use tbaa_ir::path::FuncId;

/// What devirtualization did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevirtStats {
    /// Method call sites inspected.
    pub sites: usize,
    /// Sites rewritten to direct calls.
    pub resolved: usize,
}

/// Resolves method invocations to direct calls where the analysis allows.
pub fn devirtualize(prog: &mut Program, analysis: &Tbaa) -> DevirtStats {
    let mut stats = DevirtStats::default();
    let allocated = prog.allocated_types.clone();
    for fi in 0..prog.funcs.len() {
        let fid = FuncId(fi as u32);
        for bi in 0..prog.func(fid).blocks.len() {
            for ii in 0..prog.func(fid).blocks[bi].instrs.len() {
                let Instr::CallMethod {
                    dst,
                    method,
                    recv_ty,
                    args,
                    addr_aps,
                    addr_slots,
                } = &prog.func(fid).blocks[bi].instrs[ii]
                else {
                    continue;
                };
                stats.sites += 1;
                let mut targets: HashSet<FuncId> = HashSet::new();
                if let Some(impls) = prog.method_impls.get(method) {
                    for t in analysis
                        .possible_types(*recv_ty)
                        .iter()
                        .filter(|t| allocated.contains(t))
                    {
                        if let Some(&f) = impls.get(&t) {
                            targets.insert(f);
                        }
                    }
                }
                if targets.len() == 1 {
                    let target = *targets.iter().next().expect("len checked");
                    let new_instr = Instr::Call {
                        dst: *dst,
                        func: target,
                        args: args.clone(),
                        addr_aps: addr_aps.clone(),
                        addr_slots: addr_slots.clone(),
                    };
                    prog.func_mut(fid).blocks[bi].instrs[ii] = new_instr;
                    stats.resolved += 1;
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbaa::analysis::Level;
    use tbaa::World;
    use tbaa_ir::compile_to_ir;

    fn count_method_calls(p: &Program) -> usize {
        p.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.instrs.iter())
            .filter(|i| matches!(i, Instr::CallMethod { .. }))
            .count()
    }

    #[test]
    fn monomorphic_site_is_resolved() {
        let mut p = compile_to_ir(
            "MODULE M;
             TYPE A = OBJECT v: INTEGER; METHODS m (): INTEGER := MA; END;
             PROCEDURE MA (self: A): INTEGER = BEGIN RETURN self.v END MA;
             VAR a: A; x: INTEGER;
             BEGIN a := NEW(A); x := a.m(); END M.",
        )
        .unwrap();
        let an = Tbaa::build(&p, Level::SmFieldTypeRefs, World::Closed);
        let stats = devirtualize(&mut p, &an);
        assert_eq!(stats.sites, 1);
        assert_eq!(stats.resolved, 1);
        assert_eq!(count_method_calls(&p), 0);
    }

    #[test]
    fn polymorphic_site_stays_dynamic() {
        let mut p = compile_to_ir(
            "MODULE M;
             TYPE
               A = OBJECT METHODS m (): INTEGER := MA; END;
               B = A OBJECT OVERRIDES m := MB; END;
             PROCEDURE MA (self: A): INTEGER = BEGIN RETURN 1 END MA;
             PROCEDURE MB (self: B): INTEGER = BEGIN RETURN 2 END MB;
             VAR a: A; c: BOOLEAN; x: INTEGER;
             BEGIN
               IF c THEN a := NEW(A) ELSE a := NEW(B) END;
               x := a.m();
             END M.",
        )
        .unwrap();
        let an = Tbaa::build(&p, Level::SmFieldTypeRefs, World::Closed);
        let stats = devirtualize(&mut p, &an);
        assert_eq!(stats.sites, 1);
        assert_eq!(stats.resolved, 0);
        assert_eq!(count_method_calls(&p), 1);
    }

    #[test]
    fn smtyperefs_beats_subtyping_for_resolution() {
        // Both A and B are allocated, but nothing of type B ever flows
        // into the receiver variable's type group — SMFieldTypeRefs can
        // prove the receiver is an A.
        let mut p = compile_to_ir(
            "MODULE M;
             TYPE
               A = OBJECT METHODS m (): INTEGER := MA; END;
               B = A OBJECT OVERRIDES m := MB; END;
             PROCEDURE MA (self: A): INTEGER = BEGIN RETURN 1 END MA;
             PROCEDURE MB (self: B): INTEGER = BEGIN RETURN 2 END MB;
             VAR a: A; b: B; x: INTEGER;
             BEGIN
               a := NEW(A);
               b := NEW(B);
               x := a.m() + b.m();
             END M.",
        )
        .unwrap();
        let sm = Tbaa::build(&p, Level::SmFieldTypeRefs, World::Closed);
        let stats = devirtualize(&mut p, &sm);
        assert_eq!(stats.resolved, 2, "both sites monomorphic under SM");
    }
}
