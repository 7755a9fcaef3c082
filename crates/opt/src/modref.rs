//! Interprocedural mod-ref analysis (§3.4.1).
//!
//! RLE is preceded by a mod-ref analysis that summarizes the access paths
//! referenced and modified by each call, so a loop-invariant load can be
//! hoisted across a call when the callee provably does not modify it.
//!
//! A summary is computed bottom-up to a fixpoint over the (possibly
//! cyclic) call graph. Method calls union the summaries of every
//! type-feasible target. A callee that stores through a VAR-parameter
//! location is *wild*: at each call site the paths actually passed by
//! address (`addr_aps`) are charged to the caller's summary, and any
//! location whose address may be taken is conservatively killed.

use mini_m3::check::GlobalId;
use mini_m3::types::TypeId;
use std::collections::{HashMap, HashSet};
use tbaa_ir::ir::{Instr, Program, SlotBase};
use tbaa_ir::path::{ApId, FuncId};

/// What one function (transitively) reads and writes.
#[derive(Debug, Default)]
pub struct Summary {
    /// Heap access paths possibly stored to.
    pub stores: HashSet<ApId>,
    /// Heap access paths possibly loaded from.
    pub loads: HashSet<ApId>,
    /// Globals possibly stored to.
    pub stored_globals: HashSet<GlobalId>,
    /// Whether the function (transitively) performs an indirect store
    /// through a VAR-parameter location.
    pub wild_store: bool,
    /// Whether the function (transitively) performs an indirect *load*
    /// through a VAR-parameter location (dead-store elimination needs
    /// this).
    pub wild_load: bool,
}

/// Mod-ref summaries for every function of a program, and the callees of
/// each of its call instructions.
#[derive(Debug)]
pub struct ModRef {
    summaries: Vec<Summary>,
    dispatch: Dispatch,
}

/// The dispatch targets of every `(method, receiver type)` pair the
/// program calls, resolved once.
#[derive(Debug)]
struct Dispatch(HashMap<String, HashMap<TypeId, Vec<FuncId>>>);

impl Dispatch {
    fn resolve(prog: &Program) -> Self {
        let mut by_method: HashMap<String, HashMap<TypeId, Vec<FuncId>>> = HashMap::new();
        for f in &prog.funcs {
            for b in &f.blocks {
                for instr in &b.instrs {
                    let Instr::CallMethod {
                        method, recv_ty, ..
                    } = instr
                    else {
                        continue;
                    };
                    if !by_method.contains_key(method) {
                        by_method.insert(method.clone(), HashMap::new());
                    }
                    let by_ty = by_method.get_mut(method).expect("inserted above");
                    by_ty
                        .entry(*recv_ty)
                        .or_insert_with(|| prog.method_targets(*recv_ty, method));
                }
            }
        }
        Dispatch(by_method)
    }

    /// The functions `call` can reach: its callee, or every target of its
    /// method; none for an instruction that is not a call.
    ///
    /// # Panics
    ///
    /// On a method call whose pair the resolved program did not contain.
    fn targets<'a>(&'a self, call: &'a Instr) -> &'a [FuncId] {
        match call {
            Instr::Call { func, .. } => std::slice::from_ref(func),
            Instr::CallMethod {
                method, recv_ty, ..
            } => self
                .0
                .get(method)
                .and_then(|by_ty| by_ty.get(recv_ty))
                .expect("method call resolved when the ModRef was built"),
            _ => &[],
        }
    }
}

impl ModRef {
    /// Computes summaries to a fixpoint.
    ///
    /// # Examples
    ///
    /// ```
    /// let prog = tbaa_ir::compile_to_ir(
    ///     "MODULE M;
    ///      TYPE T = OBJECT f: INTEGER; END;
    ///      PROCEDURE Set (t: T) = BEGIN t.f := 1 END Set;
    ///      VAR t: T;
    ///      BEGIN t := NEW(T); Set(t); END M.")?;
    /// let modref = tbaa_opt::ModRef::build(&prog);
    /// let set = prog.func_id("Set").unwrap();
    /// assert_eq!(modref.summary(set).stores.len(), 1);
    /// # Ok::<(), mini_m3::Diagnostics>(())
    /// ```
    pub fn build(prog: &Program) -> Self {
        let dispatch = Dispatch::resolve(prog);
        let mut sums: Vec<Summary> = prog.funcs.iter().map(|_| Summary::default()).collect();
        // Seed with local facts.
        for (i, f) in prog.funcs.iter().enumerate() {
            let s = &mut sums[i];
            for b in &f.blocks {
                for instr in &b.instrs {
                    match instr {
                        Instr::StoreMem { ap, .. } => {
                            s.stores.insert(*ap);
                        }
                        Instr::LoadMem { ap, .. } => {
                            s.loads.insert(*ap);
                        }
                        Instr::StoreSlot { addr, .. } => {
                            if let SlotBase::Global(g) = addr.base {
                                s.stored_globals.insert(g);
                            }
                        }
                        Instr::StoreInd { .. } => s.wild_store = true,
                        Instr::LoadInd { .. } => s.wild_load = true,
                        _ => {}
                    }
                }
            }
        }
        // Propagate through calls until stable.
        let mut changed = true;
        while changed {
            changed = false;
            for (i, f) in prog.funcs.iter().enumerate() {
                for b in &f.blocks {
                    for instr in &b.instrs {
                        let (Instr::Call {
                            addr_aps,
                            addr_slots,
                            ..
                        }
                        | Instr::CallMethod {
                            addr_aps,
                            addr_slots,
                            ..
                        }) = instr
                        else {
                            continue;
                        };
                        // Merge every target's summary into ours.
                        let mut add_stores: Vec<ApId> = Vec::new();
                        let mut add_loads: Vec<ApId> = Vec::new();
                        let mut add_globals: Vec<GlobalId> = Vec::new();
                        let mut wild = false;
                        let mut wildl = false;
                        for t in dispatch.targets(instr) {
                            let cs = &sums[t.0 as usize];
                            add_stores.extend(cs.stores.iter().copied());
                            add_loads.extend(cs.loads.iter().copied());
                            add_globals.extend(cs.stored_globals.iter().copied());
                            wild |= cs.wild_store;
                            wildl |= cs.wild_load;
                        }
                        if wild {
                            // The callee may store through the locations we
                            // pass it.
                            add_stores.extend(addr_aps.iter().copied());
                            for sb in addr_slots {
                                if let SlotBase::Global(g) = sb {
                                    add_globals.push(*g);
                                }
                            }
                        }
                        let s = &mut sums[i];
                        for ap in add_stores {
                            changed |= s.stores.insert(ap);
                        }
                        for ap in add_loads {
                            changed |= s.loads.insert(ap);
                        }
                        for g in add_globals {
                            changed |= s.stored_globals.insert(g);
                        }
                        if wild && !s.wild_store {
                            s.wild_store = true;
                            changed = true;
                        }
                        if wildl && !s.wild_load {
                            s.wild_load = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        ModRef {
            summaries: sums,
            dispatch,
        }
    }

    /// The summary for one function.
    pub fn summary(&self, f: FuncId) -> &Summary {
        &self.summaries[f.0 as usize]
    }

    /// The summaries of every function `call` can reach (none if it is not
    /// a call). Every client asks this one question of a call site.
    ///
    /// # Panics
    ///
    /// On a method call whose `(receiver type, method)` pair was not in the
    /// program this was built from: that is a stale `ModRef`, never a call
    /// with no callees.
    pub(crate) fn callees<'a>(
        &'a self,
        call: &'a Instr,
    ) -> impl Iterator<Item = &'a Summary> + Clone + 'a {
        self.dispatch.targets(call).iter().map(|&f| self.summary(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbaa_ir::compile_to_ir;

    #[test]
    fn direct_stores_summarized() {
        let p = compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE SetF (t: T) = BEGIN t.f := 1 END SetF;
             VAR t: T;
             BEGIN t := NEW(T); SetF(t); END M.",
        )
        .unwrap();
        let mr = ModRef::build(&p);
        let setf = p.func_id("SetF").unwrap();
        assert_eq!(mr.summary(setf).stores.len(), 1);
        assert!(!mr.summary(setf).wild_store);
        // Main inherits the callee's stores.
        assert_eq!(mr.summary(p.main).stores.len(), 1);
    }

    #[test]
    fn transitive_propagation() {
        let p = compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Inner (t: T) = BEGIN t.f := 1 END Inner;
             PROCEDURE Outer (t: T) = BEGIN Inner(t) END Outer;
             VAR t: T;
             BEGIN t := NEW(T); Outer(t); END M.",
        )
        .unwrap();
        let mr = ModRef::build(&p);
        let outer = p.func_id("Outer").unwrap();
        assert_eq!(mr.summary(outer).stores.len(), 1);
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        let p = compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; n: T; END;
             PROCEDURE Walk (t: T) =
             BEGIN
               IF t # NIL THEN t.f := 1; Walk(t.n) END;
             END Walk;
             VAR t: T;
             BEGIN t := NEW(T); Walk(t); END M.",
        )
        .unwrap();
        let mr = ModRef::build(&p);
        let walk = p.func_id("Walk").unwrap();
        assert!(!mr.summary(walk).stores.is_empty());
        assert!(!mr.summary(walk).loads.is_empty());
    }

    #[test]
    fn wild_store_via_var_param() {
        let p = compile_to_ir(
            "MODULE M;
             PROCEDURE Set (VAR x: INTEGER) = BEGIN x := 1 END Set;
             PROCEDURE Mid (VAR x: INTEGER) = BEGIN Set(x) END Mid;
             VAR g: INTEGER;
             BEGIN Mid(g); END M.",
        )
        .unwrap();
        let mr = ModRef::build(&p);
        assert!(mr.summary(p.func_id("Set").unwrap()).wild_store);
        assert!(mr.summary(p.func_id("Mid").unwrap()).wild_store);
    }

    #[test]
    fn wild_callee_charges_addr_aps_to_caller() {
        let p = compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Set (VAR x: INTEGER) = BEGIN x := 1 END Set;
             PROCEDURE Caller (t: T) = BEGIN Set(t.f) END Caller;
             VAR t: T;
             BEGIN t := NEW(T); Caller(t); END M.",
        )
        .unwrap();
        let mr = ModRef::build(&p);
        let caller = p.func_id("Caller").unwrap();
        // Caller passes &t.f to a wild callee, so t.f is in its stores.
        assert_eq!(mr.summary(caller).stores.len(), 1);
    }

    #[test]
    fn globals_stored_tracked() {
        let p = compile_to_ir(
            "MODULE M;
             VAR g: INTEGER;
             PROCEDURE Bump () = BEGIN g := g + 1 END Bump;
             BEGIN Bump(); END M.",
        )
        .unwrap();
        let mr = ModRef::build(&p);
        let bump = p.func_id("Bump").unwrap();
        assert_eq!(mr.summary(bump).stored_globals.len(), 1);
        assert_eq!(mr.summary(p.main).stored_globals.len(), 1);
    }

    #[test]
    fn callees_lend_every_dispatch_target() {
        let p = compile_to_ir(
            "MODULE M;
             TYPE
               A = OBJECT f: INTEGER; METHODS m () := MA; END;
               B = A OBJECT OVERRIDES m := MB; END;
             PROCEDURE MA (self: A) = BEGIN END MA;
             PROCEDURE MB (self: B) = BEGIN self.f := 1 END MB;
             VAR a: A;
             BEGIN a := NEW(B); a.m(); END M.",
        )
        .unwrap();
        let mr = ModRef::build(&p);
        let call = p
            .func(p.main)
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .find(|i| matches!(i, Instr::CallMethod { .. }))
            .expect("a.m() is a method call");
        let stores: Vec<usize> = mr.callees(call).map(|s| s.stores.len()).collect();
        assert_eq!(stores.len(), 2, "MA and MB");
        assert_eq!(stores.iter().sum::<usize>(), 1, "only MB stores");
    }

    #[test]
    #[should_panic(expected = "resolved when the ModRef was built")]
    fn a_method_pair_not_resolved_at_build_panics() {
        let p = compile_to_ir("MODULE M; BEGIN END M.").unwrap();
        let mr = ModRef::build(&p);
        let stale = Instr::CallMethod {
            dst: None,
            method: "m".to_string(),
            recv_ty: p.types.integer(),
            args: vec![],
            addr_aps: vec![],
            addr_slots: vec![],
        };
        let _ = mr.callees(&stale).count();
    }
}
