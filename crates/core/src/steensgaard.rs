//! An instruction-based Steensgaard points-to analysis — the related-work
//! baseline of §5.
//!
//! The paper's SMTypeRefs is "similar to Steensgaard's algorithm \[32\]",
//! but works over *programming-language types* and prunes merges with the
//! inheritance relation. This module implements the original flavour for
//! comparison: a flow-insensitive, context-insensitive, field-insensitive
//! unification analysis over the IR itself. Every variable, register,
//! and allocation site gets a node; assignments unify pointees; an access
//! path's location is found by following the points-to edge once per
//! path step; two paths may alias iff their locations unify to the same
//! representative.
//!
//! Because it ignores declared types *and* field names, Steensgaard is
//! incomparable with TBAA in general: it separates structurally disjoint
//! data (which TypeDecl cannot) but conflates all fields of an object
//! (which FieldTypeDecl distinguishes). The benches put numbers on that
//! trade-off.

use crate::analysis::AliasAnalysis;
use std::collections::HashMap;
use tbaa_ir::ir::{Instr, Operand, Program, SlotBase, Terminator};
use tbaa_ir::path::{ApId, ApRoot, ApTable, FuncId};

/// Node identifiers in the points-to graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Reg(u32, u32),
    Var(u32, u32),
    Global(u32),
    Ret(u32),
}

#[derive(Debug, Clone, Default)]
struct Graph {
    parent: Vec<u32>,
    pts: Vec<Option<u32>>,
    keys: HashMap<Key, u32>,
}

impl Graph {
    fn fresh(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.pts.push(None);
        id
    }

    fn node(&mut self, k: Key) -> u32 {
        if let Some(&n) = self.keys.get(&k) {
            return n;
        }
        let n = self.fresh();
        self.keys.insert(k, n);
        n
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Recursive unification: joining two nodes joins their pointees.
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        self.parent[rb as usize] = ra;
        let (pa, pb) = (self.pts[ra as usize], self.pts[rb as usize]);
        match (pa, pb) {
            (Some(x), Some(y)) => self.union(x, y),
            (None, Some(y)) => self.pts[ra as usize] = Some(y),
            _ => {}
        }
    }

    /// The pointee of `x`, created on demand.
    fn deref(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        if let Some(p) = self.pts[r as usize] {
            return self.find(p);
        }
        let p = self.fresh();
        // Re-find: fresh() cannot have changed r, but stay disciplined.
        let r = self.find(x);
        self.pts[r as usize] = Some(p);
        p
    }

    /// The pointee of `x` if it exists (query-time, no creation).
    fn deref_opt(&mut self, x: u32) -> Option<u32> {
        let r = self.find(x);
        self.pts[r as usize].map(|p| self.find(p))
    }
}

/// The built analysis. The union-find graph path-compresses on query,
/// so it sits behind a mutex; concurrent callers (e.g. parallel pair
/// counting) serialize on it, which is acceptable for a baseline.
#[derive(Debug)]
pub struct Steensgaard {
    graph: std::sync::Mutex<Graph>,
}

impl Clone for Steensgaard {
    fn clone(&self) -> Self {
        Steensgaard {
            graph: std::sync::Mutex::new(self.graph.lock().expect("graph lock").clone()),
        }
    }
}

impl Steensgaard {
    /// Runs the unification over the whole program.
    ///
    /// # Examples
    ///
    /// ```
    /// use tbaa::{AliasAnalysis, Steensgaard};
    ///
    /// let prog = tbaa_ir::compile_to_ir(
    ///     "MODULE M;
    ///      TYPE T = OBJECT f: INTEGER; END;
    ///      VAR a, b: T; x: INTEGER;
    ///      BEGIN a := NEW(T); b := NEW(T); a.f := 1; x := b.f; END M.")?;
    /// let analysis = Steensgaard::build(&prog);
    /// let sites = prog.heap_ref_sites();
    /// // The two allocations never mix, so a.f and b.f cannot alias.
    /// assert!(!analysis.may_alias(&prog.aps, sites[0].1, sites[1].1));
    /// # Ok::<(), mini_m3::Diagnostics>(())
    /// ```
    pub fn build(prog: &Program) -> Self {
        let mut g = Graph::default();
        for (fi, func) in prog.funcs.iter().enumerate() {
            let fid = fi as u32;
            for block in &func.blocks {
                for instr in &block.instrs {
                    build_instr(prog, &mut g, fid, instr);
                }
                if let Terminator::Return(Some(op)) = &block.term {
                    if let Some(v) = value_node(&mut g, fid, op) {
                        let ret = g.node(Key::Ret(fid));
                        g.union(ret, v);
                    }
                }
            }
        }
        Steensgaard {
            graph: std::sync::Mutex::new(g),
        }
    }

    /// The abstract location an access path denotes, if it ever
    /// materialized during the unification.
    fn location(&self, aps: &ApTable, ap: ApId) -> Option<u32> {
        let path = aps.path(ap);
        let mut g = self.graph.lock().expect("graph lock");
        let mut node = match path.root {
            ApRoot::Local { func, var } => {
                let k = Key::Var(func.0, var.0);
                *g.keys.get(&k)?
            }
            ApRoot::Global(gl) => *g.keys.get(&Key::Global(gl.0))?,
            ApRoot::Temp(_) => return None,
        };
        for _step in &path.steps {
            node = g.deref_opt(node)?;
        }
        Some(g.find(node))
    }
}

fn value_node(g: &mut Graph, fid: u32, op: &Operand) -> Option<u32> {
    match op {
        Operand::Reg(r) => Some(g.node(Key::Reg(fid, r.0))),
        _ => None,
    }
}

fn slot_node(g: &mut Graph, fid: u32, base: SlotBase) -> u32 {
    match base {
        SlotBase::Local(v) => g.node(Key::Var(fid, v.0)),
        SlotBase::Global(gl) => g.node(Key::Global(gl.0)),
    }
}

fn build_instr(prog: &Program, g: &mut Graph, fid: u32, instr: &Instr) {
    match instr {
        Instr::Copy { dst, src } | Instr::NarrowTo { dst, src, .. } => {
            if let Some(s) = value_node(g, fid, src) {
                let d = g.node(Key::Reg(fid, dst.0));
                g.union(d, s);
            }
        }
        Instr::LoadSlot { dst, addr } => {
            let v = slot_node(g, fid, addr.base);
            let d = g.node(Key::Reg(fid, dst.0));
            g.union(d, v);
        }
        Instr::StoreSlot { addr, src } => {
            if let Some(s) = value_node(g, fid, src) {
                let v = slot_node(g, fid, addr.base);
                g.union(v, s);
            }
        }
        Instr::LoadMem { dst, addr, .. } => {
            if let Some(b) = value_node(g, fid, &addr.base) {
                let h = g.deref(b);
                let d = g.node(Key::Reg(fid, dst.0));
                g.union(d, h);
            }
        }
        Instr::StoreMem { addr, src, .. } => {
            if let Some(b) = value_node(g, fid, &addr.base) {
                let h = g.deref(b);
                if let Some(s) = value_node(g, fid, src) {
                    g.union(h, s);
                }
            }
        }
        Instr::LoadInd { dst, loc } => {
            if let Some(l) = value_node(g, fid, loc) {
                let h = g.deref(l);
                let d = g.node(Key::Reg(fid, dst.0));
                g.union(d, h);
            }
        }
        Instr::StoreInd { loc, src } => {
            if let Some(l) = value_node(g, fid, loc) {
                let h = g.deref(l);
                if let Some(s) = value_node(g, fid, src) {
                    g.union(h, s);
                }
            }
        }
        Instr::TakeAddrSlot { dst, addr } => {
            let v = slot_node(g, fid, addr.base);
            let d = g.node(Key::Reg(fid, dst.0));
            let p = g.deref(d);
            g.union(p, v);
        }
        Instr::TakeAddrMem { dst, addr, .. } => {
            if let Some(b) = value_node(g, fid, &addr.base) {
                let h = g.deref(b);
                let d = g.node(Key::Reg(fid, dst.0));
                let p = g.deref(d);
                g.union(p, h);
            }
        }
        Instr::New { dst, .. } | Instr::NewArray { dst, .. } => {
            // dst points at a fresh allocation blob.
            let d = g.node(Key::Reg(fid, dst.0));
            let _ = g.deref(d);
        }
        Instr::Call {
            dst, func, args, ..
        } => {
            bind_call(g, fid, *func, args, dst);
        }
        Instr::CallMethod {
            dst,
            method,
            recv_ty,
            args,
            ..
        } => {
            for target in prog.method_targets(*recv_ty, method) {
                bind_call(g, fid, target, args, dst);
            }
        }
        _ => {}
    }
}

fn bind_call(
    g: &mut Graph,
    fid: u32,
    callee: FuncId,
    args: &[Operand],
    dst: &Option<tbaa_ir::ir::Reg>,
) {
    for (i, a) in args.iter().enumerate() {
        if let Some(an) = value_node(g, fid, a) {
            let param = g.node(Key::Var(callee.0, i as u32));
            g.union(param, an);
        }
    }
    if let Some(d) = dst {
        let ret = g.node(Key::Ret(callee.0));
        let dn = g.node(Key::Reg(fid, d.0));
        g.union(dn, ret);
    }
}

impl AliasAnalysis for Steensgaard {
    fn name(&self) -> &str {
        "Steensgaard"
    }

    fn may_alias(&self, aps: &ApTable, a: ApId, b: ApId) -> bool {
        // Temp-rooted or never-materialized paths are handled
        // conservatively.
        match (self.location(aps, a), self.location(aps, b)) {
            (Some(x), Some(y)) => x == y,
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbaa_ir::compile_to_ir;

    fn find_ap(prog: &Program, rendered: &str) -> ApId {
        prog.aps
            .iter()
            .find(|(id, _)| tbaa_ir::pretty::access_path(prog, *id) == rendered)
            .map(|(id, _)| id)
            .unwrap_or_else(|| panic!("no path {rendered}"))
    }

    #[test]
    fn disjoint_structures_are_separated() {
        // Two lists that never mix: Steensgaard separates them even
        // though they have the same type (something TypeDecl cannot do).
        let prog = compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; n: T; END;
             VAR a, b: T; x: INTEGER;
             BEGIN
               a := NEW(T); b := NEW(T);
               a.f := 1; b.f := 2;
               x := a.f + b.f;
             END M.",
        )
        .unwrap();
        let st = Steensgaard::build(&prog);
        let af = find_ap(&prog, "a.f");
        let bf = find_ap(&prog, "b.f");
        assert!(!st.may_alias(&prog.aps, af, bf), "disjoint allocations");
        assert!(st.may_alias(&prog.aps, af, af));
    }

    #[test]
    fn assignment_merges_structures() {
        let prog = compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; n: T; END;
             VAR a, b: T; x: INTEGER;
             BEGIN
               a := NEW(T); b := NEW(T);
               b := a;               (* now they may be the same object *)
               a.f := 1;
               x := b.f;
             END M.",
        )
        .unwrap();
        let st = Steensgaard::build(&prog);
        let af = find_ap(&prog, "a.f");
        let bf = find_ap(&prog, "b.f");
        assert!(st.may_alias(&prog.aps, af, bf));
    }

    #[test]
    fn field_insensitivity_conflates_fields() {
        // The price of field insensitivity: t.f and t.g alias under
        // Steensgaard but not under FieldTypeDecl.
        let prog = compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f, g: INTEGER; END;
             VAR t: T; x: INTEGER;
             BEGIN
               t := NEW(T);
               t.f := 1; t.g := 2;
               x := t.f + t.g;
             END M.",
        )
        .unwrap();
        let st = Steensgaard::build(&prog);
        let tf = find_ap(&prog, "t.f");
        let tg = find_ap(&prog, "t.g");
        assert!(st.may_alias(&prog.aps, tf, tg), "field-insensitive");
        let ftd = crate::analysis::Tbaa::build(
            &prog,
            crate::analysis::Level::FieldTypeDecl,
            crate::merge::World::Closed,
        );
        assert!(!ftd.may_alias(&prog.aps, tf, tg), "TBAA distinguishes");
    }

    #[test]
    fn interprocedural_flow_is_tracked() {
        let prog = compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; n: T; END;
             PROCEDURE Id (t: T): T = BEGIN RETURN t END Id;
             VAR a, b, c: T; x: INTEGER;
             BEGIN
               a := NEW(T); c := NEW(T);
               b := Id(a);          (* b may be a, never c *)
               b.f := 1;
               x := a.f + c.f;
             END M.",
        )
        .unwrap();
        let st = Steensgaard::build(&prog);
        let bf = find_ap(&prog, "b.f");
        let af = find_ap(&prog, "a.f");
        let cf = find_ap(&prog, "c.f");
        assert!(st.may_alias(&prog.aps, bf, af));
        assert!(!st.may_alias(&prog.aps, bf, cf));
    }

    #[test]
    fn var_params_are_conservative() {
        let prog = compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Set (VAR v: INTEGER) = BEGIN v := 3 END Set;
             VAR t, u: T; x: INTEGER;
             BEGIN
               t := NEW(T); u := NEW(T);
               Set(t.f);
               x := t.f + u.f;
             END M.",
        )
        .unwrap();
        let st = Steensgaard::build(&prog);
        let tf = find_ap(&prog, "t.f");
        assert!(st.may_alias(&prog.aps, tf, tf));
    }

    #[test]
    fn temp_rooted_paths_are_conservative() {
        let prog = compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Get (): T = BEGIN RETURN NEW(T) END Get;
             VAR x: INTEGER;
             BEGIN x := Get().f; END M.",
        )
        .unwrap();
        let st = Steensgaard::build(&prog);
        let temp = prog
            .aps
            .iter()
            .find(|(_, p)| matches!(p.root, ApRoot::Temp(_)))
            .map(|(id, _)| id)
            .expect("temp path");
        // Unknown locations answer `true` (sound for RLE kills).
        assert!(st.may_alias(&prog.aps, temp, temp));
    }
}
