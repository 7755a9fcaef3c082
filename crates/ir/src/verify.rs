//! A structural check of a lowered [`Program`]: every id it carries
//! indexes the table it names.
//!
//! Lowering hands out ids into several module-shared tables (access
//! paths, field symbols, text literals, temp and opaque counters), and the
//! detached paths remap each unit's local ids into them. A remap that goes
//! wrong does not crash; it produces a program that answers alias queries
//! about the wrong paths. [`verify`] catches that where it happens:
//! [`ModuleLowerer::finish`](crate::lower::ModuleLowerer::finish) runs it
//! in debug builds, and the differential suites run it on every program
//! they compare.

use crate::ir::{Instr, Program};
use crate::path::{AccessPath, ApId, ApIndex, ApRoot, ApStep};

/// Checks that every id in `p` is in range:
///
/// * every `ApId` on `LoadMem`, `StoreMem` and `TakeAddrMem`, and in a
///   call's `addr_aps`, indexes `p.aps`;
/// * every `ConstText` indexes `p.texts`;
/// * every `Field` step's symbol indexes `p.symbols`;
/// * every `Temp` root and `Opaque` index was handed out by the table's
///   counters (ids start at 1);
/// * every `Local` root names an existing function and one of its
///   variables, every callee an existing function, and every block
///   successor an existing block of its function.
///
/// # Errors
///
/// The first violation found, saying where it is.
pub fn verify(p: &Program) -> Result<(), String> {
    let n_funcs = p.funcs.len();
    let ap = |ap: ApId, at: &dyn Fn() -> String| {
        if (ap.0 as usize) < p.aps.len() {
            Ok(())
        } else {
            Err(format!("{}: {ap} past {} paths", at(), p.aps.len()))
        }
    };
    for (fi, f) in p.funcs.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            let at = || format!("{} (f{fi}) b{bi}", f.name);
            for i in &b.instrs {
                match i {
                    Instr::LoadMem { ap: id, .. }
                    | Instr::StoreMem { ap: id, .. }
                    | Instr::TakeAddrMem { ap: id, .. } => ap(*id, &at)?,
                    Instr::Call { func, addr_aps, .. } => {
                        if func.0 as usize >= n_funcs {
                            return Err(format!("{}: call to {func} of {n_funcs} functions", at()));
                        }
                        for &id in addr_aps {
                            ap(id, &at)?;
                        }
                    }
                    Instr::CallMethod { addr_aps, .. } => {
                        for &id in addr_aps {
                            ap(id, &at)?;
                        }
                    }
                    Instr::ConstText { text, .. } if *text as usize >= p.texts.len() => {
                        return Err(format!(
                            "{}: text {text} past {} texts",
                            at(),
                            p.texts.len()
                        ));
                    }
                    _ => {}
                }
            }
            for s in b.term.successors() {
                if s.0 as usize >= f.blocks.len() {
                    return Err(format!(
                        "{}: successor b{} past {} blocks",
                        at(),
                        s.0,
                        f.blocks.len()
                    ));
                }
            }
        }
    }
    for (id, path) in p.aps.iter() {
        check_path(p, path).map_err(|e| format!("{id}: {e}"))?;
    }
    Ok(())
}

fn check_path(p: &Program, path: &AccessPath) -> Result<(), String> {
    match path.root {
        ApRoot::Local { func, var } => {
            let Some(f) = p.funcs.get(func.0 as usize) else {
                return Err(format!(
                    "local root in {func} of {} functions",
                    p.funcs.len()
                ));
            };
            if var.0 as usize >= f.vars.len() {
                return Err(format!(
                    "local root {var} past {} variables of {}",
                    f.vars.len(),
                    f.name
                ));
            }
        }
        ApRoot::Temp(t) if t == 0 || t > p.aps.temp_mark() => {
            return Err(format!("temp root {t} outside 1..={}", p.aps.temp_mark()));
        }
        _ => {}
    }
    for step in &path.steps {
        match step {
            ApStep::Field { name, .. } if name.0 as usize >= p.symbols.len() => {
                return Err(format!("field {name} past {} symbols", p.symbols.len()));
            }
            ApStep::Index { index, .. } => check_index(index, p.aps.opaque_mark())?,
            _ => {}
        }
    }
    Ok(())
}

fn check_index(ix: &ApIndex, opaques: u32) -> Result<(), String> {
    match ix {
        ApIndex::Opaque(o) if *o == 0 || *o > opaques => {
            Err(format!("opaque index {o} outside 1..={opaques}"))
        }
        ApIndex::Bin(_, l, r) => {
            check_index(l, opaques)?;
            check_index(r, opaques)
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BlockId, Terminator};
    use crate::path::{FuncId, VarId};
    use crate::symbols::Symbol;

    /// Calls, a text literal, field paths, a temp root (the call result
    /// used as a base) and an opaque subscript.
    const SRC: &str = "MODULE M;
         TYPE T = OBJECT f: INTEGER; next: T; END;
              A = ARRAY OF INTEGER;
         VAR t: T; a: A; s: TEXT; x: INTEGER;
         PROCEDURE Mk (): T = BEGIN RETURN NEW(T) END Mk;
         PROCEDURE Bump (VAR v: INTEGER) = BEGIN v := v + 1 END Bump;
         BEGIN
           t := Mk(); t.next := Mk(); a := NEW(A, 4);
           x := Mk().f + a[x * x];
           Bump(t.f);
           s := \"hi\";
           IF x > 0 THEN x := t.next.f END;
         END M.";

    fn program() -> Program {
        let p = crate::compile_to_ir(SRC).expect("compiles");
        verify(&p).expect("a fresh lowering verifies");
        p
    }

    fn instrs_mut(p: &mut Program) -> impl Iterator<Item = &mut Instr> {
        p.funcs
            .iter_mut()
            .flat_map(|f| f.blocks.iter_mut())
            .flat_map(|b| b.instrs.iter_mut())
    }

    /// A path shaped like an existing one, for corrupting the table.
    fn some_path(p: &Program, pred: impl Fn(&AccessPath) -> bool) -> AccessPath {
        p.aps
            .iter()
            .map(|(_, path)| path.clone())
            .find(|path| pred(path))
            .expect("the source has such a path")
    }

    /// `p` fails verification, and the message names `needle`.
    fn fails(p: &Program, needle: &str) {
        let err = verify(p).expect_err(needle);
        assert!(err.contains(needle), "{err:?} does not name {needle:?}");
    }

    #[test]
    fn memory_access_path_out_of_range() {
        let mut p = program();
        let past = ApId(p.aps.len() as u32);
        for i in instrs_mut(&mut p) {
            if let Instr::LoadMem { ap, .. } = i {
                *ap = past;
                break;
            }
        }
        fails(&p, "paths");
    }

    #[test]
    fn call_address_path_out_of_range() {
        let mut p = program();
        let past = ApId(p.aps.len() as u32);
        let call = instrs_mut(&mut p)
            .find_map(|i| match i {
                Instr::Call { addr_aps, .. } if !addr_aps.is_empty() => Some(addr_aps),
                _ => None,
            })
            .expect("Bump(t.f) passes an address");
        call[0] = past;
        fails(&p, "paths");
    }

    #[test]
    fn text_out_of_range() {
        let mut p = program();
        let past = p.texts.len() as u32;
        for i in instrs_mut(&mut p) {
            if let Instr::ConstText { text, .. } = i {
                *text = past;
            }
        }
        fails(&p, "texts");
    }

    #[test]
    fn field_symbol_out_of_range() {
        let mut p = program();
        let mut path = some_path(&p, |q| matches!(q.steps.last(), Some(ApStep::Field { .. })));
        if let Some(ApStep::Field { name, .. }) = path.steps.last_mut() {
            *name = Symbol(p.symbols.len() as u32);
        }
        p.aps.intern(path);
        fails(&p, "symbols");
    }

    #[test]
    fn temp_root_past_the_counter() {
        let mut p = program();
        let mut path = some_path(&p, |q| matches!(q.root, ApRoot::Temp(_)));
        path.root = ApRoot::Temp(p.aps.temp_mark() + 1);
        p.aps.intern(path);
        fails(&p, "temp root");
    }

    #[test]
    fn opaque_index_past_the_counter() {
        let mut p = program();
        let mut path = some_path(&p, |q| {
            q.steps.iter().any(|s| matches!(s, ApStep::Index { .. }))
        });
        for s in &mut path.steps {
            if let ApStep::Index { index, .. } = s {
                *index = ApIndex::Opaque(p.aps.opaque_mark() + 1);
            }
        }
        p.aps.intern(path);
        fails(&p, "opaque index");
    }

    #[test]
    fn local_root_out_of_range() {
        let mut p = program();
        let base = some_path(&p, |_| true);
        let n = p.funcs.len() as u32;
        let mut bad_func = base.clone();
        bad_func.root = ApRoot::Local {
            func: FuncId(n),
            var: VarId(0),
        };
        let mut q = p.clone();
        q.aps.intern(bad_func);
        fails(&q, "local root in");
        let vars = p.func(p.main).vars.len() as u32;
        let mut bad_var = base;
        bad_var.root = ApRoot::Local {
            func: p.main,
            var: VarId(vars),
        };
        p.aps.intern(bad_var);
        fails(&p, "variables");
    }

    #[test]
    fn callee_out_of_range() {
        let mut p = program();
        let n = p.funcs.len() as u32;
        for i in instrs_mut(&mut p) {
            if let Instr::Call { func, .. } = i {
                *func = FuncId(n);
            }
        }
        fails(&p, "call to");
    }

    #[test]
    fn successor_out_of_range() {
        let mut p = program();
        let main = p.main;
        let f = p.func_mut(main);
        let past = BlockId(f.blocks.len() as u32);
        f.blocks[0].term = Terminator::Jump(past);
        fails(&p, "successor");
    }
}
