//! # tbaa-ir — typed IR for the TBAA reproduction
//!
//! This crate lowers checked MiniM3 modules (from the [`mini_m3`] crate) to
//! a register IR in which **every heap memory reference is one instruction
//! annotated with its canonical access path**. That property is what lets
//! the rest of the system reproduce the paper:
//!
//! * the alias analyses (`tbaa` crate) answer `may_alias(ap₁, ap₂)`;
//! * redundant load elimination (`tbaa-opt` crate) matches and moves loads
//!   by access path;
//! * the simulator (`tbaa-sim` crate) counts exactly one memory reference
//!   per executed `LoadMem`/`StoreMem`.
//!
//! Lowering additionally collects the program facts the analyses need:
//! `AddressTaken` (§2.3), pointer-assignment *merges* (§2.4), and the set
//! of allocated types (method resolution).
//!
//! ## Example
//!
//! ```
//! let prog = tbaa_ir::compile_to_ir(
//!     "MODULE M;
//!      TYPE T = OBJECT f: INTEGER; END;
//!      VAR t: T; x: INTEGER;
//!      BEGIN t := NEW(T); x := t.f; END M.")?;
//! assert_eq!(prog.heap_ref_sites().len(), 1); // the load of t.f
//! # Ok::<(), mini_m3::Diagnostics>(())
//! ```

pub mod cfg;
pub mod ir;
pub mod lower;
pub mod path;
pub mod pretty;
pub mod symbols;
mod verify;

pub use ir::{Function, HeapRefRows, Instr, Program};
pub use lower::{
    effective_workers, effective_workers_for, host_cores, lower_parallel,
    lower_parallel_with_workers, lower_unit_detached, lower_units_detached, DetachedUnit,
    ModuleLowerer,
};
pub use path::{AccessPath, ApId, ApTable, ApView, FuncId, VarId};
pub use symbols::{Symbol, SymbolTable};
pub use verify::verify;

/// Compiles MiniM3 source all the way to IR.
///
/// # Errors
///
/// Returns diagnostics from any phase (lex, parse, check, lower).
pub fn compile_to_ir(source: &str) -> Result<Program, mini_m3::Diagnostics> {
    let checked = mini_m3::compile(source)?;
    lower::lower(checked)
}

/// [`compile_to_ir`] with function units lowered on up to `threads`
/// scoped worker threads. Output is byte-identical to the serial path at
/// any thread count; one effective worker (e.g. on a single-core host)
/// takes the serial path with zero thread overhead.
///
/// # Errors
///
/// Returns diagnostics from any phase (lex, parse, check, lower).
pub fn compile_to_ir_with_threads(
    source: &str,
    threads: usize,
) -> Result<Program, mini_m3::Diagnostics> {
    let checked = mini_m3::compile(source)?;
    lower::lower_parallel(checked, threads)
}

#[cfg(test)]
mod tests {
    #[test]
    fn compile_to_ir_smoke() {
        let p = crate::compile_to_ir("MODULE M; VAR x: INTEGER; BEGIN x := 3 END M.").unwrap();
        assert_eq!(p.funcs.len(), 1);
    }
}
