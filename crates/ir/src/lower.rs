//! Lowering from the checked AST to the register IR.
//!
//! Besides code generation, lowering collects the three program facts the
//! alias analyses consume:
//!
//! * **access paths** — every heap load/store is annotated with its
//!   canonical source path (`a.b^.c`), interned in the program's
//!   [`crate::path::ApTable`];
//! * **AddressTaken** — VAR actuals and WITH bindings of heap designators
//!   record `(declared type, field)` / array-element facts (§2.3);
//! * **merges** — every explicit or implicit pointer assignment whose two
//!   sides have different declared types (§2.4: assignments, initializers,
//!   actual→formal bindings, RETURN values, method receiver bindings).
//!
//! Open-array subscripts emit a *hidden* dope-vector load for the bounds
//! check; those loads are invisible to RLE, reproducing the paper's
//! Encapsulation category.

use crate::ir::*;
use crate::path::*;
use crate::symbols::{Symbol, SymbolTable};
use mini_m3::ast::{BinOp, Expr, ExprId, Stmt, StmtId, UnOp};
use mini_m3::check::{
    Builtin, CallRes, CheckedModule, ConstVal, LocalId, NameRes, ProcId, VarKind, WithKind,
};
use mini_m3::error::{Diagnostics, Phase};
use mini_m3::span::Span;
use mini_m3::types::{ParamMode, TypeId, TypeKind};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Lowers a checked module to IR.
///
/// # Errors
///
/// Reports the few constructs the IR restricts (e.g. non-constant `BY`
/// steps) as diagnostics.
///
/// # Examples
///
/// ```
/// let checked = mini_m3::compile(
///     "MODULE M; VAR x: INTEGER; BEGIN x := 2 + 3 END M.")?;
/// let prog = tbaa_ir::lower::lower(checked).map_err(|e| e.to_string())?;
/// assert_eq!(prog.funcs.len(), 1); // just <main>
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn lower(checked: CheckedModule) -> Result<Program, Diagnostics> {
    let mut lw = Lowerer::new(Arc::new(checked));
    lw.run();
    assemble(lw)
}

/// The worker count actually worth spawning for `items` independent work
/// units when `requested` threads were asked for: never more threads than
/// items, and never more than the host exposes — a single-core host pays
/// thread-spawn overhead without any parallel speedup, so it always runs
/// serial (the `pairs.scaling` regression this fixes).
pub fn effective_workers(requested: usize, items: usize) -> usize {
    effective_workers_for(requested, items, host_cores())
}

/// The host's core count, `available_parallelism` resolved once per
/// process. The call re-parses cgroup quotas every time (tens of µs on
/// Linux) — far too slow for the per-query kernels that size their
/// fan-out by it — and the count is fixed for the process lifetime.
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pure core of [`effective_workers`], parameterized on the core count so
/// the clamp is testable on any host.
pub fn effective_workers_for(requested: usize, items: usize, cores: usize) -> usize {
    requested.clamp(1, items.max(1)).min(cores.max(1))
}

/// [`lower`] with the per-function fan-out: function units are lowered
/// detached on scoped threads and merged **in unit order** through
/// [`ModuleLowerer::absorb_next`], so the output is byte-identical to the
/// serial lowering at any thread count. Worker count is capped by
/// [`effective_workers`]; one worker falls back to plain [`lower`].
pub fn lower_parallel(checked: CheckedModule, threads: usize) -> Result<Program, Diagnostics> {
    let workers = effective_workers(threads, checked.procs.len());
    lower_parallel_with_workers(checked, workers)
}

/// [`lower_parallel`] with an exact worker count (no host-core cap) — the
/// differential tests use this to force the detached-merge path even on a
/// single-core host.
pub fn lower_parallel_with_workers(
    checked: CheckedModule,
    workers: usize,
) -> Result<Program, Diagnostics> {
    if workers <= 1 {
        return lower(checked);
    }
    let checked = Arc::new(checked);
    let pids: Vec<ProcId> = (0..checked.procs.len() as u32).map(ProcId).collect();
    let units = lower_units_detached(&checked, &pids, workers);
    let mut ml = ModuleLowerer::new_shared(checked);
    for unit in &units {
        ml.absorb_next(unit);
    }
    ml.finish()
}

/// Lowers the function units `pids` of `checked` detached (fresh local
/// tables) on `workers` scoped threads, returning the units in `pids`
/// order. Workers claim indices off a shared atomic cursor, so skewed
/// function sizes still balance; one worker (or one unit) lowers on the
/// calling thread.
pub fn lower_units_detached(
    checked: &Arc<CheckedModule>,
    pids: &[ProcId],
    workers: usize,
) -> Vec<DetachedUnit> {
    let n = pids.len();
    if workers.min(n) <= 1 {
        return pids
            .iter()
            .map(|&p| lower_unit_detached(checked, p))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<DetachedUnit>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, lower_unit_detached(checked, pids[i])));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, u) in h.join().expect("lowering worker panicked") {
                slots[i] = Some(u);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every unit lowered exactly once"))
        .collect()
}

/// Lowers one function unit against fresh empty tables. All ids the unit
/// hands out (`ApId`s, `Symbol`s, text ids, temp/opaque counters) are
/// local; [`ModuleLowerer::absorb_next`] remaps them into the
/// module-shared tables.
///
/// The unit is returned compacted for caching: its tables as plain
/// slices in local intern order (the intern maps are dropped), its
/// `AddressTaken` and allocation facts as sorted slices, and its body
/// shrunk to fit.
pub fn lower_unit_detached(checked: &Arc<CheckedModule>, pid: ProcId) -> DetachedUnit {
    let mut lw = Lowerer::new_detached(Arc::clone(checked));
    lw.lower_func(pid);
    let mut func = lw.funcs.pop().expect("lower_func pushed");
    func.vars.shrink_to_fit();
    func.blocks.shrink_to_fit();
    for b in &mut func.blocks {
        b.instrs.shrink_to_fit();
    }
    DetachedUnit {
        func,
        temps: lw.aps.temp_mark(),
        opaques: lw.aps.opaque_mark(),
        aps: lw.aps.into_paths().into_boxed_slice(),
        symbols: lw.symbols.into_names().into_boxed_slice(),
        texts: lw.texts.into_boxed_slice(),
        merges: lw.merges.into_boxed_slice(),
        taken_fields: sorted(lw.address_taken.fields),
        taken_elements: sorted(lw.address_taken.elements),
        allocated: sorted(lw.allocated),
        diags: lw.diags,
    }
}

/// A set's elements in sorted order, so a unit's cached form does not
/// depend on hash order.
fn sorted<T: Ord>(set: HashSet<T>) -> Box<[T]> {
    let mut v: Vec<T> = set.into_iter().collect();
    v.sort_unstable();
    v.into_boxed_slice()
}

/// One function lowered in isolation by [`lower_unit_detached`]: the body
/// plus its shared-state contributions, all in unit-local id spaces.
///
/// This doubles as the function's analysis **summary**: `merges` are its
/// pointer-assignment edges (§2.4) and `taken_*` its `AddressTaken`
/// contributions (§2.3). Both are flow-insensitive unions over all
/// functions, so what a unit contributes does not depend on where it sits
/// in the module — a unit depends only on the module header and its own
/// text, which is what lets `tbaa-incr` cache it.
#[derive(Debug)]
pub struct DetachedUnit {
    func: Function,
    /// Fresh temp roots the unit consumed (local ids `1..=temps`).
    temps: u32,
    /// Fresh opaque-index ids the unit consumed.
    opaques: u32,
    /// Access paths, indexed by local `ApId`.
    aps: Box<[AccessPath]>,
    /// Field names, indexed by local `Symbol`.
    symbols: Box<[String]>,
    /// Text literals, indexed by local text id.
    texts: Box<[String]>,
    merges: Box<[Merge]>,
    taken_fields: Box<[(TypeId, Symbol)]>,
    taken_elements: Box<[TypeId]>,
    allocated: Box<[TypeId]>,
    diags: Diagnostics,
}

impl DetachedUnit {
    /// Whether lowering emitted no diagnostics. Only clean units are safe
    /// to reuse: a diagnostic is observable output and must be re-emitted
    /// by re-lowering.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }
}

/// Rebases a detached unit's opaque-index ids into the module id space.
fn remap_index(ix: &mut ApIndex, opaque_base: u32) {
    match ix {
        ApIndex::Opaque(o) => *o += opaque_base,
        ApIndex::Bin(_, l, r) => {
            remap_index(l, opaque_base);
            remap_index(r, opaque_base);
        }
        _ => {}
    }
}

/// Rebases a detached unit's access path: temp roots and opaque indices
/// shift by the module counters at absorb time (fresh ids are handed out
/// pre-increment, so local id `k` is exactly serial id `base + k`), and
/// field symbols map through the unit's symbol remap table.
fn remap_path(p: &AccessPath, sym_map: &[Symbol], temp_base: u32, opaque_base: u32) -> AccessPath {
    let mut p = p.clone();
    if let ApRoot::Temp(t) = &mut p.root {
        *t += temp_base;
    }
    for s in &mut p.steps {
        match s {
            ApStep::Field { name, .. } => *name = sym_map[name.0 as usize],
            ApStep::Index { index, .. } => remap_index(index, opaque_base),
            _ => {}
        }
    }
    p
}

/// Rewrites every unit-local id a lowered body carries (`ApId`
/// annotations on heap instructions and text-literal ids) into the
/// module id space.
fn remap_func(f: &mut Function, ap_map: &[ApId], text_map: &[u32]) {
    for b in &mut f.blocks {
        for i in &mut b.instrs {
            match i {
                Instr::LoadMem { ap, .. }
                | Instr::StoreMem { ap, .. }
                | Instr::TakeAddrMem { ap, .. } => *ap = ap_map[ap.0 as usize],
                Instr::Call { addr_aps, .. } | Instr::CallMethod { addr_aps, .. } => {
                    for ap in addr_aps {
                        *ap = ap_map[ap.0 as usize];
                    }
                }
                Instr::ConstText { text, .. } => *text = text_map[*text as usize],
                _ => {}
            }
        }
    }
}

/// Assembles the final [`Program`] from a fully-driven [`Lowerer`] —
/// shared tail of [`lower`] and [`ModuleLowerer::finish`].
fn assemble(lw: Lowerer) -> Result<Program, Diagnostics> {
    if lw.diags.has_errors() {
        Err(lw.diags)
    } else {
        let main = FuncId(lw.checked.main.0);
        let mut method_impls: HashMap<String, HashMap<TypeId, FuncId>> = HashMap::new();
        for (&(t, ref m), &p) in &lw.checked.method_impls {
            method_impls
                .entry(m.clone())
                .or_default()
                .insert(t, FuncId(p.0));
        }
        // Reclaim the checked module's type table when this lowering
        // holds the last reference (always true once the detached
        // workers have joined); a still-shared module pays one clone.
        let types = match Arc::try_unwrap(lw.checked) {
            Ok(checked) => checked.types,
            Err(shared) => shared.types.clone(),
        };
        Ok(Program {
            types,
            funcs: lw.funcs,
            main,
            globals: lw.globals,
            global_frame_size: lw.global_frame_size,
            texts: lw.texts,
            aps: lw.aps,
            symbols: lw.symbols,
            address_taken: lw.address_taken,
            method_impls,
            allocated_types: lw.allocated,
            merges: lw.merges,
        })
    }
}

/// A function-at-a-time driver over the same lowering engine as
/// [`lower`], for the detached paths ([`lower_parallel`] and the
/// incremental compiler in `tbaa-incr`).
///
/// There is one way to add a function: [`absorb_next`](Self::absorb_next)
/// a [`DetachedUnit`], in unit order; then [`finish`](Self::finish) once
/// every function is accounted for. The result is byte-identical to
/// [`lower`], whether each unit was lowered just now or taken from a
/// cache.
pub struct ModuleLowerer {
    lw: Lowerer,
    next: u32,
}

impl ModuleLowerer {
    /// Starts lowering `checked`, with no function absorbed yet. The
    /// module is shared with the detached units' lowerings, so it is
    /// checked once and never cloned.
    pub fn new_shared(checked: Arc<CheckedModule>) -> Self {
        ModuleLowerer {
            lw: Lowerer::new(checked),
            next: 0,
        }
    }

    /// Splices the next function in by remapping its detached unit's
    /// locally-numbered ids (paths, temp/opaque roots, field symbols, text
    /// literals) into the module-shared tables **in the unit's own intern
    /// order**. Detached lowering interns in the same first-use order a
    /// serial lowering does, and fresh ids are handed out pre-increment,
    /// so local id `k` rebased by the module counter is exactly the id
    /// serial lowering would have produced — the merged tables, and
    /// therefore the assembled program, are byte-identical to serial
    /// output. The unit is only read, so a cached unit is absorbed as is.
    pub fn absorb_next(&mut self, unit: &DetachedUnit) {
        let lw = &mut self.lw;
        let temp_base = lw.aps.temp_mark();
        let opaque_base = lw.aps.opaque_mark();
        // Field symbols and text literals, in unit intern order.
        let sym_map: Vec<Symbol> = unit.symbols.iter().map(|n| lw.symbols.intern(n)).collect();
        let text_map: Vec<u32> = unit.texts.iter().map(|t| lw.text_id(t)).collect();
        // Access paths: rebase local ids, then re-intern in unit order
        // (already-shared paths dedup to their existing module ids; new
        // ones append in the same order serial lowering would).
        let ap_map: Vec<ApId> = unit
            .aps
            .iter()
            .map(|p| {
                let p = remap_path(p, &sym_map, temp_base, opaque_base);
                lw.aps.intern(p)
            })
            .collect();
        lw.aps.advance_counters(unit.temps, unit.opaques);

        let mut func = unit.func.clone();
        remap_func(&mut func, &ap_map, &text_map);
        lw.funcs.push(func);
        lw.merges.extend_from_slice(&unit.merges);
        lw.address_taken.fields.extend(
            unit.taken_fields
                .iter()
                .map(|&(ty, sym)| (ty, sym_map[sym.0 as usize])),
        );
        lw.address_taken
            .elements
            .extend(unit.taken_elements.iter().copied());
        lw.allocated.extend(unit.allocated.iter().copied());
        lw.diags.extend(unit.diags.clone());
        self.next += 1;
    }

    /// Assembles the program once every function has been absorbed. Debug
    /// builds check it with [`crate::verify`] first.
    pub fn finish(self) -> Result<Program, Diagnostics> {
        debug_assert_eq!(
            self.next as usize,
            self.lw.checked.procs.len(),
            "finish() before all functions were absorbed"
        );
        let out = assemble(self.lw);
        #[cfg(debug_assertions)]
        if let Ok(p) = &out {
            if let Err(e) = crate::verify(p) {
                panic!("absorbed program fails verification: {e}");
            }
        }
        out
    }
}

/// How a `LocalId` is realized in the current function.
#[derive(Debug, Clone)]
enum Binding {
    /// A plain frame slot.
    Slot(VarId),
    /// A VAR parameter: the slot holds a location value.
    VarParam(VarId),
    /// A WITH alias over a frozen place.
    Place(LPlace),
}

/// A lowered place: where a designator's storage is, plus its access path.
#[derive(Debug, Clone)]
struct LPlace {
    kind: LPlaceKind,
    ap: AccessPath,
}

#[derive(Debug, Clone)]
enum LPlaceKind {
    Slot(SlotAddr),
    Mem(MemAddr),
    Ind(Operand),
}

struct Lowerer {
    checked: Arc<CheckedModule>,
    diags: Diagnostics,
    funcs: Vec<Function>,
    globals: Vec<GlobalDecl>,
    global_frame_size: u32,
    texts: Vec<String>,
    text_intern: HashMap<String, u32>,
    aps: ApTable,
    symbols: SymbolTable,
    address_taken: AddressTakenInfo,
    merges: Vec<Merge>,
    allocated: HashSet<TypeId>,
    // per-function state
    fid: FuncId,
    vars: Vec<VarDecl>,
    blocks: Vec<Block>,
    cur: BlockId,
    n_regs: u32,
    bindings: Vec<Binding>,
    loop_exits: Vec<BlockId>,
}

impl Lowerer {
    fn new(checked: Arc<CheckedModule>) -> Self {
        // Global frame layout.
        let mut globals = Vec::with_capacity(checked.globals.len());
        let mut off = 0u32;
        for g in &checked.globals {
            let size = checked.types.size_of(g.ty).max(1);
            globals.push(GlobalDecl {
                name: g.name.clone(),
                ty: g.ty,
                offset: off,
                size,
            });
            off += size;
        }
        // Cheap pre-scan over the expression arena: designator shapes
        // bound how many access paths the module can intern, Qualify
        // expressions its field symbols, Text its literals. Pre-sizing
        // the intern tables avoids mid-module rehash/regrow churn.
        let mut ap_cap = 0usize;
        let mut sym_cap = 0usize;
        let mut text_cap = 0usize;
        for e in &checked.ast.exprs {
            match e {
                Expr::Qualify { .. } => {
                    ap_cap += 1;
                    sym_cap += 1;
                }
                Expr::Deref(_) | Expr::Index { .. } => ap_cap += 2,
                Expr::Text(_) => text_cap += 1,
                _ => {}
            }
        }
        let n_procs = checked.procs.len();
        let mut lw = Self::new_detached(checked);
        lw.funcs = Vec::with_capacity(n_procs);
        lw.globals = globals;
        lw.global_frame_size = off;
        lw.aps = ApTable::with_capacity(ap_cap);
        lw.symbols = SymbolTable::with_capacity(sym_cap);
        lw.texts = Vec::with_capacity(text_cap);
        lw.text_intern = HashMap::with_capacity(text_cap);
        lw
    }

    /// A lowerer for one detached unit: shares the checked module but
    /// starts from empty tables and skips the global frame layout and
    /// pre-scan (neither is consulted while lowering a single function —
    /// the layout is only assembled into the final program).
    fn new_detached(checked: Arc<CheckedModule>) -> Self {
        Lowerer {
            checked,
            diags: Diagnostics::new(),
            funcs: Vec::new(),
            globals: Vec::new(),
            global_frame_size: 0,
            texts: Vec::new(),
            text_intern: HashMap::new(),
            aps: ApTable::new(),
            symbols: SymbolTable::new(),
            address_taken: AddressTakenInfo::default(),
            merges: Vec::new(),
            allocated: HashSet::new(),
            fid: FuncId(0),
            vars: Vec::new(),
            blocks: Vec::new(),
            cur: BlockId(0),
            n_regs: 0,
            bindings: Vec::new(),
            loop_exits: Vec::new(),
        }
    }

    fn error(&mut self, span: Span, msg: impl Into<String>) {
        self.diags.error(Phase::Lower, span, msg);
    }

    fn run(&mut self) {
        for i in 0..self.checked.procs.len() {
            self.lower_func(ProcId(i as u32));
        }
    }

    // ---- small helpers ---------------------------------------------------

    fn ty(&self, e: ExprId) -> TypeId {
        self.checked.ty(e)
    }

    fn reg(&mut self) -> Reg {
        let r = Reg(self.n_regs);
        self.n_regs += 1;
        r
    }

    fn emit(&mut self, instr: Instr) {
        self.blocks[self.cur.0 as usize].instrs.push(instr);
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        id
    }

    fn terminate(&mut self, term: Terminator) {
        self.blocks[self.cur.0 as usize].term = term;
    }

    /// Terminates the current block with a jump and switches to `next`.
    fn goto(&mut self, next: BlockId) {
        self.terminate(Terminator::Jump(next));
        self.cur = next;
    }

    fn scratch(&mut self, name: &str, ty: TypeId, size: u32, class: VarClass) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarDecl {
            name: format!("${name}{}", id.0),
            ty,
            size,
            class,
        });
        id
    }

    fn text_id(&mut self, t: &str) -> u32 {
        if let Some(&i) = self.text_intern.get(t) {
            return i;
        }
        let i = self.texts.len() as u32;
        self.texts.push(t.to_string());
        self.text_intern.insert(t.to_string(), i);
        i
    }

    /// Marks a local var as living in stack memory.
    fn make_stack(&mut self, v: VarId) {
        self.vars[v.0 as usize].class = VarClass::Stack;
    }

    /// Records a pointer-assignment merge if both sides are pointer types
    /// with different declared types (NIL assignments merge nothing).
    fn record_merge(&mut self, dst: TypeId, src: TypeId) {
        let types = &self.checked.types;
        if dst != src && types.is_pointer(dst) && types.is_pointer(src) {
            self.merges.push((dst, src));
        }
    }

    /// Records that the address of `ap`'s final step is taken.
    fn record_address_taken(&mut self, ap: &AccessPath) {
        match ap.steps.last() {
            Some(ApStep::Field { name, base_ty, .. }) => {
                self.address_taken.fields.insert((*base_ty, *name));
            }
            Some(ApStep::Index { base_ty, .. }) => {
                self.address_taken.elements.insert(*base_ty);
            }
            _ => {}
        }
    }

    // ---- function lowering ------------------------------------------------

    fn lower_func(&mut self, pid: ProcId) {
        let checked = Arc::clone(&self.checked);
        let pinfo = checked.proc(pid);
        self.fid = FuncId(pid.0);
        self.vars = Vec::with_capacity(pinfo.locals.len());
        self.blocks = vec![Block::new()];
        self.cur = BlockId(0);
        self.n_regs = 0;
        self.bindings.clear();
        self.loop_exits.clear();

        let mut param_modes = Vec::with_capacity(pinfo.n_params as usize);
        for (i, l) in pinfo.locals.iter().enumerate() {
            let is_param = (i as u32) < pinfo.n_params;
            let size = checked.types.size_of(l.ty).max(1);
            let scalar = checked.types.is_scalar(l.ty);
            let class = if scalar {
                VarClass::Register
            } else {
                VarClass::Stack
            };
            let v = VarId(self.vars.len() as u32);
            self.vars.push(VarDecl {
                name: l.name.clone(),
                ty: l.ty,
                size,
                class,
            });
            let binding = match l.kind {
                VarKind::Param(ParamMode::Var) => {
                    param_modes.push(ParamMode::Var);
                    Binding::VarParam(v)
                }
                VarKind::Param(ParamMode::Value) => {
                    param_modes.push(ParamMode::Value);
                    Binding::Slot(v)
                }
                _ => Binding::Slot(v),
            };
            let _ = is_param;
            self.bindings.push(binding);
        }

        // Local initializers (declared locals of the source procedure), or
        // global initializers when lowering <main>.
        if pid == checked.main {
            for &(gid, init) in &checked.global_inits {
                let gty = checked.globals[gid.0 as usize].ty;
                let ity = self.ty(init);
                let op = self.lower_expr(init);
                self.record_merge(gty, ity);
                self.emit(Instr::StoreSlot {
                    addr: SlotAddr::var(SlotBase::Global(gid)),
                    src: op,
                });
            }
        } else {
            let pdecl = &checked.ast.procs[pid.0 as usize];
            // Map declared local names (after params) to binding indices in
            // declaration order; checker laid them out contiguously.
            let mut next = pinfo.n_params as usize;
            for vd in &pdecl.locals {
                for _name in &vd.names {
                    if let Some(init) = vd.init {
                        let lid = LocalId(next as u32);
                        let ity = self.ty(init);
                        let op = self.lower_expr(init);
                        let &Binding::Slot(v) = &self.bindings[lid.0 as usize] else {
                            unreachable!("declared locals are slots");
                        };
                        let lty = self.vars[v.0 as usize].ty;
                        self.record_merge(lty, ity);
                        self.emit(Instr::StoreSlot {
                            addr: SlotAddr::var(SlotBase::Local(v)),
                            src: op,
                        });
                    }
                    next += 1;
                }
            }
        }

        for &s in &pinfo.body {
            self.lower_stmt(s);
        }

        self.funcs.push(Function {
            name: pinfo.name.clone(),
            n_params: pinfo.n_params,
            param_modes,
            ret: pinfo.ret,
            vars: std::mem::take(&mut self.vars),
            blocks: std::mem::take(&mut self.blocks),
            n_regs: self.n_regs,
        });
    }

    // ---- statements --------------------------------------------------------

    fn lower_stmt(&mut self, s: StmtId) {
        let checked = Arc::clone(&self.checked);
        match checked.ast.stmt(s) {
            Stmt::Assign { lhs, rhs } => self.lower_assign(*lhs, *rhs),
            Stmt::Call(e) => {
                self.lower_call(*e, false);
            }
            &Stmt::Eval(e) => {
                let ty = self.ty(e);
                if checked.types.is_scalar(ty) {
                    let _ = self.lower_expr(e);
                } else {
                    let span = checked.ast.expr_span(e);
                    self.error(span, "EVAL of an aggregate value is not supported");
                }
            }
            Stmt::If { arms, else_body } => {
                let join = self.new_block();
                for (cond, body) in arms {
                    let then_bb = self.new_block();
                    let next_bb = self.new_block();
                    let c = self.lower_expr(*cond);
                    self.terminate(Terminator::Branch {
                        cond: c,
                        then_bb,
                        else_bb: next_bb,
                    });
                    self.cur = then_bb;
                    for &st in body {
                        self.lower_stmt(st);
                    }
                    self.terminate(Terminator::Jump(join));
                    self.cur = next_bb;
                }
                for &st in else_body {
                    self.lower_stmt(st);
                }
                self.goto(join);
            }
            Stmt::While { cond, body } => {
                // Rotated (guard + bottom-test) form: the body dominates the
                // latch and every exit edge, so loop-invariant loads can be
                // hoisted without speculation.
                let body_bb = self.new_block();
                let exit = self.new_block();
                let c = self.lower_expr(*cond); // guard
                self.terminate(Terminator::Branch {
                    cond: c,
                    then_bb: body_bb,
                    else_bb: exit,
                });
                self.cur = body_bb;
                self.loop_exits.push(exit);
                for &st in body {
                    self.lower_stmt(st);
                }
                self.loop_exits.pop();
                let c2 = self.lower_expr(*cond); // bottom test
                self.terminate(Terminator::Branch {
                    cond: c2,
                    then_bb: body_bb,
                    else_bb: exit,
                });
                self.cur = exit;
            }
            Stmt::Repeat { body, cond } => {
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.goto(body_bb);
                self.loop_exits.push(exit);
                for &st in body {
                    self.lower_stmt(st);
                }
                self.loop_exits.pop();
                let c = self.lower_expr(*cond);
                self.terminate(Terminator::Branch {
                    cond: c,
                    then_bb: exit,
                    else_bb: body_bb,
                });
                self.cur = exit;
            }
            Stmt::Loop { body } => {
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.goto(body_bb);
                self.loop_exits.push(exit);
                for &st in body {
                    self.lower_stmt(st);
                }
                self.loop_exits.pop();
                self.terminate(Terminator::Jump(body_bb));
                self.cur = exit;
            }
            Stmt::Exit => {
                let Some(&exit) = self.loop_exits.last() else {
                    return; // checker already reported
                };
                self.terminate(Terminator::Jump(exit));
                self.cur = self.new_block(); // unreachable continuation
            }
            Stmt::For {
                var: _,
                from,
                to,
                by,
                body,
            } => self.lower_for(s, *from, *to, *by, body),
            &Stmt::Return(value) => {
                let op = value.map(|v| {
                    let vty = self.ty(v);
                    let o = self.lower_expr(v);
                    if let Some(rt) = checked.proc(ProcId(self.fid.0)).ret {
                        self.record_merge(rt, vty);
                    }
                    o
                });
                self.terminate(Terminator::Return(op));
                self.cur = self.new_block();
            }
            Stmt::With { bindings, body } => {
                let lids = &checked.stmt_locals[&s];
                for (i, (_name, e)) in bindings.iter().enumerate() {
                    let kind = checked.with_kinds[&(s, i)];
                    let lid = lids[i];
                    match kind {
                        WithKind::Alias => {
                            let mut place = self.lower_place(*e);
                            // WITH of a heap designator takes its address.
                            if matches!(place.kind, LPlaceKind::Mem(_)) {
                                self.record_address_taken(&place.ap);
                                // The alias freezes the *location*: if the
                                // path's root variable is reassigned inside
                                // the body, the recorded path would describe
                                // a different location than the alias
                                // accesses. Re-root it at a unique temp —
                                // still type- and shape-accurate for alias
                                // queries (sound kills), but never treated
                                // as the same expression by RLE (no unsound
                                // availability).
                                place.ap.root = ApRoot::Temp(self.aps.fresh_temp());
                            }
                            if let LPlaceKind::Slot(addr) = &place.kind {
                                if let SlotBase::Local(v) = addr.base {
                                    // An alias to a local keeps it addressable.
                                    self.make_stack(v);
                                }
                            }
                            self.bindings[lid.0 as usize] = Binding::Place(place);
                        }
                        WithKind::Value => {
                            let op = self.lower_expr(*e);
                            let &Binding::Slot(v) = &self.bindings[lid.0 as usize] else {
                                unreachable!("WITH value bindings start as slots");
                            };
                            self.emit(Instr::StoreSlot {
                                addr: SlotAddr::var(SlotBase::Local(v)),
                                src: op,
                            });
                        }
                    }
                }
                for &st in body {
                    self.lower_stmt(st);
                }
            }
        }
    }

    fn lower_for(
        &mut self,
        s: StmtId,
        from: ExprId,
        to: ExprId,
        by: Option<ExprId>,
        body: &[StmtId],
    ) {
        let int = self.checked.types.integer();
        // The loop variable slot was allocated by the checker.
        let lid = self.checked.stmt_locals[&s][0];
        let &Binding::Slot(idx_var) = &self.bindings[lid.0 as usize] else {
            unreachable!("FOR index is a slot");
        };
        let step = match by {
            None => 1,
            Some(b) => match self.const_int(b) {
                Some(v) if v != 0 => v,
                _ => {
                    let span = self.checked.ast.expr_span(b);
                    self.error(span, "BY step must be a non-zero integer constant");
                    1
                }
            },
        };
        let from_op = self.lower_expr(from);
        self.emit(Instr::StoreSlot {
            addr: SlotAddr::var(SlotBase::Local(idx_var)),
            src: from_op,
        });
        // Evaluate the limit once.
        let to_op = self.lower_expr(to);
        let limit = self.scratch("limit", int, 1, VarClass::Register);
        self.emit(Instr::StoreSlot {
            addr: SlotAddr::var(SlotBase::Local(limit)),
            src: to_op,
        });
        // Rotated form: guard test, then a bottom-tested body.
        let body_bb = self.new_block();
        let exit = self.new_block();
        let test = |lw: &mut Self| {
            let i = lw.reg();
            lw.emit(Instr::LoadSlot {
                dst: i,
                addr: SlotAddr::var(SlotBase::Local(idx_var)),
            });
            let l = lw.reg();
            lw.emit(Instr::LoadSlot {
                dst: l,
                addr: SlotAddr::var(SlotBase::Local(limit)),
            });
            let c = lw.reg();
            lw.emit(Instr::Bin {
                dst: c,
                op: if step > 0 { BinOp::Le } else { BinOp::Ge },
                lhs: i.into(),
                rhs: l.into(),
            });
            c
        };
        let c = test(self);
        self.terminate(Terminator::Branch {
            cond: c.into(),
            then_bb: body_bb,
            else_bb: exit,
        });
        self.cur = body_bb;
        self.loop_exits.push(exit);
        for &st in body {
            self.lower_stmt(st);
        }
        self.loop_exits.pop();
        // Latch: i := i + step, then the bottom test.
        let i2 = self.reg();
        self.emit(Instr::LoadSlot {
            dst: i2,
            addr: SlotAddr::var(SlotBase::Local(idx_var)),
        });
        let inc = self.reg();
        self.emit(Instr::Bin {
            dst: inc,
            op: BinOp::Add,
            lhs: i2.into(),
            rhs: Operand::ImmInt(step),
        });
        self.emit(Instr::StoreSlot {
            addr: SlotAddr::var(SlotBase::Local(idx_var)),
            src: inc.into(),
        });
        let c2 = test(self);
        self.terminate(Terminator::Branch {
            cond: c2.into(),
            then_bb: body_bb,
            else_bb: exit,
        });
        self.cur = exit;
    }

    fn const_int(&self, e: ExprId) -> Option<i64> {
        match self.checked.ast.expr(e) {
            Expr::Int(v) => Some(*v),
            Expr::Unary {
                op: UnOp::Neg,
                expr,
            } => self.const_int(*expr).map(|v| -v),
            Expr::Name(_) => match self.checked.name_res.get(&e) {
                Some(NameRes::Const(ConstVal::Int(v))) => Some(*v),
                _ => None,
            },
            _ => None,
        }
    }

    fn lower_assign(&mut self, lhs: ExprId, rhs: ExprId) {
        let lty = self.ty(lhs);
        let rty = self.ty(rhs);
        if matches!(self.checked.types.kind(lty), TypeKind::Record { .. }) {
            // Aggregate assignment: break into component accesses (§2.3).
            let src = self.lower_place(rhs);
            let dst = self.lower_place(lhs);
            self.copy_aggregate(&dst, &src, lty);
            return;
        }
        let op = self.lower_expr(rhs);
        self.record_merge(lty, rty);
        let place = self.lower_place(lhs);
        self.store_place(&place, op);
    }

    /// Copies an aggregate value component by component.
    fn copy_aggregate(&mut self, dst: &LPlace, src: &LPlace, ty: TypeId) {
        let components = self.scalar_components(ty, 0, Vec::new());
        for (offset, steps, _cty) in components {
            let sp = self.extend_place(src, offset, &steps);
            let dp = self.extend_place(dst, offset, &steps);
            let r = self.reg();
            self.load_place_into(&sp, r);
            self.store_place(&dp, r.into());
        }
    }

    /// Flattens `ty` into `(slot offset, ap steps, component type)` scalars.
    fn scalar_components(
        &mut self,
        ty: TypeId,
        base_off: u32,
        base_steps: Vec<ApStep>,
    ) -> Vec<(u32, Vec<ApStep>, TypeId)> {
        let checked = Arc::clone(&self.checked);
        match checked.types.kind(ty) {
            TypeKind::Record { fields } => {
                let mut out = Vec::new();
                for f in fields {
                    let mut steps = base_steps.clone();
                    steps.push(ApStep::Field {
                        name: self.symbols.intern(&f.name),
                        base_ty: ty,
                        ty: f.ty,
                    });
                    out.extend(self.scalar_components(f.ty, base_off + f.offset, steps));
                }
                out
            }
            &TypeKind::Array {
                range: Some((lo, hi)),
                elem,
            } => {
                let esz = checked.types.size_of(elem);
                let mut out = Vec::new();
                for k in 0..=(hi - lo).max(-1) {
                    let mut steps = base_steps.clone();
                    steps.push(ApStep::Index {
                        index: ApIndex::Const(lo + k),
                        base_ty: ty,
                        ty: elem,
                    });
                    out.extend(self.scalar_components(elem, base_off + (k as u32) * esz, steps));
                }
                out
            }
            _ => vec![(base_off, base_steps, ty)],
        }
    }

    fn extend_place(&mut self, p: &LPlace, offset: u32, steps: &[ApStep]) -> LPlace {
        let mut ap = p.ap.clone();
        ap.steps.extend(steps.iter().cloned());
        let kind = match &p.kind {
            LPlaceKind::Slot(a) => {
                let mut a = a.clone();
                a.offset += offset;
                LPlaceKind::Slot(a)
            }
            LPlaceKind::Mem(a) => {
                let mut a = a.clone();
                a.offset += offset;
                LPlaceKind::Mem(a)
            }
            LPlaceKind::Ind(_) => {
                unreachable!("aggregates are never accessed through VAR locations")
            }
        };
        LPlace { kind, ap }
    }

    // ---- places ------------------------------------------------------------

    /// Lowers a designator to a place.
    fn lower_place(&mut self, e: ExprId) -> LPlace {
        let checked = Arc::clone(&self.checked);
        match checked.ast.expr(e) {
            Expr::Name(_) => match checked.name_res.get(&e) {
                Some(&NameRes::Local(l)) => match &self.bindings[l.0 as usize] {
                    &Binding::Slot(v) => LPlace {
                        kind: LPlaceKind::Slot(SlotAddr::var(SlotBase::Local(v))),
                        ap: AccessPath {
                            root: ApRoot::Local {
                                func: self.fid,
                                var: v,
                            },
                            root_ty: self.vars[v.0 as usize].ty,
                            steps: vec![],
                        },
                    },
                    &Binding::VarParam(v) => {
                        let r = self.reg();
                        self.emit(Instr::LoadSlot {
                            dst: r,
                            addr: SlotAddr::var(SlotBase::Local(v)),
                        });
                        LPlace {
                            kind: LPlaceKind::Ind(r.into()),
                            ap: AccessPath {
                                root: ApRoot::Temp(self.aps.fresh_temp()),
                                root_ty: self.vars[v.0 as usize].ty,
                                steps: vec![],
                            },
                        }
                    }
                    Binding::Place(p) => p.clone(),
                },
                Some(&NameRes::Global(g)) => LPlace {
                    kind: LPlaceKind::Slot(SlotAddr::var(SlotBase::Global(g))),
                    ap: AccessPath {
                        root: ApRoot::Global(g),
                        root_ty: checked.globals[g.0 as usize].ty,
                        steps: vec![],
                    },
                },
                _ => unreachable!("checker guarantees designators resolve to variables"),
            },
            Expr::Qualify { base, field } => {
                let base = *base;
                let bty = self.ty(base);
                let f = checked
                    .types
                    .field(bty, field)
                    .expect("checker verified field");
                match checked.types.kind(bty) {
                    TypeKind::Object { .. } => {
                        // The base is a reference value: load it, then field.
                        let (b, bap) = self.lower_expr_with_ap(base);
                        let mut ap = bap;
                        ap.steps.push(ApStep::Field {
                            name: self.symbols.intern(field),
                            base_ty: bty,
                            ty: f.ty,
                        });
                        LPlace {
                            kind: LPlaceKind::Mem(MemAddr {
                                base: b,
                                offset: f.offset,
                                indices: vec![],
                            }),
                            ap,
                        }
                    }
                    TypeKind::Record { .. } => {
                        // The base is itself a place; extend in place.
                        let bp = self.lower_place(base);
                        let step = ApStep::Field {
                            name: self.symbols.intern(field),
                            base_ty: bty,
                            ty: f.ty,
                        };
                        self.extend_place(&bp, f.offset, std::slice::from_ref(&step))
                    }
                    _ => unreachable!("checker verified qualify base"),
                }
            }
            &Expr::Deref(base) => {
                let bty = self.ty(base);
                let TypeKind::Ref { target, .. } = checked.types.kind(bty) else {
                    unreachable!("checker verified deref base");
                };
                let target = *target;
                let (b, bap) = self.lower_expr_with_ap(base);
                let mut ap = bap;
                ap.steps.push(ApStep::Deref { ty: target });
                LPlace {
                    kind: LPlaceKind::Mem(MemAddr {
                        base: b,
                        offset: 0,
                        indices: vec![],
                    }),
                    ap,
                }
            }
            &Expr::Index { base, index } => {
                let bty = self.ty(base);
                let &TypeKind::Array { range, elem } = checked.types.kind(bty) else {
                    unreachable!("checker verified index base");
                };
                let esz = checked.types.size_of(elem);
                let idx_ap = self.canonical_index(index);
                let idx_op = self.lower_expr(index);
                match range {
                    None => {
                        // Open array: the base is a reference; slot 0 is the
                        // dope (length), elements start at slot 1. Emit the
                        // hidden bounds-check load of the dope slot.
                        let (b, bap) = self.lower_expr_with_ap(base);
                        let mut len_ap = bap.clone();
                        len_ap.steps.push(ApStep::DopeLen { base_ty: bty });
                        let len_ap = self.aps.intern(len_ap);
                        let lr = self.reg();
                        self.emit(Instr::LoadMem {
                            dst: lr,
                            addr: MemAddr {
                                base: b,
                                offset: 0,
                                indices: vec![],
                            },
                            ap: len_ap,
                            hidden: true,
                        });
                        let mut ap = bap;
                        ap.steps.push(ApStep::Index {
                            index: idx_ap,
                            base_ty: bty,
                            ty: elem,
                        });
                        LPlace {
                            kind: LPlaceKind::Mem(MemAddr {
                                base: b,
                                offset: 1,
                                indices: vec![(idx_op, 0, esz)],
                            }),
                            ap,
                        }
                    }
                    Some((lo, _hi)) => {
                        // Fixed array: extends the base place.
                        let bp = self.lower_place(base);
                        let mut ap = bp.ap.clone();
                        ap.steps.push(ApStep::Index {
                            index: idx_ap,
                            base_ty: bty,
                            ty: elem,
                        });
                        let kind = match &bp.kind {
                            LPlaceKind::Slot(a) => {
                                let mut a = a.clone();
                                a.indices.push((idx_op, lo, esz));
                                LPlaceKind::Slot(a)
                            }
                            LPlaceKind::Mem(a) => {
                                let mut a = a.clone();
                                a.indices.push((idx_op, lo, esz));
                                LPlaceKind::Mem(a)
                            }
                            LPlaceKind::Ind(_) => {
                                unreachable!("fixed arrays are never VAR-located")
                            }
                        };
                        LPlace { kind, ap }
                    }
                }
            }
            _ => unreachable!("checker guarantees only designators reach lower_place"),
        }
    }

    /// Canonicalizes an index expression for AP identity.
    fn canonical_index(&mut self, e: ExprId) -> ApIndex {
        let checked = Arc::clone(&self.checked);
        match checked.ast.expr(e) {
            &Expr::Int(v) => ApIndex::Const(v),
            Expr::Name(_) => match checked.name_res.get(&e) {
                Some(NameRes::Local(l)) => match &self.bindings[l.0 as usize] {
                    Binding::Slot(v) => ApIndex::Var(*v),
                    _ => ApIndex::Opaque(self.aps.fresh_opaque()),
                },
                Some(NameRes::Global(g)) => ApIndex::Global(*g),
                Some(NameRes::Const(ConstVal::Int(v))) => ApIndex::Const(*v),
                _ => ApIndex::Opaque(self.aps.fresh_opaque()),
            },
            &Expr::Binary { op, lhs, rhs }
                if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) =>
            {
                let l = self.canonical_index(lhs);
                let r = self.canonical_index(rhs);
                ApIndex::Bin(op, Box::new(l), Box::new(r))
            }
            _ => ApIndex::Opaque(self.aps.fresh_opaque()),
        }
    }

    fn load_place_into(&mut self, p: &LPlace, dst: Reg) {
        match &p.kind {
            LPlaceKind::Slot(addr) => self.emit(Instr::LoadSlot {
                dst,
                addr: addr.clone(),
            }),
            LPlaceKind::Mem(addr) => {
                let ap = self.aps.intern(p.ap.clone());
                self.emit(Instr::LoadMem {
                    dst,
                    addr: addr.clone(),
                    ap,
                    hidden: false,
                });
            }
            LPlaceKind::Ind(loc) => self.emit(Instr::LoadInd { dst, loc: *loc }),
        }
    }

    fn store_place(&mut self, p: &LPlace, src: Operand) {
        match &p.kind {
            LPlaceKind::Slot(addr) => self.emit(Instr::StoreSlot {
                addr: addr.clone(),
                src,
            }),
            LPlaceKind::Mem(addr) => {
                let ap = self.aps.intern(p.ap.clone());
                self.emit(Instr::StoreMem {
                    addr: addr.clone(),
                    src,
                    ap,
                });
            }
            LPlaceKind::Ind(loc) => self.emit(Instr::StoreInd { loc: *loc, src }),
        }
    }

    // ---- expressions ---------------------------------------------------------

    /// Lowers an expression for its value.
    fn lower_expr(&mut self, e: ExprId) -> Operand {
        self.lower_expr_with_ap(e).0
    }

    /// Lowers an expression for its value and returns the access path that
    /// describes where the value came from (a temp root if it is not a
    /// designator).
    fn lower_expr_with_ap(&mut self, e: ExprId) -> (Operand, AccessPath) {
        let checked = Arc::clone(&self.checked);
        let ety = self.ty(e);
        let temp_ap = |lw: &mut Self| AccessPath {
            root: ApRoot::Temp(lw.aps.fresh_temp()),
            root_ty: ety,
            steps: vec![],
        };
        match checked.ast.expr(e) {
            &Expr::Int(v) => (Operand::ImmInt(v), temp_ap(self)),
            &Expr::Bool(b) => (Operand::ImmBool(b), temp_ap(self)),
            &Expr::Char(c) => (Operand::ImmChar(c), temp_ap(self)),
            Expr::Nil => (Operand::ImmNil, temp_ap(self)),
            Expr::Text(t) => {
                let id = self.text_id(t);
                let r = self.reg();
                self.emit(Instr::ConstText { dst: r, text: id });
                (r.into(), temp_ap(self))
            }
            Expr::Name(_) | Expr::Qualify { .. } | Expr::Deref(_) | Expr::Index { .. } => {
                // Designator (or constant name).
                if let Expr::Name(_) = checked.ast.expr(e) {
                    if let Some(NameRes::Const(c)) = checked.name_res.get(&e) {
                        return (self.lower_const(c), temp_ap(self));
                    }
                }
                let place = self.lower_place(e);
                let r = self.reg();
                self.load_place_into(&place, r);
                (r.into(), place.ap)
            }
            Expr::Call { .. } => {
                let op = self.lower_call(e, true).unwrap_or(Operand::ImmInt(0));
                (op, temp_ap(self))
            }
            &Expr::Unary { op, expr } => {
                let s = self.lower_expr(expr);
                let r = self.reg();
                self.emit(Instr::Un { dst: r, op, src: s });
                (r.into(), temp_ap(self))
            }
            &Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    let r = self.reg();
                    let rhs_bb = self.new_block();
                    let short_bb = self.new_block();
                    let join = self.new_block();
                    let l = self.lower_expr(lhs);
                    let (then_bb, else_bb) = if op == BinOp::And {
                        (rhs_bb, short_bb)
                    } else {
                        (short_bb, rhs_bb)
                    };
                    self.terminate(Terminator::Branch {
                        cond: l,
                        then_bb,
                        else_bb,
                    });
                    self.cur = rhs_bb;
                    let rv = self.lower_expr(rhs);
                    self.emit(Instr::Copy { dst: r, src: rv });
                    self.terminate(Terminator::Jump(join));
                    self.cur = short_bb;
                    self.emit(Instr::Copy {
                        dst: r,
                        src: Operand::ImmBool(op == BinOp::Or),
                    });
                    self.terminate(Terminator::Jump(join));
                    self.cur = join;
                    (r.into(), temp_ap(self))
                }
                BinOp::Concat => {
                    let l = self.lower_expr(lhs);
                    let rv = self.lower_expr(rhs);
                    let r = self.reg();
                    self.emit(Instr::Intrinsic {
                        dst: Some(r),
                        op: IntrinsicOp::TextConcat,
                        args: vec![l, rv],
                    });
                    (r.into(), temp_ap(self))
                }
                _ => {
                    let l = self.lower_expr(lhs);
                    let rv = self.lower_expr(rhs);
                    let r = self.reg();
                    self.emit(Instr::Bin {
                        dst: r,
                        op,
                        lhs: l,
                        rhs: rv,
                    });
                    (r.into(), temp_ap(self))
                }
            },
        }
    }

    fn lower_const(&mut self, c: &ConstVal) -> Operand {
        match c {
            ConstVal::Int(v) => Operand::ImmInt(*v),
            ConstVal::Bool(b) => Operand::ImmBool(*b),
            ConstVal::Char(ch) => Operand::ImmChar(*ch),
            ConstVal::Text(t) => {
                let id = self.text_id(t);
                let r = self.reg();
                self.emit(Instr::ConstText { dst: r, text: id });
                r.into()
            }
        }
    }

    // ---- calls -------------------------------------------------------------

    /// Lowers a call; returns the result operand when `want_value`.
    fn lower_call(&mut self, e: ExprId, want_value: bool) -> Option<Operand> {
        let checked = Arc::clone(&self.checked);
        let Expr::Call { callee: _, args } = checked.ast.expr(e) else {
            unreachable!("lower_call on non-call");
        };
        match checked.call_res.get(&e) {
            Some(&CallRes::Proc(pid)) => {
                let callee = checked.proc(pid);
                let mut ops = Vec::with_capacity(args.len());
                let mut addr_aps = Vec::new();
                let mut addr_slots = Vec::new();
                for (i, &a) in args.iter().enumerate() {
                    let pinfo = &callee.locals[i];
                    let mode = match pinfo.kind {
                        VarKind::Param(m) => m,
                        _ => ParamMode::Value,
                    };
                    let pty = pinfo.ty;
                    match mode {
                        ParamMode::Value => {
                            let aty = self.ty(a);
                            let op = self.lower_expr(a);
                            self.record_merge(pty, aty);
                            ops.push(op);
                        }
                        ParamMode::Var => {
                            let op = self.lower_addr_arg(a, &mut addr_aps, &mut addr_slots);
                            ops.push(op);
                        }
                    }
                }
                let dst = if callee.ret.is_some() && want_value {
                    Some(self.reg())
                } else {
                    None
                };
                self.emit(Instr::Call {
                    dst,
                    func: FuncId(pid.0),
                    args: ops,
                    addr_aps,
                    addr_slots,
                });
                dst.map(Operand::Reg)
            }
            Some(CallRes::Method {
                recv,
                name,
                recv_ty,
            }) => {
                let (recv, recv_ty) = (*recv, *recv_ty);
                let (m, _) = checked
                    .types
                    .resolve_method(recv_ty, name)
                    .expect("checker verified method");
                let m_params = &m.params;
                let m_ret = m.ret;
                let recv_op = self.lower_expr(recv);
                let mut ops = Vec::with_capacity(args.len() + 1);
                ops.push(recv_op);
                let mut addr_aps = Vec::new();
                let mut addr_slots = Vec::new();
                for (&a, (mode, pty)) in args.iter().zip(m_params.iter()) {
                    match mode {
                        ParamMode::Value => {
                            let aty = self.ty(a);
                            let op = self.lower_expr(a);
                            self.record_merge(*pty, aty);
                            ops.push(op);
                        }
                        ParamMode::Var => {
                            let op = self.lower_addr_arg(a, &mut addr_aps, &mut addr_slots);
                            ops.push(op);
                        }
                    }
                }
                // Receiver binding merges: an object of dynamic type `t`
                // flows into the self formal of the implementation bound at
                // `t` — merge each impl's self type with the subtype it is
                // bound at (not with the static receiver type, which would
                // needlessly collapse the whole hierarchy).
                for t in checked.types.subtypes(recv_ty) {
                    if let Some(&pid) = checked.method_impls.get(&(t, name.clone())) {
                        let self_ty = checked.proc(pid).locals[0].ty;
                        self.record_merge(self_ty, t);
                    }
                }
                let dst = if m_ret.is_some() && want_value {
                    Some(self.reg())
                } else {
                    None
                };
                self.emit(Instr::CallMethod {
                    dst,
                    method: name.clone(),
                    recv_ty,
                    args: ops,
                    addr_aps,
                    addr_slots,
                });
                dst.map(Operand::Reg)
            }
            Some(&CallRes::Builtin(b)) => self.lower_builtin(e, b, args, want_value),
            None => unreachable!("checker resolved every call"),
        }
    }

    /// Lowers a VAR actual: takes the address of the designator.
    fn lower_addr_arg(
        &mut self,
        a: ExprId,
        addr_aps: &mut Vec<ApId>,
        addr_slots: &mut Vec<SlotBase>,
    ) -> Operand {
        let place = self.lower_place(a);
        match &place.kind {
            LPlaceKind::Slot(addr) => {
                if let SlotBase::Local(v) = addr.base {
                    self.make_stack(v);
                }
                addr_slots.push(addr.base);
                let r = self.reg();
                self.emit(Instr::TakeAddrSlot {
                    dst: r,
                    addr: addr.clone(),
                });
                r.into()
            }
            LPlaceKind::Mem(addr) => {
                self.record_address_taken(&place.ap);
                let ap = self.aps.intern(place.ap.clone());
                addr_aps.push(ap);
                let r = self.reg();
                self.emit(Instr::TakeAddrMem {
                    dst: r,
                    addr: addr.clone(),
                    ap,
                });
                r.into()
            }
            LPlaceKind::Ind(loc) => *loc, // pass an incoming VAR param along
        }
    }

    fn lower_builtin(
        &mut self,
        e: ExprId,
        b: Builtin,
        args: &[ExprId],
        want_value: bool,
    ) -> Option<Operand> {
        let span = self.checked.ast.expr_span(e);
        match b {
            Builtin::New => {
                let ty = self.ty(args[0]);
                self.allocated.insert(ty);
                let r = self.reg();
                if let TypeKind::Array { range: None, .. } = self.checked.types.kind(ty) {
                    let len = self.lower_expr(args[1]);
                    self.emit(Instr::NewArray { dst: r, ty, len });
                } else {
                    self.emit(Instr::New { dst: r, ty });
                }
                Some(r.into())
            }
            Builtin::Number => {
                let aty = self.ty(args[0]);
                let checked = Arc::clone(&self.checked);
                match checked.types.kind(aty) {
                    TypeKind::Array { range: None, .. } => {
                        let (op, bap) = self.lower_expr_with_ap(args[0]);
                        let mut ap = bap;
                        ap.steps.push(ApStep::DopeLen { base_ty: aty });
                        let ap = self.aps.intern(ap);
                        let r = self.reg();
                        // NUMBER is an explicit dope read, visible to RLE.
                        self.emit(Instr::LoadMem {
                            dst: r,
                            addr: MemAddr {
                                base: op,
                                offset: 0,
                                indices: vec![],
                            },
                            ap,
                            hidden: false,
                        });
                        Some(r.into())
                    }
                    &TypeKind::Array {
                        range: Some((lo, hi)),
                        ..
                    } => Some(Operand::ImmInt(hi - lo + 1)),
                    _ => {
                        self.error(span, "NUMBER of a non-array");
                        Some(Operand::ImmInt(0))
                    }
                }
            }
            Builtin::IsType | Builtin::Narrow => {
                let src = self.lower_expr(args[0]);
                let ty = self.ty(args[1]);
                let r = self.reg();
                if b == Builtin::IsType {
                    self.emit(Instr::TypeTest { dst: r, src, ty });
                } else {
                    self.emit(Instr::NarrowTo { dst: r, src, ty });
                }
                Some(r.into())
            }
            _ => {
                let op = match b {
                    Builtin::Ord => IntrinsicOp::Ord,
                    Builtin::Chr => IntrinsicOp::Chr,
                    Builtin::Abs => IntrinsicOp::Abs,
                    Builtin::Min => IntrinsicOp::Min,
                    Builtin::Max => IntrinsicOp::Max,
                    Builtin::TextLen => IntrinsicOp::TextLen,
                    Builtin::TextChar => IntrinsicOp::TextChar,
                    Builtin::IntToText => IntrinsicOp::IntToText,
                    Builtin::CharToText => IntrinsicOp::CharToText,
                    Builtin::Print => IntrinsicOp::Print,
                    Builtin::PrintInt => IntrinsicOp::PrintInt,
                    _ => unreachable!(),
                };
                let ops: Vec<Operand> = args.iter().map(|&a| self.lower_expr(a)).collect();
                let needs_dst =
                    want_value && !matches!(op, IntrinsicOp::Print | IntrinsicOp::PrintInt);
                let dst = if needs_dst { Some(self.reg()) } else { None };
                self.emit(Instr::Intrinsic { dst, op, args: ops });
                dst.map(Operand::Reg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Instr;

    fn lower_src(src: &str) -> Program {
        let checked = mini_m3::compile(src).expect("compiles");
        lower(checked).expect("lowers")
    }

    fn count_instrs(p: &Program, pred: impl Fn(&Instr) -> bool) -> usize {
        p.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.instrs.iter())
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn lowers_simple_module() {
        let p = lower_src("MODULE M; VAR x: INTEGER; BEGIN x := 1 + 2 END M.");
        assert_eq!(p.funcs.len(), 1);
        let main = p.func(p.main);
        assert_eq!(main.name, "<main>");
        assert!(main.instr_count() >= 2); // Bin + StoreSlot
    }

    #[test]
    fn field_load_gets_access_path() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; g: T; END;
             VAR t: T; x: INTEGER;
             BEGIN t := NEW(T); x := t.g.f; END M.",
        );
        // t.g.f = two heap loads: t.g then (t.g).f
        assert_eq!(
            count_instrs(&p, |i| matches!(i, Instr::LoadMem { hidden: false, .. })),
            2
        );
        // The access paths should include one with two steps.
        let two_step = p.aps.iter().filter(|(_, ap)| ap.steps.len() == 2).count();
        assert!(two_step >= 1);
    }

    #[test]
    fn open_array_subscript_emits_hidden_dope_load() {
        let p = lower_src(
            "MODULE M;
             TYPE A = ARRAY OF INTEGER;
             VAR a: A; x: INTEGER;
             BEGIN a := NEW(A, 4); a[0] := 7; x := a[0]; END M.",
        );
        let hidden = count_instrs(&p, |i| matches!(i, Instr::LoadMem { hidden: true, .. }));
        assert_eq!(hidden, 2, "one bounds check per subscript");
        let visible = count_instrs(&p, |i| matches!(i, Instr::LoadMem { hidden: false, .. }));
        assert_eq!(visible, 1, "one element load");
        let stores = count_instrs(&p, |i| matches!(i, Instr::StoreMem { .. }));
        assert_eq!(stores, 1);
    }

    #[test]
    fn number_is_visible_dope_load() {
        let p = lower_src(
            "MODULE M;
             TYPE A = ARRAY OF INTEGER;
             VAR a: A; n: INTEGER;
             BEGIN a := NEW(A, 4); n := NUMBER(a); END M.",
        );
        assert_eq!(
            count_instrs(&p, |i| matches!(i, Instr::LoadMem { hidden: false, .. })),
            1
        );
    }

    #[test]
    fn var_actual_records_address_taken() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Bump (VAR x: INTEGER) = BEGIN x := x + 1 END Bump;
             VAR t: T;
             BEGIN t := NEW(T); Bump(t.f); END M.",
        );
        let tt = p.types.by_name("T").unwrap();
        let f = p.symbols.lookup("f").unwrap();
        assert!(p.address_taken.fields.contains(&(tt, f)));
    }

    #[test]
    fn with_alias_records_address_taken() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T;
             BEGIN t := NEW(T); WITH w = t.f DO w := 3 END; END M.",
        );
        let tt = p.types.by_name("T").unwrap();
        let f = p.symbols.lookup("f").unwrap();
        assert!(p.address_taken.fields.contains(&(tt, f)));
    }

    #[test]
    fn assignments_record_merges() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT END; S1 = T OBJECT END; S2 = T OBJECT END; S3 = T OBJECT END;
             VAR t: T; s1: S1; s2: S2; s3: S3;
             BEGIN
               s1 := NEW(S1); s2 := NEW(S2); s3 := NEW(S3);
               t := s1;  (* merge (T, S1) *)
               t := s2;  (* merge (T, S2) *)
             END M.",
        );
        let t = p.types.by_name("T").unwrap();
        let s1 = p.types.by_name("S1").unwrap();
        let s2 = p.types.by_name("S2").unwrap();
        let s3 = p.types.by_name("S3").unwrap();
        assert!(p.merges.contains(&(t, s1)));
        assert!(p.merges.contains(&(t, s2)));
        assert!(!p.merges.iter().any(|&(a, b)| a == s3 || b == s3));
    }

    #[test]
    fn call_binding_records_merge() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT END; S = T OBJECT END;
             PROCEDURE F (x: T) = BEGIN END F;
             VAR s: S;
             BEGIN s := NEW(S); F(s); END M.",
        );
        let t = p.types.by_name("T").unwrap();
        let s = p.types.by_name("S").unwrap();
        assert!(p.merges.contains(&(t, s)));
    }

    #[test]
    fn short_circuit_creates_blocks() {
        let p = lower_src(
            "MODULE M;
             VAR a, b: BOOLEAN; x: INTEGER;
             BEGIN IF a AND b THEN x := 1 END; END M.",
        );
        let main = p.func(p.main);
        assert!(main.blocks.len() >= 5);
    }

    #[test]
    fn while_loop_shape() {
        let p = lower_src(
            "MODULE M;
             VAR i: INTEGER;
             BEGIN i := 0; WHILE i < 10 DO i := i + 1 END; END M.",
        );
        let main = p.func(p.main);
        // entry (guard), body, exit — rotated form
        assert!(main.blocks.len() >= 3);
        // The loop back edge exists: some block jumps to a lower-numbered one.
        let mut has_back_edge = false;
        for (i, b) in main.blocks.iter().enumerate() {
            for s in b.term.successors() {
                if (s.0 as usize) <= i {
                    has_back_edge = true;
                }
            }
        }
        assert!(has_back_edge);
    }

    #[test]
    fn record_assignment_breaks_into_components() {
        let p = lower_src(
            "MODULE M;
             TYPE R = RECORD x, y: INTEGER; END; PR = REF R;
             VAR a, b: R; pr: PR;
             BEGIN
               pr := NEW(PR);
               a := b;
               pr^ := a;
             END M.",
        );
        // a := b: 2 slot loads + 2 slot stores; pr^ := a: 2 loads + 2 heap stores.
        assert_eq!(count_instrs(&p, |i| matches!(i, Instr::StoreMem { .. })), 2);
    }

    #[test]
    fn new_records_allocated_types() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT END; S = T OBJECT END;
             VAR t: T;
             BEGIN t := NEW(S); END M.",
        );
        let s = p.types.by_name("S").unwrap();
        let t = p.types.by_name("T").unwrap();
        assert!(p.allocated_types.contains(&s));
        assert!(!p.allocated_types.contains(&t));
    }

    #[test]
    fn method_call_lowered_with_receiver() {
        let p = lower_src(
            "MODULE M;
             TYPE T = OBJECT v: INTEGER; METHODS get (): INTEGER := Get; END;
             PROCEDURE Get (self: T): INTEGER = BEGIN RETURN self.v END Get;
             VAR t: T; x: INTEGER;
             BEGIN t := NEW(T); x := t.get(); END M.",
        );
        assert_eq!(
            count_instrs(&p, |i| matches!(i, Instr::CallMethod { .. })),
            1
        );
        let t = p.types.by_name("T").unwrap();
        assert!(p.method_impls["get"].contains_key(&t));
    }

    #[test]
    fn for_loop_canonical_index_ap() {
        let p = lower_src(
            "MODULE M;
             TYPE A = ARRAY OF INTEGER;
             VAR a: A; s: INTEGER;
             BEGIN
               a := NEW(A, 10);
               FOR i := 0 TO 9 DO s := s + a[i] END;
             END M.",
        );
        // The subscript AP a[i] should be canonical (Var index).
        let has_canonical_index = p.aps.iter().any(|(_, ap)| {
            ap.steps.iter().any(|s| {
                matches!(
                    s,
                    ApStep::Index {
                        index: ApIndex::Var(_),
                        ..
                    }
                )
            }) && ap.is_canonical()
        });
        assert!(has_canonical_index);
    }

    #[test]
    fn var_param_access_is_indirect() {
        let p = lower_src(
            "MODULE M;
             PROCEDURE F (VAR x: INTEGER) = BEGIN x := x + 1 END F;
             VAR g: INTEGER;
             BEGIN F(g); END M.",
        );
        assert!(count_instrs(&p, |i| matches!(i, Instr::LoadInd { .. })) >= 1);
        assert!(count_instrs(&p, |i| matches!(i, Instr::StoreInd { .. })) >= 1);
        assert!(count_instrs(&p, |i| matches!(i, Instr::TakeAddrSlot { .. })) == 1);
    }

    #[test]
    fn heap_ref_sites_excludes_hidden() {
        let p = lower_src(
            "MODULE M;
             TYPE A = ARRAY OF INTEGER;
             VAR a: A; x: INTEGER;
             BEGIN a := NEW(A, 4); x := a[2]; END M.",
        );
        let sites = p.heap_ref_sites();
        assert_eq!(sites.len(), 1, "only the visible element load");
    }

    /// A module exercising every remap surface: temp roots (WITH aliases,
    /// object bases), opaque indices, field symbols across multiple units,
    /// text literals, methods, open arrays, VAR actuals.
    const PARALLEL_SRC: &str = "MODULE M;
         TYPE Box = OBJECT val: INTEGER; next: Box; METHODS bump () := Bump; END;
              A = ARRAY OF INTEGER;
         VAR root: Box; arr: A; total: INTEGER; greet: TEXT;
         PROCEDURE Bump (self: Box) =
           BEGIN self.val := self.val + 1 END Bump;
         PROCEDURE Mk (v: INTEGER): Box =
           VAR b: Box;
           BEGIN b := NEW(Box); b.val := v; RETURN b END Mk;
         PROCEDURE Touch (VAR x: INTEGER) =
           BEGIN x := x + 1 END Touch;
         PROCEDURE Sum (b: Box): INTEGER =
           VAR s: INTEGER;
           BEGIN
             WITH w = b.val DO s := s + w END;
             Touch(b.val);
             RETURN s
           END Sum;
         BEGIN
           root := Mk(7);
           root.next := Mk(8);
           root.bump();
           arr := NEW(A, 4);
           arr[total] := Sum(root);
           greet := \"hi\" & \"there\";
         END M.";

    #[test]
    fn detached_absorb_matches_serial() {
        let serial = lower_src(PARALLEL_SRC);
        for workers in [2, 3, 8] {
            let checked = mini_m3::compile(PARALLEL_SRC).expect("compiles");
            let par = lower_parallel_with_workers(checked, workers).expect("lowers");
            assert_eq!(
                crate::pretty::program(&serial),
                crate::pretty::program(&par),
                "parallel lowering with {workers} workers diverged from serial"
            );
        }
    }

    #[test]
    fn effective_workers_clamps_to_items_and_cores() {
        // Single-core hosts never spawn (the pairs.scaling fix).
        assert_eq!(effective_workers_for(8, 100, 1), 1);
        // Never more workers than items.
        assert_eq!(effective_workers_for(8, 3, 16), 3);
        // Never more than the host exposes.
        assert_eq!(effective_workers_for(8, 100, 4), 4);
        // Zero requests still run the work.
        assert_eq!(effective_workers_for(0, 100, 4), 1);
        // No items: one worker, no division by zero.
        assert_eq!(effective_workers_for(4, 0, 4), 1);
    }
}
