//! The IR interpreter.
//!
//! Executes lowered programs, counting instructions and memory references
//! exactly as the paper's tables need them: every executed `LoadMem` /
//! `StoreMem` is one **heap** reference (including hidden dope-vector
//! bounds checks), stack/global traffic is an **other** reference, and
//! scalar register-class locals are free. Method dispatch performs an
//! implicit (hidden) header load; direct and dispatched calls charge a
//! small frame-traffic overhead, which is what method resolution and
//! inlining save in Figure 11.
//!
//! A [`MemHook`] observes every memory event with its synthetic byte
//! address, the source load site, and the loaded value — enough for both
//! the cache/timing model (Figure 8) and the ATOM-style redundancy trace
//! (Figures 9 and 10).

use crate::heap::Heap;
use crate::value::{HeapId, Location, Value};
use mini_m3::ast::{BinOp, UnOp};
use mini_m3::types::{TypeId, TypeKind};
use std::fmt;
use std::sync::Arc;
use tbaa_ir::ir::{
    BlockId, Instr, IntrinsicOp, MemAddr, Operand, Program, Reg, SlotAddr, SlotBase, Terminator,
    VarClass,
};
use tbaa_ir::path::{ApId, FuncId, VarId};

/// Base byte address of the simulated global area. The region bases are
/// deliberately staggered modulo the cache geometry so the heap, globals,
/// and stack do not all collide on cache index 0 — a layout artifact real
/// linkers also avoid.
pub const GLOBAL_BASE: u64 = 0x0000_2000_01a0;
/// Top byte address of the simulated stack (frames grow down).
pub const STACK_TOP: u64 = 0x0000_7fff_2f40;

/// Extra instructions charged per direct call (call/ret/frame setup).
pub const CALL_EXTRA_INSTRS: u64 = 3;
/// Extra instructions charged per dynamic dispatch on top of the call.
pub const DISPATCH_EXTRA_INSTRS: u64 = 4;

/// What kind of memory an event touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Heap data.
    Heap,
    /// Stack frames.
    Stack,
    /// Globals.
    Global,
}

/// A load site in the program text.
pub type Site = (FuncId, BlockId, u32);

/// One memory reference, as seen by a [`MemHook`].
#[derive(Debug)]
pub struct MemEvent<'v> {
    /// Synthetic byte address.
    pub addr: u64,
    /// Memory region.
    pub kind: MemKind,
    /// Load or store.
    pub is_load: bool,
    /// True for references that are implicit in the high-level IR
    /// (dope-vector bounds checks, dispatch header loads, frame traffic).
    pub hidden: bool,
    /// The instruction site, when the event comes from a visible
    /// instruction.
    pub site: Option<Site>,
    /// The access path, for heap references that have one.
    pub ap: Option<ApId>,
    /// Procedure activation id (for the redundancy definition of §3.5).
    pub activation: u64,
    /// The value loaded/stored, when it is a visible data reference.
    pub value: Option<&'v Value>,
}

/// Observer of memory references.
pub trait MemHook {
    /// Called once per memory reference, in execution order.
    fn access(&mut self, ev: &MemEvent<'_>);
}

/// A hook that ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHook;

impl MemHook for NullHook {
    fn access(&mut self, _ev: &MemEvent<'_>) {}
}

/// Executed-instruction and memory-reference counters (Table 4's columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounts {
    /// Instructions executed (including call/dispatch overhead).
    pub instructions: u64,
    /// Heap loads (visible + hidden).
    pub heap_loads: u64,
    /// Heap stores.
    pub heap_stores: u64,
    /// Stack and global loads.
    pub other_loads: u64,
    /// Stack and global stores.
    pub other_stores: u64,
    /// Direct calls executed.
    pub calls: u64,
    /// Dispatched method calls executed.
    pub method_calls: u64,
    /// Heap allocations.
    pub allocs: u64,
}

impl ExecCounts {
    /// Percentage of instructions that are heap loads.
    pub fn heap_load_pct(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            100.0 * self.heap_loads as f64 / self.instructions as f64
        }
    }

    /// Percentage of instructions that are other (stack/global) loads.
    pub fn other_load_pct(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            100.0 * self.other_loads as f64 / self.instructions as f64
        }
    }
}

/// A failed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// NIL dereference.
    NilDeref,
    /// Array subscript out of bounds.
    OutOfBounds,
    /// `NARROW` to an incompatible type.
    NarrowFailed,
    /// DIV or MOD by zero.
    DivByZero,
    /// Instruction budget exhausted.
    OutOfFuel,
    /// Call stack too deep.
    StackOverflow,
    /// Dispatch found no implementation (abstract method).
    NoMethod(String),
    /// A function fell off its end without RETURN while a value was
    /// expected.
    MissingReturn(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NilDeref => write!(f, "NIL dereference"),
            RuntimeError::OutOfBounds => write!(f, "array index out of bounds"),
            RuntimeError::NarrowFailed => write!(f, "NARROW to incompatible type"),
            RuntimeError::DivByZero => write!(f, "integer division by zero"),
            RuntimeError::OutOfFuel => write!(f, "instruction budget exhausted"),
            RuntimeError::StackOverflow => write!(f, "call stack overflow"),
            RuntimeError::NoMethod(m) => write!(f, "no implementation for method `{m}`"),
            RuntimeError::MissingReturn(p) => {
                write!(f, "procedure `{p}` returned without a value")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The result of a successful run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Counters.
    pub counts: ExecCounts,
    /// Everything PRINT/PRINTI wrote.
    pub output: String,
    /// Heap cells allocated.
    pub heap_cells: usize,
}

/// Interpreter configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Maximum executed instructions.
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for RunConfig {
    /// The interpreter uses an explicit activation stack (no Rust
    /// recursion), so deep MiniM3 recursion is cheap; the cap only bounds
    /// runaway programs.
    fn default() -> Self {
        RunConfig {
            fuel: 2_000_000_000,
            max_depth: 100_000,
        }
    }
}

/// Runs a program's `<main>` with the given hook.
///
/// # Errors
///
/// Returns a [`RuntimeError`] if the program traps or exhausts its budget.
pub fn run(
    prog: &Program,
    hook: &mut dyn MemHook,
    config: RunConfig,
) -> Result<RunOutcome, RuntimeError> {
    let mut interp = Interp::new(prog, hook, config);
    interp.push_frame(prog.main, Vec::new(), None, (BlockId(0), 0), true)?;
    interp.exec()?;
    Ok(RunOutcome {
        counts: interp.counts,
        output: interp.output,
        heap_cells: interp.heap.len(),
    })
}

struct Frame {
    func: FuncId,
    regs: Vec<Value>,
    vars: Vec<Vec<Value>>,
    activation: u64,
    base_addr: u64,
    /// Bytes to give back to the simulated stack pointer on return.
    frame_bytes: u64,
    /// Caller register receiving the return value, if any.
    ret_dst: Option<Reg>,
    /// Where the caller resumes: `(block, instruction index)`.
    resume: (BlockId, usize),
}

/// Per-function frame layout: slot offset of each variable.
struct Layout {
    var_offsets: Vec<u32>,
    size: u32,
}

struct Interp<'p, 'h> {
    prog: &'p Program,
    hook: &'h mut dyn MemHook,
    config: RunConfig,
    heap: Heap,
    globals: Vec<Vec<Value>>,
    frames: Vec<Frame>,
    layouts: Vec<Layout>,
    texts: Vec<Arc<str>>,
    counts: ExecCounts,
    output: String,
    fuel: u64,
    next_activation: u64,
    sp: u64,
}

impl<'p, 'h> Interp<'p, 'h> {
    fn new(prog: &'p Program, hook: &'h mut dyn MemHook, config: RunConfig) -> Self {
        let globals = prog
            .globals
            .iter()
            .map(|g| zero_storage(prog, g.ty, g.size))
            .collect();
        let layouts = prog
            .funcs
            .iter()
            .map(|f| {
                let mut offsets = Vec::with_capacity(f.vars.len());
                let mut size = 0u32;
                for v in &f.vars {
                    offsets.push(size);
                    size += v.size;
                }
                Layout {
                    var_offsets: offsets,
                    size,
                }
            })
            .collect();
        let texts = prog.texts.iter().map(|t| Arc::from(t.as_str())).collect();
        Interp {
            prog,
            hook,
            config,
            heap: Heap::new(),
            globals,
            frames: Vec::new(),
            layouts,
            texts,
            counts: ExecCounts::default(),
            output: String::new(),
            fuel: config.fuel,
            next_activation: 0,
            sp: STACK_TOP,
        }
    }

    fn frame(&self) -> &Frame {
        self.frames.last().expect("active frame")
    }

    fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("active frame")
    }

    fn spend(&mut self, n: u64) -> Result<(), RuntimeError> {
        self.counts.instructions += n;
        if self.fuel < n {
            return Err(RuntimeError::OutOfFuel);
        }
        self.fuel -= n;
        Ok(())
    }

    fn operand(&self, op: Operand) -> Value {
        match op {
            Operand::Reg(r) => self.frame().regs[r.0 as usize].clone(),
            Operand::ImmInt(v) => Value::Int(v),
            Operand::ImmBool(b) => Value::Bool(b),
            Operand::ImmChar(c) => Value::Char(c),
            Operand::ImmNil => Value::Nil,
        }
    }

    fn set_reg(&mut self, r: tbaa_ir::ir::Reg, v: Value) {
        self.frame_mut().regs[r.0 as usize] = v;
    }

    // ---- addresses ------------------------------------------------------

    fn slot_index(&self, addr: &SlotAddr, storage_len: usize) -> Result<u32, RuntimeError> {
        let mut idx = addr.offset as i64;
        for (op, lo, scale) in &addr.indices {
            let i = self.operand(*op).as_int();
            idx += (i - lo) * *scale as i64;
        }
        if idx < 0 || idx as usize >= storage_len {
            return Err(RuntimeError::OutOfBounds);
        }
        Ok(idx as u32)
    }

    fn frame_slot_addr(&self, frame_idx: usize, var: VarId, offset: u32) -> u64 {
        let f = &self.frames[frame_idx];
        let layout = &self.layouts[f.func.0 as usize];
        f.base_addr + (layout.var_offsets[var.0 as usize] + offset) as u64 * 8
    }

    fn global_slot_addr(&self, g: mini_m3::check::GlobalId, offset: u32) -> u64 {
        GLOBAL_BASE + (self.prog.globals[g.0 as usize].offset + offset) as u64 * 8
    }

    /// Resolves a heap address to (cell, slot), checking bounds and NIL.
    fn mem_slot(&self, addr: &MemAddr) -> Result<(HeapId, u32), RuntimeError> {
        let base = self.operand(addr.base);
        let cell = match base {
            Value::Ref(c) => c,
            Value::Nil => return Err(RuntimeError::NilDeref),
            other => panic!("heap access through non-reference {other:?}"),
        };
        let mut idx = addr.offset as i64;
        for (op, lo, scale) in &addr.indices {
            let i = self.operand(*op).as_int();
            idx += (i - lo) * *scale as i64;
        }
        if idx < 0 || idx as usize >= self.heap.cell(cell).slots.len() {
            return Err(RuntimeError::OutOfBounds);
        }
        Ok((cell, idx as u32))
    }

    // ---- events ---------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        addr: u64,
        kind: MemKind,
        is_load: bool,
        hidden: bool,
        site: Option<Site>,
        ap: Option<ApId>,
        value: Option<&Value>,
    ) {
        match (kind, is_load) {
            (MemKind::Heap, true) => self.counts.heap_loads += 1,
            (MemKind::Heap, false) => self.counts.heap_stores += 1,
            (_, true) => self.counts.other_loads += 1,
            (_, false) => self.counts.other_stores += 1,
        }
        let activation = self.frame().activation;
        self.hook.access(&MemEvent {
            addr,
            kind,
            is_load,
            hidden,
            site,
            ap,
            activation,
            value,
        });
    }

    // ---- calls ----------------------------------------------------------

    /// Pushes an activation. `resume` is where the *caller* continues.
    fn push_frame(
        &mut self,
        fid: FuncId,
        args: Vec<Value>,
        ret_dst: Option<Reg>,
        resume: (BlockId, usize),
        is_main: bool,
    ) -> Result<(), RuntimeError> {
        if self.frames.len() >= self.config.max_depth {
            return Err(RuntimeError::StackOverflow);
        }
        let func = self.prog.func(fid);
        let layout = &self.layouts[fid.0 as usize];
        let frame_bytes = (layout.size as u64 + 4) * 8;
        self.sp -= frame_bytes;
        let base_addr = self.sp;
        let activation = self.next_activation;
        self.next_activation += 1;
        let mut vars: Vec<Vec<Value>> = func
            .vars
            .iter()
            .map(|v| zero_storage(self.prog, v.ty, v.size))
            .collect();
        let n_args = args.len();
        for (i, a) in args.into_iter().enumerate() {
            vars[i][0] = a;
        }
        self.frames.push(Frame {
            func: fid,
            regs: vec![Value::Nil; func.n_regs as usize],
            vars,
            activation,
            base_addr,
            frame_bytes,
            ret_dst,
            resume,
        });
        // Call overhead: frame setup traffic (hidden stack events).
        if !is_main {
            self.spend(CALL_EXTRA_INSTRS)?;
            for k in 0..(2 + n_args as u64) {
                self.emit(
                    base_addr + k * 8,
                    MemKind::Stack,
                    false,
                    true,
                    None,
                    None,
                    None,
                );
            }
        }
        Ok(())
    }

    /// The main execution loop. Calls push activations rather than
    /// recursing on the Rust stack, so MiniM3 recursion depth is bounded
    /// only by [`RunConfig::max_depth`].
    fn exec(&mut self) -> Result<(), RuntimeError> {
        let mut bb = BlockId(0);
        let mut ii = 0usize;
        'outer: loop {
            let fid = self.frame().func;
            let func = self.prog.func(fid);
            let block = func.block(bb);
            while ii < block.instrs.len() {
                let instr = &block.instrs[ii];
                match instr {
                    Instr::Call {
                        dst,
                        func: callee,
                        args,
                        ..
                    } => {
                        self.spend(1)?;
                        self.counts.calls += 1;
                        let argv: Vec<Value> = args.iter().map(|a| self.operand(*a)).collect();
                        self.push_frame(*callee, argv, *dst, (bb, ii + 1), false)?;
                        bb = BlockId(0);
                        ii = 0;
                        continue 'outer;
                    }
                    Instr::CallMethod {
                        dst, method, args, ..
                    } => {
                        self.spend(1)?;
                        self.counts.method_calls += 1;
                        self.spend(DISPATCH_EXTRA_INSTRS)?;
                        let argv: Vec<Value> = args.iter().map(|a| self.operand(*a)).collect();
                        let recv_cell = match &argv[0] {
                            Value::Ref(c) => *c,
                            Value::Nil => return Err(RuntimeError::NilDeref),
                            other => panic!("method receiver {other:?}"),
                        };
                        // Dispatch reads the object header (typecode): an
                        // implicit heap load.
                        let hdr = self.heap.cell(recv_cell).addr.wrapping_sub(8);
                        self.emit(hdr, MemKind::Heap, true, true, None, None, None);
                        let dyn_ty = self.heap.cell(recv_cell).ty;
                        let target = self.resolve_method(dyn_ty, method)?;
                        self.push_frame(target, argv, *dst, (bb, ii + 1), false)?;
                        bb = BlockId(0);
                        ii = 0;
                        continue 'outer;
                    }
                    _ => {
                        self.exec_instr(fid, bb, ii as u32, instr)?;
                        ii += 1;
                    }
                }
            }
            match &block.term {
                Terminator::Jump(t) => {
                    bb = *t;
                    ii = 0;
                }
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    self.spend(1)?;
                    bb = if self.operand(*cond).as_bool() {
                        *then_bb
                    } else {
                        *else_bb
                    };
                    ii = 0;
                }
                Terminator::Return(op) => {
                    self.spend(1)?;
                    let value = op.map(|o| self.operand(o));
                    let is_main = self.frames.len() == 1;
                    if !is_main {
                        let base_addr = self.frame().base_addr;
                        for k in 0..2u64 {
                            self.emit(
                                base_addr + k * 8,
                                MemKind::Stack,
                                true,
                                true,
                                None,
                                None,
                                None,
                            );
                        }
                    }
                    let fr = self.frames.pop().expect("active frame");
                    self.sp += fr.frame_bytes;
                    if is_main {
                        return Ok(());
                    }
                    match (fr.ret_dst, value) {
                        (Some(d), Some(v)) => self.set_reg(d, v),
                        (Some(_), None) => {
                            let name = self.prog.func(fr.func).name.clone();
                            return Err(RuntimeError::MissingReturn(name));
                        }
                        _ => {}
                    }
                    bb = fr.resume.0;
                    ii = fr.resume.1;
                }
            }
        }
    }

    // ---- instructions ------------------------------------------------------

    fn exec_instr(
        &mut self,
        fid: FuncId,
        bb: BlockId,
        ii: u32,
        instr: &Instr,
    ) -> Result<(), RuntimeError> {
        // Plain reads/writes of register-class locals are register moves a
        // register-allocating back end coalesces away: free.
        let free = match instr {
            Instr::LoadSlot { addr, .. } | Instr::StoreSlot { addr, .. } if addr.is_simple() => {
                match addr.base {
                    SlotBase::Local(v) => {
                        self.prog.func(fid).vars[v.0 as usize].class == VarClass::Register
                    }
                    SlotBase::Global(_) => false,
                }
            }
            _ => false,
        };
        if !free {
            self.spend(1)?;
        }
        let site = Some((fid, bb, ii));
        match instr {
            Instr::ConstText { dst, text } => {
                let v = Value::Text(self.texts[*text as usize].clone());
                self.set_reg(*dst, v);
            }
            Instr::Copy { dst, src } => {
                let v = self.operand(*src);
                self.set_reg(*dst, v);
            }
            Instr::Un { dst, op, src } => {
                let v = self.operand(*src);
                let r = match op {
                    UnOp::Neg => Value::Int(-v.as_int()),
                    UnOp::Not => Value::Bool(!v.as_bool()),
                };
                self.set_reg(*dst, r);
            }
            Instr::Bin { dst, op, lhs, rhs } => {
                let l = self.operand(*lhs);
                let r = self.operand(*rhs);
                let v = self.binop(*op, l, r)?;
                self.set_reg(*dst, v);
            }
            Instr::LoadSlot { dst, addr } => {
                let v = self.load_slot(addr, site)?;
                self.set_reg(*dst, v);
            }
            Instr::StoreSlot { addr, src } => {
                let v = self.operand(*src);
                self.store_slot(addr, v, site)?;
            }
            Instr::LoadMem {
                dst,
                addr,
                ap,
                hidden,
            } => {
                let (cell, slot) = self.mem_slot(addr)?;
                let value = self.heap.cell(cell).slots[slot as usize].clone();
                let a = self.heap.cell(cell).addr + slot as u64 * 8;
                self.emit(
                    a,
                    MemKind::Heap,
                    true,
                    *hidden,
                    site,
                    Some(*ap),
                    Some(&value),
                );
                self.set_reg(*dst, value);
            }
            Instr::StoreMem { addr, src, ap } => {
                let v = self.operand(*src);
                let (cell, slot) = self.mem_slot(addr)?;
                let a = self.heap.cell(cell).addr + slot as u64 * 8;
                self.emit(a, MemKind::Heap, false, false, site, Some(*ap), Some(&v));
                self.heap.cell_mut(cell).slots[slot as usize] = v;
            }
            Instr::LoadInd { dst, loc } => {
                let Value::Loc(l) = self.operand(*loc) else {
                    panic!("LoadInd through non-location");
                };
                let v = self.load_location(l, site)?;
                self.set_reg(*dst, v);
            }
            Instr::StoreInd { loc, src } => {
                let v = self.operand(*src);
                let Value::Loc(l) = self.operand(*loc) else {
                    panic!("StoreInd through non-location");
                };
                self.store_location(l, v, site)?;
            }
            Instr::TakeAddrSlot { dst, addr } => {
                let loc = match addr.base {
                    SlotBase::Local(v) => {
                        let storage_len = self.frame().vars[v.0 as usize].len();
                        let off = self.slot_index(addr, storage_len)?;
                        Location::Frame {
                            frame: (self.frames.len() - 1) as u32,
                            var: v,
                            offset: off,
                        }
                    }
                    SlotBase::Global(g) => {
                        let storage_len = self.globals[g.0 as usize].len();
                        let off = self.slot_index(addr, storage_len)?;
                        Location::Global {
                            global: g,
                            offset: off,
                        }
                    }
                };
                self.set_reg(*dst, Value::Loc(loc));
            }
            Instr::TakeAddrMem { dst, addr, .. } => {
                let (cell, slot) = self.mem_slot(addr)?;
                self.set_reg(*dst, Value::Loc(Location::Heap { cell, slot }));
            }
            Instr::New { dst, ty } => {
                self.counts.allocs += 1;
                let slots = self.new_slots(*ty);
                let n = slots.len() as u32;
                let cell = self.heap.alloc(*ty, n, Value::Nil);
                self.heap.cell_mut(cell).slots = slots;
                self.set_reg(*dst, Value::Ref(cell));
            }
            Instr::NewArray { dst, ty, len } => {
                self.counts.allocs += 1;
                let n = self.operand(*len).as_int();
                if n < 0 {
                    return Err(RuntimeError::OutOfBounds);
                }
                let TypeKind::Array { elem, .. } = self.prog.types.kind(*ty) else {
                    panic!("NewArray of non-array type");
                };
                let esz = self.prog.types.size_of(*elem);
                let elem_zero_slots = self.zero_slots_of(*elem);
                let mut slots = Vec::with_capacity(1 + (n as usize) * esz as usize);
                slots.push(Value::Int(n));
                for _ in 0..n {
                    slots.extend(elem_zero_slots.iter().cloned());
                }
                let total = slots.len() as u32;
                let cell = self.heap.alloc(*ty, total, Value::Nil);
                self.heap.cell_mut(cell).slots = slots;
                self.set_reg(*dst, Value::Ref(cell));
            }
            Instr::Call { .. } | Instr::CallMethod { .. } => {
                unreachable!("calls are handled by the activation-stack driver")
            }
            Instr::Intrinsic { dst, op, args } => {
                let argv: Vec<Value> = args.iter().map(|a| self.operand(*a)).collect();
                let r = self.intrinsic(*op, &argv)?;
                if let (Some(d), Some(v)) = (dst, r) {
                    self.set_reg(*d, v);
                }
            }
            Instr::TypeTest { dst, src, ty } => {
                let v = self.operand(*src);
                let b = match v {
                    Value::Ref(c) => self.prog.types.is_subtype(self.heap.cell(c).ty, *ty),
                    _ => false,
                };
                self.set_reg(*dst, Value::Bool(b));
            }
            Instr::NarrowTo { dst, src, ty } => {
                let v = self.operand(*src);
                match &v {
                    Value::Ref(c) => {
                        if !self.prog.types.is_subtype(self.heap.cell(*c).ty, *ty) {
                            return Err(RuntimeError::NarrowFailed);
                        }
                    }
                    Value::Nil => {}
                    other => panic!("NARROW of {other:?}"),
                }
                self.set_reg(*dst, v);
            }
        }
        Ok(())
    }

    fn resolve_method(&self, ty: TypeId, method: &str) -> Result<FuncId, RuntimeError> {
        if let Some(impls) = self.prog.method_impls.get(method) {
            for t in self.prog.types.ancestry(ty) {
                if let Some(&f) = impls.get(&t) {
                    return Ok(f);
                }
            }
        }
        Err(RuntimeError::NoMethod(method.to_string()))
    }

    fn load_slot(&mut self, addr: &SlotAddr, site: Option<Site>) -> Result<Value, RuntimeError> {
        match addr.base {
            SlotBase::Local(v) => {
                let storage_len = self.frame().vars[v.0 as usize].len();
                let off = self.slot_index(addr, storage_len)?;
                let val = self.frame().vars[v.0 as usize][off as usize].clone();
                let func = self.frame().func;
                let is_mem = self.prog.func(func).vars[v.0 as usize].class == VarClass::Stack;
                if is_mem {
                    let a = self.frame_slot_addr(self.frames.len() - 1, v, off);
                    self.emit(a, MemKind::Stack, true, false, site, None, Some(&val));
                }
                Ok(val)
            }
            SlotBase::Global(g) => {
                let storage_len = self.globals[g.0 as usize].len();
                let off = self.slot_index(addr, storage_len)?;
                let val = self.globals[g.0 as usize][off as usize].clone();
                let a = self.global_slot_addr(g, off);
                self.emit(a, MemKind::Global, true, false, site, None, Some(&val));
                Ok(val)
            }
        }
    }

    fn store_slot(
        &mut self,
        addr: &SlotAddr,
        val: Value,
        site: Option<Site>,
    ) -> Result<(), RuntimeError> {
        match addr.base {
            SlotBase::Local(v) => {
                let storage_len = self.frame().vars[v.0 as usize].len();
                let off = self.slot_index(addr, storage_len)?;
                let func = self.frame().func;
                let is_mem = self.prog.func(func).vars[v.0 as usize].class == VarClass::Stack;
                if is_mem {
                    let a = self.frame_slot_addr(self.frames.len() - 1, v, off);
                    self.emit(a, MemKind::Stack, false, false, site, None, Some(&val));
                }
                self.frame_mut().vars[v.0 as usize][off as usize] = val;
                Ok(())
            }
            SlotBase::Global(g) => {
                let storage_len = self.globals[g.0 as usize].len();
                let off = self.slot_index(addr, storage_len)?;
                let a = self.global_slot_addr(g, off);
                self.emit(a, MemKind::Global, false, false, site, None, Some(&val));
                self.globals[g.0 as usize][off as usize] = val;
                Ok(())
            }
        }
    }

    fn load_location(&mut self, l: Location, site: Option<Site>) -> Result<Value, RuntimeError> {
        match l {
            Location::Frame { frame, var, offset } => {
                let val = self.frames[frame as usize].vars[var.0 as usize][offset as usize].clone();
                let a = self.frame_slot_addr(frame as usize, var, offset);
                self.emit(a, MemKind::Stack, true, false, site, None, Some(&val));
                Ok(val)
            }
            Location::Global { global, offset } => {
                let val = self.globals[global.0 as usize][offset as usize].clone();
                let a = self.global_slot_addr(global, offset);
                self.emit(a, MemKind::Global, true, false, site, None, Some(&val));
                Ok(val)
            }
            Location::Heap { cell, slot } => {
                let val = self.heap.cell(cell).slots[slot as usize].clone();
                let a = self.heap.cell(cell).addr + slot as u64 * 8;
                self.emit(a, MemKind::Heap, true, false, site, None, Some(&val));
                Ok(val)
            }
        }
    }

    fn store_location(
        &mut self,
        l: Location,
        val: Value,
        site: Option<Site>,
    ) -> Result<(), RuntimeError> {
        match l {
            Location::Frame { frame, var, offset } => {
                let a = self.frame_slot_addr(frame as usize, var, offset);
                self.emit(a, MemKind::Stack, false, false, site, None, Some(&val));
                self.frames[frame as usize].vars[var.0 as usize][offset as usize] = val;
                Ok(())
            }
            Location::Global { global, offset } => {
                let a = self.global_slot_addr(global, offset);
                self.emit(a, MemKind::Global, false, false, site, None, Some(&val));
                self.globals[global.0 as usize][offset as usize] = val;
                Ok(())
            }
            Location::Heap { cell, slot } => {
                let a = self.heap.cell(cell).addr + slot as u64 * 8;
                self.emit(a, MemKind::Heap, false, false, site, None, Some(&val));
                self.heap.cell_mut(cell).slots[slot as usize] = val;
                Ok(())
            }
        }
    }

    fn binop(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, RuntimeError> {
        Ok(match op {
            BinOp::Add => Value::Int(l.as_int().wrapping_add(r.as_int())),
            BinOp::Sub => Value::Int(l.as_int().wrapping_sub(r.as_int())),
            BinOp::Mul => Value::Int(l.as_int().wrapping_mul(r.as_int())),
            BinOp::Div => {
                let d = r.as_int();
                if d == 0 {
                    return Err(RuntimeError::DivByZero);
                }
                Value::Int(l.as_int().div_euclid(d))
            }
            BinOp::Mod => {
                let d = r.as_int();
                if d == 0 {
                    return Err(RuntimeError::DivByZero);
                }
                Value::Int(l.as_int().rem_euclid(d))
            }
            BinOp::Concat => unreachable!("lowered to an intrinsic"),
            BinOp::Eq => Value::Bool(l == r),
            BinOp::Ne => Value::Bool(l != r),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let c = match (&l, &r) {
                    (Value::Int(a), Value::Int(b)) => a.cmp(b),
                    (Value::Char(a), Value::Char(b)) => a.cmp(b),
                    other => panic!("ordering on {other:?}"),
                };
                Value::Bool(match op {
                    BinOp::Lt => c.is_lt(),
                    BinOp::Le => c.is_le(),
                    BinOp::Gt => c.is_gt(),
                    _ => c.is_ge(),
                })
            }
            BinOp::And | BinOp::Or => unreachable!("lowered to control flow"),
        })
    }

    fn intrinsic(
        &mut self,
        op: IntrinsicOp,
        args: &[Value],
    ) -> Result<Option<Value>, RuntimeError> {
        Ok(match op {
            IntrinsicOp::Ord => Some(Value::Int(args[0].as_char() as i64)),
            IntrinsicOp::Chr => Some(Value::Char(
                char::from_u32(args[0].as_int() as u32).unwrap_or('\u{FFFD}'),
            )),
            IntrinsicOp::Abs => Some(Value::Int(args[0].as_int().wrapping_abs())),
            IntrinsicOp::Min => Some(Value::Int(args[0].as_int().min(args[1].as_int()))),
            IntrinsicOp::Max => Some(Value::Int(args[0].as_int().max(args[1].as_int()))),
            IntrinsicOp::TextLen => Some(Value::Int(args[0].as_text().chars().count() as i64)),
            IntrinsicOp::TextChar => {
                let t = args[0].as_text();
                let i = args[1].as_int();
                match t.chars().nth(i.max(0) as usize) {
                    Some(c) if i >= 0 => Some(Value::Char(c)),
                    _ => return Err(RuntimeError::OutOfBounds),
                }
            }
            IntrinsicOp::IntToText => Some(Value::Text(Arc::from(args[0].as_int().to_string()))),
            IntrinsicOp::CharToText => Some(Value::Text(Arc::from(args[0].as_char().to_string()))),
            IntrinsicOp::TextConcat => {
                let mut s = String::from(&*args[0].as_text());
                s.push_str(&args[1].as_text());
                Some(Value::Text(Arc::from(s)))
            }
            IntrinsicOp::Print => {
                self.output.push_str(&args[0].as_text());
                None
            }
            IntrinsicOp::PrintInt => {
                self.output.push_str(&args[0].as_int().to_string());
                None
            }
        })
    }

    /// Zero-initialized heap slots for a NEW of `ty` (object or REF).
    fn new_slots(&self, ty: TypeId) -> Vec<Value> {
        match self.prog.types.kind(ty) {
            TypeKind::Object { .. } => {
                let mut out = Vec::new();
                for f in self.prog.types.all_fields(ty) {
                    out.extend(self.zero_slots_of(f.ty));
                }
                if out.is_empty() {
                    out.push(Value::Nil);
                }
                out
            }
            TypeKind::Ref { target, .. } => {
                let v = self.zero_slots_of(*target);
                if v.is_empty() {
                    vec![Value::Nil]
                } else {
                    v
                }
            }
            other => panic!("NEW of {other:?}"),
        }
    }

    fn zero_slots_of(&self, ty: TypeId) -> Vec<Value> {
        zero_storage(self.prog, ty, self.prog.types.size_of(ty))
    }
}

/// Zero storage of `size` slots for a value of type `ty` (aggregates are
/// zeroed per component).
fn zero_storage(prog: &Program, ty: TypeId, size: u32) -> Vec<Value> {
    fn fill(prog: &Program, ty: TypeId, out: &mut Vec<Value>) {
        match prog.types.kind(ty) {
            TypeKind::Record { fields } => {
                for f in fields {
                    fill(prog, f.ty, out);
                }
            }
            TypeKind::Array {
                range: Some((lo, hi)),
                elem,
            } => {
                for _ in 0..(hi - lo + 1).max(0) {
                    fill(prog, *elem, out);
                }
            }
            _ => out.push(Value::zero_of(&prog.types, ty)),
        }
    }
    let mut out = Vec::with_capacity(size as usize);
    fill(prog, ty, &mut out);
    while (out.len() as u32) < size.max(1) {
        out.push(Value::Nil);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbaa_ir::compile_to_ir;

    fn run_src(src: &str) -> RunOutcome {
        let prog = compile_to_ir(src).unwrap();
        run(&prog, &mut NullHook, RunConfig::default()).unwrap()
    }

    #[test]
    fn arithmetic_and_output() {
        let out = run_src(
            "MODULE M;
             VAR x: INTEGER;
             BEGIN
               x := 6 * 7;
               PRINTI(x);
               PRINT(\" ok\");
             END M.",
        );
        assert_eq!(out.output, "42 ok");
    }

    #[test]
    fn control_flow_loops() {
        let out = run_src(
            "MODULE M;
             VAR s: INTEGER;
             BEGIN
               s := 0;
               FOR i := 1 TO 10 DO s := s + i END;
               WHILE s > 50 DO s := s - 3 END;
               REPEAT s := s + 1 UNTIL s >= 51;
               PRINTI(s);
             END M.",
        );
        assert_eq!(out.output, "51");
    }

    #[test]
    fn objects_fields_and_heap_counts() {
        let out = run_src(
            "MODULE M;
             TYPE T = OBJECT f, g: INTEGER; END;
             VAR t: T; x: INTEGER;
             BEGIN
               t := NEW(T);
               t.f := 10; t.g := 32;
               x := t.f + t.g;
               PRINTI(x);
             END M.",
        );
        assert_eq!(out.output, "42");
        assert_eq!(out.counts.heap_stores, 2);
        assert_eq!(out.counts.heap_loads, 2);
        assert_eq!(out.counts.allocs, 1);
    }

    #[test]
    fn open_arrays_and_dope_loads() {
        let out = run_src(
            "MODULE M;
             TYPE A = ARRAY OF INTEGER;
             VAR a: A; s: INTEGER;
             BEGIN
               a := NEW(A, 5);
               FOR i := 0 TO 4 DO a[i] := i END;
               s := 0;
               FOR i := 0 TO 4 DO s := s + a[i] END;
               PRINTI(s); PRINTI(NUMBER(a));
             END M.",
        );
        assert_eq!(out.output, "105");
        // 5 element loads + 5 hidden dope loads (reads) + 5 hidden on the
        // store side + 1 NUMBER load.
        assert_eq!(out.counts.heap_loads, 16);
        assert_eq!(out.counts.heap_stores, 5);
    }

    #[test]
    fn methods_dispatch_dynamically() {
        let out = run_src(
            "MODULE M;
             TYPE
               A = OBJECT METHODS id (): INTEGER := IdA; END;
               B = A OBJECT OVERRIDES id := IdB; END;
             PROCEDURE IdA (self: A): INTEGER = BEGIN RETURN 1 END IdA;
             PROCEDURE IdB (self: B): INTEGER = BEGIN RETURN 2 END IdB;
             VAR a: A;
             BEGIN
               a := NEW(A); PRINTI(a.id());
               a := NEW(B); PRINTI(a.id());
             END M.",
        );
        assert_eq!(out.output, "12");
        assert_eq!(out.counts.method_calls, 2);
    }

    #[test]
    fn var_params_write_back() {
        let out = run_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Bump (VAR x: INTEGER) = BEGIN x := x + 1 END Bump;
             VAR t: T; g: INTEGER;
             BEGIN
               t := NEW(T);
               Bump(g); Bump(g);
               Bump(t.f);
               PRINTI(g); PRINTI(t.f);
             END M.",
        );
        assert_eq!(out.output, "21");
    }

    #[test]
    fn with_alias_reads_and_writes() {
        let out = run_src(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T;
             BEGIN
               t := NEW(T);
               WITH w = t.f DO w := 5; w := w + 1 END;
               PRINTI(t.f);
             END M.",
        );
        assert_eq!(out.output, "6");
    }

    #[test]
    fn narrow_and_istype() {
        let out = run_src(
            "MODULE M;
             TYPE T = OBJECT END; S = T OBJECT v: INTEGER; END;
             VAR t: T; s: S;
             BEGIN
               t := NEW(S);
               IF ISTYPE(t, S) THEN
                 s := NARROW(t, S);
                 s.v := 9;
                 PRINTI(s.v);
               END;
             END M.",
        );
        assert_eq!(out.output, "9");
    }

    #[test]
    fn nil_deref_traps() {
        let prog = compile_to_ir(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; x: INTEGER;
             BEGIN x := t.f; END M.",
        )
        .unwrap();
        let err = run(&prog, &mut NullHook, RunConfig::default()).unwrap_err();
        assert_eq!(err, RuntimeError::NilDeref);
    }

    #[test]
    fn out_of_bounds_traps() {
        let prog = compile_to_ir(
            "MODULE M;
             TYPE A = ARRAY OF INTEGER;
             VAR a: A; x: INTEGER;
             BEGIN a := NEW(A, 3); x := a[3]; END M.",
        )
        .unwrap();
        let err = run(&prog, &mut NullHook, RunConfig::default()).unwrap_err();
        assert_eq!(err, RuntimeError::OutOfBounds);
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let prog = compile_to_ir(
            "MODULE M;
             VAR x: INTEGER;
             BEGIN LOOP x := x + 1 END; END M.",
        )
        .unwrap();
        let err = run(
            &prog,
            &mut NullHook,
            RunConfig {
                fuel: 10_000,
                max_depth: 100,
            },
        )
        .unwrap_err();
        assert_eq!(err, RuntimeError::OutOfFuel);
    }

    #[test]
    fn recursion_and_texts() {
        let out = run_src(
            "MODULE M;
             PROCEDURE Fib (n: INTEGER): INTEGER =
             BEGIN
               IF n < 2 THEN RETURN n END;
               RETURN Fib(n - 1) + Fib(n - 2);
             END Fib;
             VAR t: TEXT;
             BEGIN
               t := \"fib=\" & ITOT(Fib(10));
               PRINT(t);
               PRINTI(TEXTLEN(t));
             END M.",
        );
        assert_eq!(out.output, "fib=556");
    }

    #[test]
    fn records_and_ref_records() {
        let out = run_src(
            "MODULE M;
             TYPE R = RECORD x, y: INTEGER; END; PR = REF R;
             VAR a, b: R; p: PR;
             BEGIN
               a.x := 1; a.y := 2;
               b := a;
               p := NEW(PR);
               p^ := b;
               p^.x := p^.x + 10;
               PRINTI(p^.x); PRINTI(p^.y); PRINTI(b.x);
             END M.",
        );
        assert_eq!(out.output, "1121");
    }

    #[test]
    fn fixed_arrays_in_objects() {
        let out = run_src(
            "MODULE M;
             TYPE Node = OBJECT kids: ARRAY [0..3] OF INTEGER; END;
             VAR n: Node; s: INTEGER;
             BEGIN
               n := NEW(Node);
               FOR i := 0 TO 3 DO n.kids[i] := i * i END;
               s := 0;
               FOR i := 0 TO 3 DO s := s + n.kids[i] END;
               PRINTI(s);
             END M.",
        );
        assert_eq!(out.output, "14");
    }

    #[test]
    fn rle_preserves_program_output() {
        use tbaa::analysis::{Level, Tbaa};
        use tbaa::World;
        let src = "MODULE M;
             TYPE T = OBJECT f: INTEGER; n: T; END;
             VAR h: T; s: INTEGER;
             BEGIN
               h := NEW(T); h.f := 1;
               h.n := NEW(T); h.n.f := 2;
               s := 0;
               FOR i := 1 TO 50 DO
                 s := s + h.f + h.n.f;
               END;
               PRINTI(s);
             END M.";
        let prog = compile_to_ir(src).unwrap();
        let base = run(&prog, &mut NullHook, RunConfig::default()).unwrap();
        let mut opt = compile_to_ir(src).unwrap();
        let analysis = Tbaa::build(&opt, Level::SmFieldTypeRefs, World::Closed);
        let stats = tbaa_opt::rle::run_rle(&mut opt, &analysis);
        let after = run(&opt, &mut NullHook, RunConfig::default()).unwrap();
        assert_eq!(
            base.output, after.output,
            "optimization preserves semantics"
        );
        assert!(stats.removed() > 0);
        assert!(
            after.counts.heap_loads < base.counts.heap_loads,
            "RLE reduces dynamic heap loads: {} -> {}",
            base.counts.heap_loads,
            after.counts.heap_loads
        );
    }
}
