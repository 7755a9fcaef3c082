//! The typed register IR.
//!
//! Each function is a control-flow graph of basic blocks over two kinds of
//! storage: *registers* (expression temporaries, always modeled as machine
//! registers) and *slots* (named locals and compiler scratch variables;
//! scalar slots whose address is never taken are also register-class, the
//! rest live on the stack). Heap accesses are explicit [`Instr::LoadMem`] /
//! [`Instr::StoreMem`] instructions, each performing exactly one memory
//! reference and carrying the [`ApId`] of its canonical source access path.
//!
//! Hidden dope-vector loads (bounds checks on open arrays) are marked
//! [`Instr::LoadMem::hidden`]; they are invisible to redundant load
//! elimination because they are implicit in the high-level IR — the
//! *Encapsulation* category of the paper's Figure 10.

use crate::path::{ApId, ApTable, FuncId, VarId};
use crate::symbols::{Symbol, SymbolTable};
use mini_m3::ast::{BinOp, UnOp};
use mini_m3::check::GlobalId;
use mini_m3::types::{ParamMode, TypeId, TypeTable};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A virtual register (expression temporary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An operand: a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register contents.
    Reg(Reg),
    /// Integer immediate.
    ImmInt(i64),
    /// Boolean immediate.
    ImmBool(bool),
    /// Character immediate.
    ImmChar(char),
    /// NIL immediate.
    ImmNil,
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::ImmInt(v) => write!(f, "{v}"),
            Operand::ImmBool(b) => write!(f, "{b}"),
            Operand::ImmChar(c) => write!(f, "'{c}'"),
            Operand::ImmNil => write!(f, "NIL"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

/// Base of a slot address: a local frame slot or the global frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotBase {
    /// A local variable (start slot for aggregates).
    Local(VarId),
    /// A global variable (start slot for aggregates).
    Global(GlobalId),
}

/// A (possibly computed) address within stack or global storage:
/// `base + offset + Σ (indexᵢ - loᵢ) · scaleᵢ`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SlotAddr {
    /// The variable whose storage is addressed.
    pub base: SlotBase,
    /// Constant slot offset (record fields).
    pub offset: u32,
    /// Dynamic index components `(index, lo, scale)` for fixed arrays.
    pub indices: Vec<(Operand, i64, u32)>,
}

impl SlotAddr {
    /// A plain scalar variable address.
    pub fn var(base: SlotBase) -> Self {
        SlotAddr {
            base,
            offset: 0,
            indices: Vec::new(),
        }
    }

    /// Whether the address is a simple whole-variable access.
    pub fn is_simple(&self) -> bool {
        self.offset == 0 && self.indices.is_empty()
    }
}

/// A heap address: `cell(base) + offset + Σ (indexᵢ - loᵢ) · scaleᵢ`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemAddr {
    /// The reference value addressing the heap cell.
    pub base: Operand,
    /// Constant slot offset within the cell.
    pub offset: u32,
    /// Dynamic index components `(index, lo, scale)`.
    pub indices: Vec<(Operand, i64, u32)>,
}

/// Intrinsic operations (builtins with no control flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntrinsicOp {
    /// `ORD(c)`.
    Ord,
    /// `CHR(i)`.
    Chr,
    /// `ABS(i)`.
    Abs,
    /// `MIN(a, b)`.
    Min,
    /// `MAX(a, b)`.
    Max,
    /// `TEXTLEN(t)`.
    TextLen,
    /// `TEXTCHAR(t, i)`.
    TextChar,
    /// `ITOT(i)`.
    IntToText,
    /// `CTOT(c)`.
    CharToText,
    /// `&` on texts.
    TextConcat,
    /// `PRINT(t)`.
    Print,
    /// `PRINTI(i)`.
    PrintInt,
}

/// One IR instruction. Every heap memory reference is a distinct
/// instruction, so dynamic load counts fall directly out of execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst := text-pool[text]`.
    ConstText {
        /// Destination register.
        dst: Reg,
        /// Index into [`Program::texts`].
        text: u32,
    },
    /// `dst := src`.
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst := op src`.
    Un {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: UnOp,
        /// Operand.
        src: Operand,
    },
    /// `dst := lhs op rhs` (no short-circuit; lowering expands AND/OR).
    Bin {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst := slot[addr]` — a stack or global read.
    LoadSlot {
        /// Destination register.
        dst: Reg,
        /// The address.
        addr: SlotAddr,
    },
    /// `slot[addr] := src`.
    StoreSlot {
        /// The address.
        addr: SlotAddr,
        /// Value stored.
        src: Operand,
    },
    /// `dst := heap[addr]` — exactly one heap load, tagged with its access
    /// path.
    LoadMem {
        /// Destination register.
        dst: Reg,
        /// The address.
        addr: MemAddr,
        /// Canonical access path of this reference.
        ap: ApId,
        /// Hidden (dope-vector bounds check) loads are implicit in the
        /// high-level IR and invisible to RLE.
        hidden: bool,
    },
    /// `heap[addr] := src`.
    StoreMem {
        /// The address.
        addr: MemAddr,
        /// Value stored.
        src: Operand,
        /// Canonical access path of this reference.
        ap: ApId,
    },
    /// `dst := *loc` — read through a location value (VAR parameter).
    LoadInd {
        /// Destination register.
        dst: Reg,
        /// Operand holding a location value.
        loc: Operand,
    },
    /// `*loc := src`.
    StoreInd {
        /// Operand holding a location value.
        loc: Operand,
        /// Value stored.
        src: Operand,
    },
    /// `dst := &slot[addr]` — take the address of a stack/global location
    /// (passing a local by VAR).
    TakeAddrSlot {
        /// Destination register (receives a location value).
        dst: Reg,
        /// The address.
        addr: SlotAddr,
    },
    /// `dst := &heap[addr]` — take the address of a heap location. This is
    /// what makes `AddressTaken(ap)` true.
    TakeAddrMem {
        /// Destination register (receives a location value).
        dst: Reg,
        /// The address.
        addr: MemAddr,
        /// The access path whose address is taken.
        ap: ApId,
    },
    /// `dst := NEW(ty)` for objects and REFs.
    New {
        /// Destination register.
        dst: Reg,
        /// Allocated (dynamic) type.
        ty: TypeId,
    },
    /// `dst := NEW(ty, len)` for open arrays.
    NewArray {
        /// Destination register.
        dst: Reg,
        /// The open array type.
        ty: TypeId,
        /// Element count.
        len: Operand,
    },
    /// Direct call.
    Call {
        /// Result register, if the callee returns a value.
        dst: Option<Reg>,
        /// Callee.
        func: FuncId,
        /// Arguments (location values for VAR parameters).
        args: Vec<Operand>,
        /// Heap access paths whose addresses are passed (used by RLE to
        /// kill availability at the call).
        addr_aps: Vec<ApId>,
        /// Stack/global slots whose addresses are passed.
        addr_slots: Vec<SlotBase>,
    },
    /// Method invocation, dispatched on the receiver's allocated type.
    CallMethod {
        /// Result register, if the method returns a value.
        dst: Option<Reg>,
        /// Method name.
        method: String,
        /// Static type of the receiver.
        recv_ty: TypeId,
        /// Arguments; `args[0]` is the receiver.
        args: Vec<Operand>,
        /// Heap access paths whose addresses are passed.
        addr_aps: Vec<ApId>,
        /// Stack/global slots whose addresses are passed.
        addr_slots: Vec<SlotBase>,
    },
    /// Builtin operation.
    Intrinsic {
        /// Result register, if any.
        dst: Option<Reg>,
        /// Which intrinsic.
        op: IntrinsicOp,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// `dst := ISTYPE(src, ty)`.
    TypeTest {
        /// Destination register.
        dst: Reg,
        /// Value tested.
        src: Operand,
        /// Target type.
        ty: TypeId,
    },
    /// `dst := NARROW(src, ty)` — checked downcast; traps on failure.
    NarrowTo {
        /// Destination register.
        dst: Reg,
        /// Value narrowed.
        src: Operand,
        /// Target type.
        ty: TypeId,
    },
}

impl Instr {
    /// The destination register written by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Instr::ConstText { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::LoadSlot { dst, .. }
            | Instr::LoadMem { dst, .. }
            | Instr::LoadInd { dst, .. }
            | Instr::TakeAddrSlot { dst, .. }
            | Instr::TakeAddrMem { dst, .. }
            | Instr::New { dst, .. }
            | Instr::NewArray { dst, .. }
            | Instr::TypeTest { dst, .. }
            | Instr::NarrowTo { dst, .. } => Some(*dst),
            Instr::Call { dst, .. }
            | Instr::CallMethod { dst, .. }
            | Instr::Intrinsic { dst, .. } => *dst,
            Instr::StoreSlot { .. } | Instr::StoreMem { .. } | Instr::StoreInd { .. } => None,
        }
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a boolean operand.
    Branch {
        /// Condition.
        cond: Operand,
        /// Successor when true.
        then_bb: BlockId,
        /// Successor when false.
        else_bb: BlockId,
    },
    /// Function return.
    Return(Option<Operand>),
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Return(_) => vec![],
        }
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The instructions.
    pub instrs: Vec<Instr>,
    /// The terminator.
    pub term: Terminator,
}

impl Block {
    /// An empty block ending in a return (placeholder during construction).
    pub fn new() -> Self {
        Block {
            instrs: Vec::new(),
            term: Terminator::Return(None),
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Self::new()
    }
}

/// Storage classification of a slot variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarClass {
    /// Scalar local whose address is never taken: modeled as a machine
    /// register (free to access).
    Register,
    /// Lives in stack memory: aggregates and address-taken locals.
    Stack,
}

/// A slot variable of a function.
#[derive(Debug, Clone)]
pub struct VarDecl {
    /// Source name (synthesized names start with `$`).
    pub name: String,
    /// Declared type.
    pub ty: TypeId,
    /// Size in slots (1 for scalars).
    pub size: u32,
    /// Storage class.
    pub class: VarClass,
}

/// A lowered function.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name (`<main>` for the module body).
    pub name: String,
    /// Number of leading vars that are parameters.
    pub n_params: u32,
    /// Parameter modes, parallel to the first `n_params` vars.
    pub param_modes: Vec<ParamMode>,
    /// Return type, if any.
    pub ret: Option<TypeId>,
    /// All slot variables (parameters first).
    pub vars: Vec<VarDecl>,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
    /// Number of virtual registers used.
    pub n_regs: u32,
}

impl Function {
    /// The entry block.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Block accessor.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.0 as usize]
    }

    /// Mutable block accessor.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.0 as usize]
    }

    /// Iterates over block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Number of instructions (excluding terminators).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

/// Which `(declared type, field)` pairs and which array types have their
/// address taken anywhere in the program (via VAR actuals or WITH). This is
/// the program-text half of the paper's `AddressTaken` predicate; the
/// open-world rule of §4 adds pass-by-reference formals.
#[derive(Debug, Clone, Default)]
pub struct AddressTakenInfo {
    /// `(declared base type, field symbol)` pairs whose address is taken.
    pub fields: HashSet<(TypeId, Symbol)>,
    /// Array types some element of which has its address taken.
    pub elements: HashSet<TypeId>,
}

/// A recorded pointer assignment `Type(lhs) := Type(rhs)` with different
/// declared types — the *merges* consumed by SMTypeRefs (§2.4). Lowering
/// records every explicit assignment plus the implicit ones: initializers,
/// actual→formal bindings, RETURN values, and method receiver bindings.
pub type Merge = (TypeId, TypeId);

/// A whole lowered program.
#[derive(Debug, Clone)]
pub struct Program {
    /// All types.
    pub types: TypeTable,
    /// Functions; `main` is the module body.
    pub funcs: Vec<Function>,
    /// The module body function.
    pub main: FuncId,
    /// Global variables (with layout offsets into the global frame).
    pub globals: Vec<GlobalDecl>,
    /// Total size of the global frame in slots.
    pub global_frame_size: u32,
    /// Text literal pool.
    pub texts: Vec<String>,
    /// Interned access paths.
    pub aps: ApTable,
    /// Interned field names referenced by access paths.
    pub symbols: SymbolTable,
    /// The AddressTaken facts.
    pub address_taken: AddressTakenInfo,
    /// Dispatch table: `method -> object type -> implementing function`,
    /// keyed by name first so a lookup by `&str` allocates nothing.
    pub method_impls: HashMap<String, HashMap<TypeId, FuncId>>,
    /// Types that appear in NEW expressions (allocated at runtime).
    pub allocated_types: HashSet<TypeId>,
    /// All pointer-assignment merges for SMTypeRefs.
    pub merges: Vec<Merge>,
}

/// A global variable with its frame offset.
#[derive(Debug, Clone)]
pub struct GlobalDecl {
    /// Source name.
    pub name: String,
    /// Declared type.
    pub ty: TypeId,
    /// Offset in the global frame.
    pub offset: u32,
    /// Size in slots.
    pub size: u32,
}

impl Program {
    /// Function accessor.
    pub fn func(&self, f: FuncId) -> &Function {
        &self.funcs[f.0 as usize]
    }

    /// Mutable function accessor.
    pub fn func_mut(&mut self, f: FuncId) -> &mut Function {
        &mut self.funcs[f.0 as usize]
    }

    /// Iterates over function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.funcs.len() as u32).map(FuncId)
    }

    /// Looks up a function by name.
    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// The functions a call of `method` on a receiver of static type
    /// `recv_ty` can dispatch to: the implementation bound at each subtype
    /// of `recv_ty`, in [`TypeTable::subtypes`] order, each once.
    pub fn method_targets(&self, recv_ty: TypeId, method: &str) -> Vec<FuncId> {
        let mut out = Vec::new();
        if let Some(impls) = self.method_impls.get(method) {
            for t in self.types.subtypes(recv_ty) {
                if let Some(&f) = impls.get(&t) {
                    if !out.contains(&f) {
                        out.push(f);
                    }
                }
            }
        }
        out
    }

    /// Total static instruction count.
    pub fn instr_count(&self) -> usize {
        self.funcs.iter().map(Function::instr_count).sum()
    }

    /// All visible (non-hidden) heap reference sites:
    /// `(function, access path, is_store)`.
    pub fn heap_ref_sites(&self) -> Vec<(FuncId, ApId, bool)> {
        let mut out = Vec::new();
        for fid in self.func_ids() {
            for block in &self.func(fid).blocks {
                for instr in &block.instrs {
                    match instr {
                        Instr::LoadMem { ap, hidden, .. } if !hidden => {
                            out.push((fid, *ap, false));
                        }
                        Instr::StoreMem { ap, .. } => out.push((fid, *ap, true)),
                        _ => {}
                    }
                }
            }
        }
        out
    }

    /// [`Self::heap_ref_sites`] deduplicated into per-function row
    /// ranges: each function's *distinct* reference paths, sorted by
    /// `ApId` within the function, functions in `FuncId` order. This is
    /// the shape the bulk pair census consumes (`tbaa::pairs`): the
    /// ranges become per-function bit masks over `ApId` space, and the
    /// sort makes the strictly-above triangular mask well defined.
    pub fn heap_ref_rows(&self) -> HeapRefRows {
        let mut rows = HeapRefRows::default();
        let mut group: Vec<ApId> = Vec::new();
        for fid in self.func_ids() {
            group.clear();
            for block in &self.func(fid).blocks {
                for instr in &block.instrs {
                    match instr {
                        Instr::LoadMem { ap, hidden, .. } if !hidden => group.push(*ap),
                        Instr::StoreMem { ap, .. } => group.push(*ap),
                        _ => {}
                    }
                }
            }
            if group.is_empty() {
                continue;
            }
            group.sort_unstable();
            group.dedup();
            let start = rows.refs.len() as u32;
            rows.refs.extend_from_slice(&group);
            rows.funcs.push((fid, start, rows.refs.len() as u32));
        }
        rows
    }
}

/// Distinct heap reference expressions grouped by function — the row
/// layout of [`Program::heap_ref_rows`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeapRefRows {
    /// Distinct reference `ApId`s, grouped per function, ascending
    /// within each group.
    pub refs: Vec<ApId>,
    /// `(function, start, end)` half-open ranges into
    /// [`HeapRefRows::refs`], in `FuncId` order; functions with no
    /// references are omitted.
    pub funcs: Vec<(FuncId, u32, u32)>,
}

impl HeapRefRows {
    /// Total distinct `(function, path)` reference expressions — the
    /// `references` column of the paper's Table 5.
    pub fn references(&self) -> usize {
        self.refs.len()
    }

    /// Iterates `(function, path)` pairs in row order.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, ApId)> + '_ {
        self.funcs.iter().flat_map(move |&(f, s, e)| {
            self.refs[s as usize..e as usize]
                .iter()
                .map(move |&ap| (f, ap))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jump(BlockId(3)).successors(), vec![BlockId(3)]);
        assert_eq!(
            Terminator::Branch {
                cond: Operand::ImmBool(true),
                then_bb: BlockId(1),
                else_bb: BlockId(2),
            }
            .successors(),
            vec![BlockId(1), BlockId(2)]
        );
        assert!(Terminator::Return(None).successors().is_empty());
    }

    #[test]
    fn instr_dst() {
        let i = Instr::Copy {
            dst: Reg(4),
            src: Operand::ImmInt(1),
        };
        assert_eq!(i.dst(), Some(Reg(4)));
        let s = Instr::StoreSlot {
            addr: SlotAddr::var(SlotBase::Local(VarId(0))),
            src: Operand::ImmInt(1),
        };
        assert_eq!(s.dst(), None);
    }

    #[test]
    fn method_targets_by_hierarchy() {
        let p = crate::compile_to_ir(
            "MODULE M;
             TYPE
               A = OBJECT METHODS m () := MA; END;
               B = A OBJECT OVERRIDES m := MB; END;
             PROCEDURE MA (self: A) = BEGIN END MA;
             PROCEDURE MB (self: B) = BEGIN END MB;
             VAR a: A;
             BEGIN a := NEW(B); a.m(); END M.",
        )
        .unwrap();
        let a = p.types.by_name("A").unwrap();
        let b = p.types.by_name("B").unwrap();
        let ts = p.method_targets(a, "m");
        assert_eq!(ts.len(), 2);
        let ts_b = p.method_targets(b, "m");
        assert_eq!(ts_b.len(), 1);
    }

    #[test]
    fn slot_addr_simple() {
        let a = SlotAddr::var(SlotBase::Global(GlobalId(2)));
        assert!(a.is_simple());
        let b = SlotAddr {
            base: SlotBase::Local(VarId(0)),
            offset: 2,
            indices: vec![],
        };
        assert!(!b.is_simple());
    }
}
