//! Access paths.
//!
//! An *access path* (AP) is a non-empty string of memory references such as
//! `a^.b[i].c` (§2.1 of the paper, after Larus & Hilfinger). Every heap load
//! and store in the IR carries the [`ApId`] of its canonical source-level
//! access path; the alias analyses answer queries over pairs of APs, and
//! redundant load elimination uses AP identity to recognize repeated loads.
//!
//! APs are interned in an [`ApTable`]; two syntactically identical paths in
//! the same function receive the same id.

use crate::symbols::{Symbol, SymbolTable};
use mini_m3::check::GlobalId;
use mini_m3::types::TypeId;
use std::collections::HashMap;
use std::fmt;

/// Interned access path identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ApId(pub u32);

impl fmt::Display for ApId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ap{}", self.0)
    }
}

/// Identifier of a function in the program (defined in `crate::ir`, used
/// here to scope local roots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A variable slot within one function's frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Where an access path starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApRoot {
    /// A local variable of `func`.
    Local {
        /// The owning function.
        func: FuncId,
        /// The variable.
        var: VarId,
    },
    /// A module-level variable.
    Global(GlobalId),
    /// An anonymous intermediate value (e.g. the result of a call used as
    /// the base of a field access). Each temp root is unique, so two temp
    /// paths are never the *same* path, but they still carry a static type
    /// for alias queries.
    Temp(u32),
}

/// A canonical subscript expression inside an access path.
///
/// Redundant load elimination may only merge two subscripted paths when the
/// subscripts are syntactically identical; alias analysis, by contrast,
/// ignores subscripts entirely (case 6 of FieldTypeDecl).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ApIndex {
    /// A compile-time constant index.
    Const(i64),
    /// A local variable.
    Var(VarId),
    /// A global variable.
    Global(GlobalId),
    /// `lhs op rhs` over canonical indices (e.g. `i + 1`).
    Bin(mini_m3::ast::BinOp, Box<ApIndex>, Box<ApIndex>),
    /// An arbitrary expression; unique, never equal to any other index.
    Opaque(u32),
}

impl ApIndex {
    /// Whether the index mentions local variable `v`.
    pub fn mentions_var(&self, v: VarId) -> bool {
        match self {
            ApIndex::Var(x) => *x == v,
            ApIndex::Bin(_, l, r) => l.mentions_var(v) || r.mentions_var(v),
            _ => false,
        }
    }

    /// Whether the index mentions global `g`.
    pub fn mentions_global(&self, g: GlobalId) -> bool {
        match self {
            ApIndex::Global(x) => *x == g,
            ApIndex::Bin(_, l, r) => l.mentions_global(g) || r.mentions_global(g),
            _ => false,
        }
    }

    /// Whether the index is canonical (reusable): opaque indices are not.
    pub fn is_canonical(&self) -> bool {
        match self {
            ApIndex::Opaque(_) => false,
            ApIndex::Bin(_, l, r) => l.is_canonical() && r.is_canonical(),
            _ => true,
        }
    }
}

/// One step of an access path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ApStep {
    /// `.name` — the paper's *Qualify*. `base_ty` is the declared type of
    /// the object/record being qualified, `ty` the declared field type.
    Field {
        /// Interned field name (field names are globally meaningful, as the
        /// paper assumes distinct fields have distinct names per declaring
        /// type), so step comparisons are integer ops.
        name: Symbol,
        /// Declared type of the base.
        base_ty: TypeId,
        /// Declared type of the field.
        ty: TypeId,
    },
    /// `^` — the paper's *Dereference*. `ty` is the referent type.
    Deref {
        /// Declared referent type.
        ty: TypeId,
    },
    /// `[index]` — the paper's *Subscript*. `base_ty` is the array type,
    /// `ty` the element type.
    Index {
        /// Canonical subscript.
        index: ApIndex,
        /// Declared array type.
        base_ty: TypeId,
        /// Declared element type.
        ty: TypeId,
    },
    /// The hidden `#length` slot of an open array (`NUMBER(a)` and implicit
    /// bounds checks). `base_ty` is the open array type.
    DopeLen {
        /// Declared array type.
        base_ty: TypeId,
    },
}

impl ApStep {
    /// The declared type of the value this step produces.
    pub fn ty(&self, integer: TypeId) -> TypeId {
        match self {
            ApStep::Field { ty, .. } | ApStep::Deref { ty } | ApStep::Index { ty, .. } => *ty,
            ApStep::DopeLen { .. } => integer,
        }
    }
}

/// A full access path: a root plus a sequence of steps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AccessPath {
    /// The root variable (or temp).
    pub root: ApRoot,
    /// Declared type of the root.
    pub root_ty: TypeId,
    /// The steps, outermost last (`a.b^` is `[Field b, Deref]`).
    pub steps: Vec<ApStep>,
}

impl AccessPath {
    /// The declared (static) type of the whole path — `Type(p)` in the
    /// paper. `integer` is the table's INTEGER type (for dope slots).
    pub fn ty(&self, integer: TypeId) -> TypeId {
        self.steps.last().map_or(self.root_ty, |s| s.ty(integer))
    }

    /// Whether this path dereferences the heap at all (paths with no steps
    /// are plain variable accesses and never appear on loads).
    pub fn is_heap(&self) -> bool {
        !self.steps.is_empty()
    }

    /// Whether every subscript in the path is canonical, i.e. the path can
    /// be recognized as "the same" at two program points.
    pub fn is_canonical(&self) -> bool {
        self.steps.iter().all(|s| match s {
            ApStep::Index { index, .. } => index.is_canonical(),
            _ => true,
        }) && !matches!(self.root, ApRoot::Temp(_))
    }

    /// Whether the path's value depends on local variable `v` (as its root
    /// or inside a subscript).
    pub fn mentions_var(&self, v: VarId) -> bool {
        if let ApRoot::Local { var, .. } = self.root {
            if var == v {
                return true;
            }
        }
        self.steps.iter().any(|s| match s {
            ApStep::Index { index, .. } => index.mentions_var(v),
            _ => false,
        })
    }

    /// Whether the path's value depends on global `g`.
    pub fn mentions_global(&self, g: GlobalId) -> bool {
        if let ApRoot::Global(x) = self.root {
            if x == g {
                return true;
            }
        }
        self.steps.iter().any(|s| match s {
            ApStep::Index { index, .. } => index.mentions_global(g),
            _ => false,
        })
    }

    /// The prefix path with the last step removed, or `None` for a bare root.
    ///
    /// This clones the step vector; query-time code should prefer
    /// [`AccessPath::view`] + [`ApView::parent`], which walk prefixes
    /// without allocating.
    pub fn parent(&self) -> Option<AccessPath> {
        if self.steps.is_empty() {
            return None;
        }
        let mut p = self.clone();
        p.steps.pop();
        Some(p)
    }

    /// A borrowed view of the whole path, for allocation-free prefix walks.
    pub fn view(&self) -> ApView<'_> {
        ApView {
            root: &self.root,
            root_ty: self.root_ty,
            steps: &self.steps,
        }
    }
}

/// A borrowed view of an access path (or one of its prefixes).
///
/// `FieldTypeDecl` recurses from a path to its parent on every case-2/6
/// query; materializing each parent through [`AccessPath::parent`] clones
/// the whole step vector. An `ApView` is root + type + a step *slice*, so
/// [`ApView::parent`] is just a slice shrink — zero allocation, usable by
/// both the naive oracle and the compiled engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApView<'a> {
    /// The root variable (or temp).
    pub root: &'a ApRoot,
    /// Declared type of the root.
    pub root_ty: TypeId,
    /// The step prefix this view covers.
    pub steps: &'a [ApStep],
}

impl<'a> ApView<'a> {
    /// The declared (static) type of the viewed prefix — `Type(p)`.
    pub fn ty(&self, integer: TypeId) -> TypeId {
        self.steps.last().map_or(self.root_ty, |s| s.ty(integer))
    }

    /// The last step of the viewed prefix (`None` for a bare root).
    pub fn last(&self) -> Option<&'a ApStep> {
        self.steps.last()
    }

    /// The view with the last step removed, or `None` for a bare root.
    pub fn parent(&self) -> Option<ApView<'a>> {
        let (_, init) = self.steps.split_last()?;
        Some(ApView {
            root: self.root,
            root_ty: self.root_ty,
            steps: init,
        })
    }

    /// Whether the view is rooted at an anonymous temp.
    pub fn is_temp_rooted(&self) -> bool {
        matches!(self.root, ApRoot::Temp(_))
    }
}

/// Interning table for access paths.
#[derive(Debug, Clone, Default)]
pub struct ApTable {
    paths: Vec<AccessPath>,
    intern: HashMap<AccessPath, ApId>,
    next_temp: u32,
    next_opaque: u32,
}

impl ApTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with room for `cap` paths, so cold-compile
    /// interning does not rehash/regrow mid-module.
    pub fn with_capacity(cap: usize) -> Self {
        ApTable {
            paths: Vec::with_capacity(cap),
            intern: HashMap::with_capacity(cap),
            next_temp: 0,
            next_opaque: 0,
        }
    }

    /// Interns a path, returning its id.
    pub fn intern(&mut self, path: AccessPath) -> ApId {
        if let Some(&id) = self.intern.get(&path) {
            return id;
        }
        let id = ApId(self.paths.len() as u32);
        self.paths.push(path.clone());
        self.intern.insert(path, id);
        id
    }

    /// The path for an id.
    pub fn path(&self, id: ApId) -> &AccessPath {
        &self.paths[id.0 as usize]
    }

    /// Number of interned paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Iterates over `(id, path)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ApId, &AccessPath)> {
        self.paths
            .iter()
            .enumerate()
            .map(|(i, p)| (ApId(i as u32), p))
    }

    /// The paths in id order, with the intern map dropped.
    pub(crate) fn into_paths(self) -> Vec<AccessPath> {
        self.paths
    }

    /// A fresh unique temp root id.
    pub fn fresh_temp(&mut self) -> u32 {
        self.next_temp += 1;
        self.next_temp
    }

    /// A fresh unique opaque-index id.
    pub fn fresh_opaque(&mut self) -> u32 {
        self.next_opaque += 1;
        self.next_opaque
    }

    /// Current temp-counter position (how many temp roots were handed out).
    pub fn temp_mark(&self) -> u32 {
        self.next_temp
    }

    /// Current opaque-counter position.
    pub fn opaque_mark(&self) -> u32 {
        self.next_opaque
    }

    /// Advances the fresh-id counters as if `temps` temp roots and
    /// `opaques` opaque indices had been handed out. Absorbing a detached
    /// unit uses this to consume the ids the unit handed out locally.
    pub fn advance_counters(&mut self, temps: u32, opaques: u32) {
        self.next_temp += temps;
        self.next_opaque += opaques;
    }

    /// Renders a path for humans, with `names` supplying root names and
    /// `symbols` resolving interned field names.
    pub fn display(
        &self,
        id: ApId,
        symbols: &SymbolTable,
        root_name: impl Fn(&ApRoot) -> String,
    ) -> String {
        let p = self.path(id);
        let mut out = root_name(&p.root);
        for s in &p.steps {
            match s {
                ApStep::Field { name, .. } => {
                    out.push('.');
                    out.push_str(symbols.resolve(*name));
                }
                ApStep::Deref { .. } => out.push('^'),
                ApStep::Index { index, .. } => {
                    out.push('[');
                    out.push_str(&display_index(index));
                    out.push(']');
                }
                ApStep::DopeLen { .. } => out.push_str(".#len"),
            }
        }
        out
    }
}

fn display_index(i: &ApIndex) -> String {
    match i {
        ApIndex::Const(c) => c.to_string(),
        ApIndex::Var(v) => v.to_string(),
        ApIndex::Global(g) => format!("g{}", g.0),
        ApIndex::Bin(op, l, r) => format!("{} {op} {}", display_index(l), display_index(r)),
        ApIndex::Opaque(n) => format!("?{n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int() -> TypeId {
        TypeId(0)
    }

    fn sample_path() -> AccessPath {
        AccessPath {
            root: ApRoot::Local {
                func: FuncId(0),
                var: VarId(3),
            },
            root_ty: TypeId(7),
            steps: vec![
                ApStep::Field {
                    name: Symbol(0),
                    base_ty: TypeId(7),
                    ty: TypeId(8),
                },
                ApStep::Deref { ty: TypeId(9) },
            ],
        }
    }

    #[test]
    fn interning_is_stable() {
        let mut t = ApTable::new();
        let a = t.intern(sample_path());
        let b = t.intern(sample_path());
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_paths_get_distinct_ids() {
        let mut t = ApTable::new();
        let a = t.intern(sample_path());
        let mut other = sample_path();
        other.steps.pop();
        let b = t.intern(other);
        assert_ne!(a, b);
    }

    #[test]
    fn path_type_is_last_step() {
        let p = sample_path();
        assert_eq!(p.ty(int()), TypeId(9));
        let bare = AccessPath {
            root: ApRoot::Global(GlobalId(0)),
            root_ty: TypeId(5),
            steps: vec![],
        };
        assert_eq!(bare.ty(int()), TypeId(5));
    }

    #[test]
    fn mentions_var_checks_root_and_indices() {
        let mut p = sample_path();
        assert!(p.mentions_var(VarId(3)));
        assert!(!p.mentions_var(VarId(4)));
        p.steps.push(ApStep::Index {
            index: ApIndex::Var(VarId(4)),
            base_ty: TypeId(10),
            ty: TypeId(0),
        });
        assert!(p.mentions_var(VarId(4)));
    }

    #[test]
    fn canonicality() {
        let mut p = sample_path();
        assert!(p.is_canonical());
        p.steps.push(ApStep::Index {
            index: ApIndex::Opaque(1),
            base_ty: TypeId(10),
            ty: TypeId(0),
        });
        assert!(!p.is_canonical());
        let temp = AccessPath {
            root: ApRoot::Temp(1),
            root_ty: TypeId(5),
            steps: vec![],
        };
        assert!(!temp.is_canonical());
    }

    #[test]
    fn bin_index_equality() {
        use mini_m3::ast::BinOp;
        let i1 = ApIndex::Bin(
            BinOp::Add,
            Box::new(ApIndex::Var(VarId(1))),
            Box::new(ApIndex::Const(1)),
        );
        let i2 = ApIndex::Bin(
            BinOp::Add,
            Box::new(ApIndex::Var(VarId(1))),
            Box::new(ApIndex::Const(1)),
        );
        assert_eq!(i1, i2);
        assert!(i1.mentions_var(VarId(1)));
        assert!(i1.is_canonical());
    }

    #[test]
    fn parent_strips_last_step() {
        let p = sample_path();
        let parent = p.parent().unwrap();
        assert_eq!(parent.steps.len(), 1);
        assert!(parent.parent().unwrap().parent().is_none());
    }

    #[test]
    fn view_parent_matches_owned_parent() {
        let p = sample_path();
        let v = p.view();
        assert_eq!(v.ty(int()), p.ty(int()));
        let vp = v.parent().unwrap();
        let op = p.parent().unwrap();
        assert_eq!(vp.steps, op.steps.as_slice());
        assert_eq!(vp.ty(int()), op.ty(int()));
        assert!(vp.parent().unwrap().parent().is_none());
        assert!(!v.is_temp_rooted());
    }

    #[test]
    fn display_renders_readably() {
        let mut syms = SymbolTable::new();
        assert_eq!(syms.intern("b"), Symbol(0));
        let mut t = ApTable::new();
        let id = t.intern(sample_path());
        let s = t.display(id, &syms, |_| "a".to_string());
        assert_eq!(s, "a.b^");
    }
}
