//! Interned field-name symbols.
//!
//! The alias analyses compare field names on every FieldTypeDecl query
//! (case 2 of Table 2) and key the `AddressTaken` facts by
//! `(type, field)`. Interning the names once at lowering time turns all
//! of those comparisons and hash lookups into `u32` operations: an
//! [`ApStep::Field`](crate::path::ApStep::Field) carries a [`Symbol`],
//! and the program's [`SymbolTable`] maps it back to the source spelling
//! for rendering and diagnostics.
//!
//! The table is append-only, so symbols handed out earlier stay valid as
//! later passes (e.g. shadow-path interning in the limit study) keep
//! interning.

use std::collections::HashMap;
use std::fmt;

/// An interned field name. Two fields have the same spelling iff their
/// symbols are equal — the paper assumes globally meaningful field names,
/// so symbol equality *is* name equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym{}", self.0)
    }
}

/// An append-only string interner for field names.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    intern: HashMap<String, Symbol>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `cap` symbols.
    pub fn with_capacity(cap: usize) -> Self {
        SymbolTable {
            names: Vec::with_capacity(cap),
            intern: HashMap::with_capacity(cap),
        }
    }

    /// Interns `name`, returning its symbol (stable across repeat calls).
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&s) = self.intern.get(name) {
            return s;
        }
        let s = Symbol(self.names.len() as u32);
        self.names.push(name.to_string());
        self.intern.insert(name.to_string(), s);
        s
    }

    /// The spelling of `s`.
    pub fn resolve(&self, s: Symbol) -> &str {
        &self.names[s.0 as usize]
    }

    /// Looks up an already-interned name without interning it.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.intern.get(name).copied()
    }

    /// Number of distinct symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no symbol has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(symbol, spelling)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol(i as u32), n.as_str()))
    }

    /// The spellings in id order, with the intern map dropped.
    pub(crate) fn into_names(self) -> Vec<String> {
        self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_distinct() {
        let mut t = SymbolTable::new();
        let f = t.intern("f");
        let g = t.intern("g");
        assert_ne!(f, g);
        assert_eq!(t.intern("f"), f);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(f), "f");
        assert_eq!(t.lookup("g"), Some(g));
        assert_eq!(t.lookup("h"), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(a, "a"), (b, "b")]);
    }
}
