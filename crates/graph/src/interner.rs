//! String interning for vertex and edge labels.
//!
//! All graphs in a join share one [`SymbolTable`], so label equality is a
//! `u32` comparison. The table also records, per symbol, whether the label
//! is a *wildcard* (a SPARQL variable like `?x` or a blank node `_:b`),
//! which the graph-edit-distance machinery treats as matching any label.

use std::collections::HashMap;
use std::fmt;

/// An interned label.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Raw index into the owning [`SymbolTable`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

/// Interner mapping label strings to dense [`Symbol`] ids.
#[derive(Default, Clone)]
pub struct SymbolTable {
    map: HashMap<String, u32>,
    names: Vec<String>,
    wildcard: Vec<bool>,
}

impl SymbolTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its symbol. Idempotent.
    ///
    /// Names beginning with `?` or `_:` are flagged as wildcards.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&id) = self.map.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(self.names.len()).expect("symbol table overflow");
        self.map.insert(name.to_owned(), id);
        self.names.push(name.to_owned());
        self.wildcard.push(name.starts_with('?') || name.starts_with("_:"));
        Symbol(id)
    }

    /// Look up a symbol without interning.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.map.get(name).copied().map(Symbol)
    }

    /// The string for `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this table.
    pub fn name(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Whether `sym` is a wildcard label (SPARQL variable / blank node).
    #[inline]
    pub fn is_wildcard(&self, sym: Symbol) -> bool {
        self.wildcard[sym.index()]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymbolTable").field("len", &self.names.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = SymbolTable::new();
        let a1 = t.intern("Actor");
        let a2 = t.intern("Actor");
        assert_eq!(a1, a2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.name(a1), "Actor");
    }

    #[test]
    fn wildcard_detection() {
        let mut t = SymbolTable::new();
        let var = t.intern("?x");
        let blank = t.intern("_:b0");
        let city = t.intern("City");
        // Question marks elsewhere do not make a wildcard.
        let odd = t.intern("what?");
        assert!(t.is_wildcard(var));
        assert!(t.is_wildcard(blank));
        assert!(!t.is_wildcard(city));
        assert!(!t.is_wildcard(odd));
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = SymbolTable::new();
        assert!(t.get("Actor").is_none());
        let a = t.intern("Actor");
        assert_eq!(t.get("Actor"), Some(a));
        assert_eq!(t.len(), 1);
    }
}
