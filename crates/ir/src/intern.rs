//! String interning for the arena IR.
//!
//! Every name in a module — function, parameter, SSA value, memory
//! object, stream, port — is stored once in a [`SymbolTable`] and
//! referred to by a dense 4-byte [`Symbol`] everywhere else. The table
//! owns a single contiguous byte buffer plus an `(offset, len)` span per
//! symbol, so resolving a symbol is two array reads and a slice — no
//! pointer chasing, no per-string allocation, and the whole name set of
//! a module lives in two cache-friendly allocations.
//!
//! Lookup during interning uses an open-addressed FNV-1a index (the same
//! hash family as [`crate::fingerprint::StableHasher`], though the index
//! is process-local and never leaks into fingerprints, which always hash
//! the resolved bytes).

/// Dense handle to an interned string. `Symbol(0)` is always the empty
/// string, so `Symbol::default()` is a valid "no name".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The interned empty string.
    pub const EMPTY: Symbol = Symbol(0);

    /// Index into the table's span column.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw dense index, for packing into wider columns.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuild a symbol from [`raw`][Symbol::raw]. The caller must have
    /// obtained the value from the same table.
    #[inline]
    pub(crate) fn from_raw(raw: u32) -> Symbol {
        Symbol(raw)
    }
}

impl Default for Symbol {
    fn default() -> Symbol {
        Symbol::EMPTY
    }
}

/// Append-only interner: contiguous byte storage, span table, and an
/// open-addressed hash index for dedup on insert.
#[derive(Debug, Clone)]
pub struct SymbolTable {
    bytes: String,
    spans: Vec<(u32, u32)>,
    /// Open-addressed slots holding `symbol_index + 1` (0 = empty).
    slots: Vec<u32>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl Default for SymbolTable {
    fn default() -> SymbolTable {
        SymbolTable::new()
    }
}

impl SymbolTable {
    /// Fresh table holding only the empty string as [`Symbol::EMPTY`].
    pub fn new() -> SymbolTable {
        SymbolTable::with_capacity(0)
    }

    /// [`new`][SymbolTable::new], with room for `n` symbols before the
    /// index grows (and rehashes every symbol interned so far).
    pub(crate) fn with_capacity(n: usize) -> SymbolTable {
        let slots = (2 * n + 2).next_power_of_two().max(16);
        let mut t = SymbolTable {
            bytes: String::new(),
            spans: Vec::with_capacity(n + 1),
            slots: vec![0; slots],
        };
        let e = t.intern("");
        debug_assert_eq!(e, Symbol::EMPTY);
        t
    }

    /// Number of distinct symbols (including the empty string).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when only the empty string is interned.
    pub fn is_empty(&self) -> bool {
        self.spans.len() <= 1
    }

    /// Intern `s`, returning the existing symbol if already present.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if self.spans.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (fnv(s) as usize) & mask;
        loop {
            match self.slots[i] {
                0 => break,
                slot => {
                    let sym = Symbol(slot - 1);
                    if self.resolve(sym) == s {
                        return sym;
                    }
                    i = (i + 1) & mask;
                }
            }
        }
        let sym = Symbol(u32::try_from(self.spans.len()).expect("symbol table overflow"));
        let off = u32::try_from(self.bytes.len()).expect("symbol bytes overflow");
        let len = u32::try_from(s.len()).expect("symbol too long");
        self.bytes.push_str(s);
        self.spans.push((off, len));
        self.slots[i] = sym.0 + 1;
        sym
    }

    /// Look up `s` without inserting.
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        let mask = self.slots.len() - 1;
        let mut i = (fnv(s) as usize) & mask;
        loop {
            match self.slots[i] {
                0 => return None,
                slot => {
                    let sym = Symbol(slot - 1);
                    if self.resolve(sym) == s {
                        return Some(sym);
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    /// The string a symbol stands for.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        let (off, len) = self.spans[sym.index()];
        &self.bytes[off as usize..(off + len) as usize]
    }

    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(16);
        let mut slots = vec![0u32; new_len];
        let mask = new_len - 1;
        for (idx, &(off, len)) in self.spans.iter().enumerate() {
            let s = &self.bytes[off as usize..(off + len) as usize];
            let mut i = (fnv(s) as usize) & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = idx as u32 + 1;
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_string_is_symbol_zero() {
        let t = SymbolTable::new();
        assert_eq!(t.resolve(Symbol::EMPTY), "");
        assert_eq!(t.lookup(""), Some(Symbol::EMPTY));
    }

    #[test]
    fn interning_dedups_and_resolves() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        let a2 = t.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "alpha");
        assert_eq!(t.resolve(b), "beta");
        assert_eq!(t.lookup("beta"), Some(b));
        assert_eq!(t.lookup("gamma"), None);
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut t = SymbolTable::new();
        let syms: Vec<(String, Symbol)> =
            (0..500).map(|i| format!("name_{i}")).map(|s| (s.clone(), t.intern(&s))).collect();
        for (s, sym) in &syms {
            assert_eq!(t.resolve(*sym), s.as_str());
            assert_eq!(t.lookup(s), Some(*sym));
        }
        assert_eq!(t.len(), 501); // 500 + empty
    }

    #[test]
    fn prefix_confusion_is_impossible() {
        // "ab" stored next to "c" must not make "abc" resolve.
        let mut t = SymbolTable::new();
        let ab = t.intern("ab");
        let c = t.intern("c");
        assert_eq!(t.lookup("abc"), None);
        assert_eq!(t.resolve(ab), "ab");
        assert_eq!(t.resolve(c), "c");
    }
}
