//! Directory-wide string interning for attribute names.
//!
//! Sorted entries repeat the same handful of attribute names on every
//! record; the v2 page format stores a fixed-width 4-byte id instead of
//! a length-prefixed string. The table lives on the [`crate::Pager`]
//! (shared by every list written through it) and is pure in-memory
//! metadata — like the page tables, it is not charged to the I/O ledger.
//!
//! Ids are fixed-width `u32` on purpose: threads writing through one
//! pager may intern names in different orders, so the *values* of ids
//! are not deterministic across runs — but page layouts, and therefore
//! the page-I/O ledger, depend only on encoded *sizes*, which a
//! fixed-width id keeps the same whatever the order.

use parking_lot::RwLock;
use std::collections::HashMap;

#[derive(Default)]
struct Inner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

/// A concurrent append-only string-to-id table.
#[derive(Default)]
pub struct Interner {
    inner: RwLock<Inner>,
}

impl Interner {
    /// An empty table.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Id of `name`, allocating the next id on first sight.
    pub fn intern(&self, name: &str) -> u32 {
        if let Some(&id) = self.inner.read().ids.get(name) {
            return id;
        }
        let mut inner = self.inner.write();
        if let Some(&id) = inner.ids.get(name) {
            return id;
        }
        let id = inner.names.len() as u32;
        inner.names.push(name.to_string());
        inner.ids.insert(name.to_string(), id);
        id
    }

    /// The string behind `id`, if allocated.
    pub fn resolve(&self, id: u32) -> Option<String> {
        self.inner.read().names.get(id as usize).cloned()
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_resolvable() {
        let t = Interner::new();
        let a = t.intern("objectClass");
        let b = t.intern("surName");
        assert_ne!(a, b);
        assert_eq!(t.intern("objectClass"), a);
        assert_eq!(t.resolve(a).as_deref(), Some("objectClass"));
        assert_eq!(t.resolve(b).as_deref(), Some("surName"));
        assert_eq!(t.resolve(99), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn concurrent_interning_agrees() {
        use std::sync::Arc;
        let t = Arc::new(Interner::new());
        let names: Vec<String> = (0..32).map(|i| format!("attr{i}")).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                let names = names.clone();
                std::thread::spawn(move || {
                    names.iter().map(|n| t.intern(n)).collect::<Vec<u32>>()
                })
            })
            .collect();
        let got: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread sees the same id per name, whatever the order.
        for ids in &got[1..] {
            assert_eq!(ids, &got[0]);
        }
        assert_eq!(t.len(), 32);
    }
}
