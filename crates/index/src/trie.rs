//! An in-memory trie for exact and prefix string lookup.
//!
//! Backs equality filters (`surName=jagadish`) and prefix wildcards
//! (`cn=jag*`) over canonical (case-folded) attribute values — the "trie
//! … indices for string filters" of Section 4.1. Kept in memory: the
//! paper treats atomic-query efficiency as an assumption, and the I/O
//! experiments measure the *operators*, not index probes (DESIGN.md §5).

use crate::Posting;
use std::collections::BTreeMap;

/// A byte-wise trie mapping strings to posting lists.
#[derive(Debug, Default)]
pub struct Trie {
    root: Node,
    len: usize,
}

#[derive(Debug, Default)]
struct Node {
    children: BTreeMap<u8, Node>,
    /// Ids whose value terminates at this node.
    ids: Vec<Posting>,
}

impl Trie {
    /// An empty trie.
    pub fn new() -> Trie {
        Trie::default()
    }

    /// Number of inserted (string, id) associations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Associate `id` with `key` (callers pass canonical strings).
    pub fn insert(&mut self, key: &str, id: Posting) {
        let mut node = &mut self.root;
        for b in key.bytes() {
            node = node.children.entry(b).or_default();
        }
        node.ids.push(id);
        self.len += 1;
    }

    fn descend(&self, key: &str) -> Option<&Node> {
        let mut node = &self.root;
        for b in key.bytes() {
            node = node.children.get(&b)?;
        }
        Some(node)
    }

    /// Postings whose value equals `key` exactly, in insertion order,
    /// borrowed (a probe costs the descent, not the list).
    pub fn postings(&self, key: &str) -> &[Posting] {
        self.descend(key).map_or(&[], |n| &n.ids)
    }

    /// Ids whose value equals `key` exactly.
    pub fn lookup_exact(&self, key: &str) -> Vec<Posting> {
        self.postings(key).to_vec()
    }

    /// Ids whose value starts with `prefix` (includes exact matches).
    pub fn lookup_prefix(&self, prefix: &str) -> Vec<Posting> {
        let mut out = Vec::new();
        if let Some(node) = self.descend(prefix) {
            collect(node, &mut out);
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

fn collect(node: &Node, out: &mut Vec<Posting>) {
    out.extend_from_slice(&node.ids);
    for child in node.children.values() {
        collect(child, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trie {
        let mut t = Trie::new();
        t.insert("jagadish", 1);
        t.insert("jag", 2);
        t.insert("jones", 3);
        t.insert("jagadish", 4); // duplicate key, different id
        t
    }

    #[test]
    fn exact_lookup() {
        let t = sample();
        assert_eq!(t.lookup_exact("jagadish"), vec![1, 4]);
        assert_eq!(t.lookup_exact("jag"), vec![2]);
        assert_eq!(t.lookup_exact("jaga"), Vec::<u64>::new());
        assert_eq!(t.lookup_exact(""), Vec::<u64>::new());
    }

    #[test]
    fn prefix_lookup() {
        let t = sample();
        assert_eq!(t.lookup_prefix("jag"), vec![1, 2, 4]);
        assert_eq!(t.lookup_prefix("j"), vec![1, 2, 3, 4]);
        assert_eq!(t.lookup_prefix(""), vec![1, 2, 3, 4]);
        assert_eq!(t.lookup_prefix("x"), Vec::<u64>::new());
    }

    #[test]
    fn len_counts_associations() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert!(Trie::new().is_empty());
    }

    #[test]
    fn non_ascii_keys() {
        let mut t = Trie::new();
        t.insert("héllo", 7);
        assert_eq!(t.lookup_exact("héllo"), vec![7]);
        assert_eq!(t.lookup_prefix("hé"), vec![7]);
    }
}
