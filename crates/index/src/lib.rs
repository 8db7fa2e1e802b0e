//! # netdir-index — indices for atomic-query evaluation
//!
//! The paper *assumes* atomic queries are cheap: "the atomic queries
//! considered above are all supported by LDAP, and can be evaluated with
//! the help of B-trees indices for integer and distinguishedName filters,
//! and trie and suffix tree indices for string filters" (Section 4.1).
//! This crate builds those structures so the assumption holds in this
//! implementation too:
//!
//! * [`dn_table`] — the paged **DN table**: every entry, sorted by
//!   reverse-DN key, with the sort keys kept in memory in table order.
//!   Scope resolution (`base`/`one`/`sub`) is a binary search yielding a
//!   contiguous *position range*, because subtrees are contiguous in this
//!   order.
//! * [`btree`] — a bulk-loaded, paged, static **B+-tree** over
//!   `(i64, Posting)` pairs, one per integer attribute; integer comparison
//!   filters become leaf-range scans with `O(log_B N + t/B)` page reads.
//! * [`trie`] — an in-memory **trie** for exact and prefix string lookup.
//! * [`suffix`] — an in-memory **suffix array** standing in for McCreight
//!   suffix trees \[23\]; substring filters (`cn=*jag*`) become binary
//!   searches over suffixes (see DESIGN.md §5 for the substitution note).
//! * [`directory_index`] — [`directory_index::IndexedDirectory`] ties it
//!   together: atomic queries `(base ? scope ? filter)` resolve the scope
//!   to a position range first, cut the filter's posting list to it, and
//!   read the hits in page order as undecoded on-page images — always in
//!   reverse-DN order, the form the L0–L3 operators consume.
//! * [`delta`] — a zone's sorted **delta** over an immutable table:
//!   upserts and tombstones for the DNs written since the table was
//!   built, merged into every atomic answer in key order.

pub mod btree;
pub mod delta;
pub mod directory_index;
pub mod dn_table;
pub mod suffix;
pub mod trie;

pub use btree::StaticBTree;
pub use delta::{Delta, DeltaRecord, DeltaWrite};
pub use directory_index::{AtomicCost, IndexedDirectory};
pub use dn_table::{DnTable, RawHit, ScopeRange};
pub use suffix::SuffixIndex;
pub use trie::Trie;

/// What an attribute index stores per key: a DN-table **position**, so
/// a scope is a range of postings. The index structures only ever sort
/// and compare them.
pub type Posting = u64;
