//! The live write path: DN-keyed mutations over a running directory.
//!
//! The paper evaluates queries over a *static* bulk-loaded directory; this
//! crate adds the piece a deployed server needs — mutations that land
//! while queries run. It keeps the directory as one in-memory
//! [`netdir_model::Directory`] mirror behind a write-ahead log; readers
//! never query the journal itself. A server partitions an immutable
//! query generation from the mirror after each batch and swaps it in
//! whole, so a reader holding a generation sees one committed state no
//! matter how many batches land meanwhile.
//!
//! The WAL flushes through the same [`netdir_pager::Disk`] abstraction as
//! everything else, so durability costs are measured in the same ledger
//! currency as query I/O.
//!
//! Layering, bottom to top:
//!
//! * [`mutation`] — [`Mutation`]/[`MutationBatch`], the unit of change,
//!   convertible from RFC 2849 change records
//!   ([`netdir_model::ldif::ChangeRecord`]).
//! * [`wal`] — a checksummed, length-prefixed write-ahead log over raw
//!   disk pages; recovery returns the committed prefix.
//! * [`store`] — [`JournalStore`] ties it together: validate → WAL
//!   append (durability point) → apply to the mirror → bump the epoch.

pub mod mutation;
pub mod store;
pub mod wal;

pub use mutation::{Mutation, MutationBatch};
pub use store::{ApplyOutcome, JournalError, JournalStats, JournalStore, RecoveryReport};
pub use wal::Wal;
