//! Block-linked record chains with O(1) concatenation.
//!
//! The stack-based hierarchical-selection algorithms (Figures 2/4/5/6)
//! decide membership of an entry `rt` only when it is *popped* — after its
//! whole subtree has been scanned — yet must emit output in sorted
//! (reverse-DN) order, where `rt` precedes everything in its subtree. The
//! fix, standard in the structural-join literature, is a pending-output
//! buffer per stack frame: when `rt` pops, its own record is *prepended*
//! to its buffered subtree output and the whole thing is spliced onto the
//! parent frame's buffer. Splicing must not copy data, or the pass turns
//! quadratic; hence chains of page-sized blocks linked by pointers, where
//! concatenation is a pointer update.
//!
//! To keep the total block count at `O(N/B)` despite many tiny chains, a
//! concatenation merges the boundary blocks whenever both halves fit in
//! one block — so at most every other block can end up under half full.
//!
//! All blocks of all chains live in one [`ChainArena`]; a [`Chain`] is a
//! tiny copyable handle. Block metadata (used bytes, next pointer) is
//! in-memory, like every other page table in this crate. A block is a
//! buffer in memory while the pager's budget lends a page's worth of
//! bytes for it, and a pool page after that, so one chain may mix both;
//! the bytes in a block are the same either way.

use crate::budget::Reservation;
use crate::disk::{PageId, PAGE_HEADER_BYTES};
use crate::error::{PagerError, PagerResult};
use crate::list::common_prefix_len;
use crate::record::{codec, Record, LEN_PREFIX_BYTES};
use crate::{PageFormat, Pager};
use std::marker::PhantomData;

const NIL: u32 = u32::MAX;

/// Handle to a chain of records inside a [`ChainArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chain {
    head: u32,
    tail: u32,
    len: u64,
}

impl Chain {
    /// The empty chain.
    pub fn empty() -> Chain {
        Chain {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of records in the chain.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff the chain has no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Where a block's payload lives: its used bytes in memory, or a page
/// whose payload starts after the page header.
enum Store {
    Memory(Vec<u8>),
    Page(PageId),
}

struct BlockMeta {
    store: Store,
    used: u32,
    count: u32,
    next: u32,
    /// Sort key of the block's last record — the delta base for the next
    /// v2 frame appended to this block. Empty/unused under v1. A block's
    /// *first* frame always has `shared = 0`, which is what makes the
    /// boundary-merge in [`ChainArena::concat`] a plain byte copy: the
    /// spliced block's frames never reference keys outside it.
    last_key: Vec<u8>,
}

/// Arena owning the blocks of many chains.
pub struct ChainArena<T> {
    pager: Pager,
    blocks: Vec<BlockMeta>,
    /// Blocks emptied by boundary merges, available for reuse (their pages
    /// are recycled too, keeping disk growth proportional to live data).
    free: Vec<u32>,
    /// A page's payload per memory block.
    held: Reservation,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T: Record> ChainArena<T> {
    /// A fresh arena on `pager`.
    pub fn new(pager: &Pager) -> Self {
        ChainArena {
            pager: pager.clone(),
            blocks: Vec::new(),
            free: Vec::new(),
            held: pager.reservation(),
            _marker: PhantomData,
        }
    }

    /// Number of live blocks (diagnostic; the linearity tests assert this
    /// stays `O(N/B)`).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len() - self.free.len()
    }

    fn new_block(&mut self) -> PagerResult<u32> {
        if let Some(idx) = self.free.pop() {
            let meta = &mut self.blocks[idx as usize];
            if let Store::Memory(buf) = &mut meta.store {
                buf.clear();
            }
            meta.used = 0;
            meta.count = 0;
            meta.next = NIL;
            meta.last_key.clear();
            return Ok(idx);
        }
        let payload = self.pager.payload_size();
        let store = if self.held.grow(payload) {
            Store::Memory(Vec::with_capacity(payload))
        } else {
            let page = self.pager.pool().allocate();
            // Touch it so it exists zeroed; header maintained in metadata.
            drop(self.pager.pool().fetch_zeroed(page)?);
            Store::Page(page)
        };
        let idx = self.blocks.len() as u32;
        self.blocks.push(BlockMeta {
            store,
            used: 0,
            count: 0,
            next: NIL,
            last_key: Vec::new(),
        });
        Ok(idx)
    }

    /// Append `bytes` behind block `idx`'s used bytes.
    fn append(&mut self, idx: u32, bytes: &[u8]) -> PagerResult<()> {
        let meta = &mut self.blocks[idx as usize];
        match &mut meta.store {
            Store::Memory(buf) => buf.extend_from_slice(bytes),
            Store::Page(page) => {
                let at = PAGE_HEADER_BYTES + meta.used as usize;
                let guard = self.pager.pool().fetch(*page)?;
                guard.with_mut(|data| data[at..at + bytes.len()].copy_from_slice(bytes));
            }
        }
        meta.used += bytes.len() as u32;
        Ok(())
    }

    /// Run `f` over block `idx`'s used bytes.
    fn with_used<R>(&self, idx: u32, f: impl FnOnce(&[u8]) -> R) -> PagerResult<R> {
        let meta = &self.blocks[idx as usize];
        match &meta.store {
            Store::Memory(buf) => Ok(f(buf)),
            Store::Page(page) => {
                let guard = self.pager.pool().fetch(*page)?;
                let used = PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + meta.used as usize;
                Ok(guard.with(|data| f(&data[used])))
            }
        }
    }

    /// Append one record to the chain's tail, returning the grown chain.
    pub fn push(&mut self, chain: Chain, item: &T) -> PagerResult<Chain> {
        match self.pager.format() {
            PageFormat::V1 => self.push_v1(chain, item),
            PageFormat::V2 => self.push_v2(chain, item),
        }
    }

    fn push_v1(&mut self, mut chain: Chain, item: &T) -> PagerResult<Chain> {
        let mut buf = Vec::new();
        codec::put_u32(&mut buf, 0);
        item.encode(&mut buf);
        let len = buf.len() - LEN_PREFIX_BYTES;
        buf[..LEN_PREFIX_BYTES].copy_from_slice(&(len as u32).to_le_bytes());
        let payload = self.pager.payload_size();
        if buf.len() > payload {
            return Err(PagerError::RecordTooLarge {
                record: len,
                payload: payload - LEN_PREFIX_BYTES,
            });
        }
        let tail = if chain.tail == NIL
            || (self.blocks[chain.tail as usize].used as usize) + buf.len() > payload
        {
            let idx = self.new_block()?;
            if chain.tail == NIL {
                chain.head = idx;
            } else {
                self.blocks[chain.tail as usize].next = idx;
            }
            chain.tail = idx;
            idx
        } else {
            chain.tail
        };
        self.append(tail, &buf)?;
        self.blocks[tail as usize].count += 1;
        chain.len += 1;
        Ok(chain)
    }

    fn push_v2(&mut self, mut chain: Chain, item: &T) -> PagerResult<Chain> {
        let key = item.page_key().unwrap_or_default();
        let mut body = Vec::new();
        item.encode_body(&mut body, &self.pager.ctx());
        let payload = self.pager.payload_size();
        let frame_len = |shared: usize| {
            let suffix = key.len() - shared;
            codec::varint_len(shared as u64)
                + codec::varint_len(suffix as u64)
                + suffix
                + codec::varint_len(body.len() as u64)
                + body.len()
        };
        // Must fit even as the first frame of a block (shared = 0).
        if frame_len(0) > payload {
            return Err(PagerError::RecordTooLarge {
                record: key.len() + body.len(),
                payload,
            });
        }
        let (tail, shared) = if chain.tail == NIL {
            let idx = self.new_block()?;
            chain.head = idx;
            chain.tail = idx;
            (idx, 0)
        } else {
            let meta = &self.blocks[chain.tail as usize];
            let shared = if meta.count == 0 {
                0
            } else {
                common_prefix_len(&meta.last_key, &key)
            };
            if meta.used as usize + frame_len(shared) <= payload {
                (chain.tail, shared)
            } else {
                let idx = self.new_block()?;
                self.blocks[chain.tail as usize].next = idx;
                chain.tail = idx;
                (idx, 0)
            }
        };
        let mut frame = Vec::with_capacity(frame_len(shared));
        codec::put_varint(&mut frame, shared as u64);
        codec::put_vbytes(&mut frame, &key[shared..]);
        codec::put_vbytes(&mut frame, &body);
        self.append(tail, &frame)?;
        let meta = &mut self.blocks[tail as usize];
        meta.count += 1;
        meta.last_key.clear();
        meta.last_key.extend_from_slice(&key);
        chain.len += 1;
        Ok(chain)
    }

    /// Concatenate: all of `a`'s records followed by all of `b`'s.
    /// O(1) pointer splice; if the boundary blocks both fit in one page
    /// they are physically merged (≤ 2 page touches) so block counts stay
    /// proportional to data volume.
    pub fn concat(&mut self, a: Chain, b: Chain) -> PagerResult<Chain> {
        if a.is_empty() {
            return Ok(b);
        }
        if b.is_empty() {
            return Ok(a);
        }
        let payload = self.pager.payload_size() as u32;
        let a_tail = a.tail as usize;
        let b_head = b.head as usize;
        if self.blocks[a_tail].used + self.blocks[b_head].used <= payload {
            // Merge b's head block into a's tail block.
            let bytes = self.with_used(b.head, <[u8]>::to_vec)?;
            self.append(a.tail, &bytes)?;
            let (b_count, b_next) = (self.blocks[b_head].count, self.blocks[b_head].next);
            let b_last_key = std::mem::take(&mut self.blocks[b_head].last_key);
            self.blocks[a_tail].count += b_count;
            self.blocks[a_tail].next = b_next;
            // The merged block now ends with b's last record; future v2
            // frames appended here delta against b's key, not a's.
            self.blocks[a_tail].last_key = b_last_key;
            self.free.push(b.head);
            let tail = if b_next == NIL { a.tail } else { b.tail };
            Ok(Chain {
                head: a.head,
                tail,
                len: a.len + b.len,
            })
        } else {
            self.blocks[a_tail].next = b.head;
            Ok(Chain {
                head: a.head,
                tail: b.tail,
                len: a.len + b.len,
            })
        }
    }

    /// Iterate a chain's records in order.
    pub fn iter<'a>(&'a self, chain: Chain) -> ChainIter<'a, T> {
        ChainIter {
            arena: self,
            block: chain.head,
            remaining: chain.len,
            in_block: Vec::new().into_iter(),
        }
    }

    /// Materialize a chain (test helper).
    pub fn to_vec(&self, chain: Chain) -> PagerResult<Vec<T>> {
        self.iter(chain).collect()
    }
}

/// Iterator over a chain's records.
pub struct ChainIter<'a, T> {
    arena: &'a ChainArena<T>,
    block: u32,
    remaining: u64,
    in_block: std::vec::IntoIter<T>,
}

impl<T: Record> ChainIter<'_, T> {
    fn load_block(&mut self) -> PagerResult<bool> {
        if self.block == NIL || self.remaining == 0 {
            return Ok(false);
        }
        let arena = self.arena;
        let meta = &arena.blocks[self.block as usize];
        let corrupt = |detail: String| PagerError::CorruptRecord { detail };
        let items = arena.with_used(self.block, |data| -> PagerResult<Vec<T>> {
            let mut items = Vec::with_capacity(meta.count as usize);
            let mut r = codec::Reader::new(data);
            match arena.pager.format() {
                PageFormat::V1 => {
                    for _ in 0..meta.count {
                        items.push(T::decode(r.get_bytes()?)?);
                    }
                }
                PageFormat::V2 => {
                    let ctx = arena.pager.ctx();
                    let mut key: Vec<u8> = Vec::new();
                    for _ in 0..meta.count {
                        let shared = r.get_varint()? as usize;
                        let suffix = r.get_vbytes()?;
                        let body = r.get_vbytes()?;
                        if shared > key.len() {
                            return Err(corrupt(format!(
                                "shared prefix {shared} exceeds previous key"
                            )));
                        }
                        key.truncate(shared);
                        key.extend_from_slice(suffix);
                        items.push(T::decode_body(&key, body, &ctx)?);
                    }
                }
            }
            Ok(items)
        })??;
        self.block = meta.next;
        self.in_block = items.into_iter();
        Ok(true)
    }
}

impl<T: Record> Iterator for ChainIter<'_, T> {
    type Item = PagerResult<T>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.remaining == 0 {
                return None;
            }
            if let Some(item) = self.in_block.next() {
                self.remaining -= 1;
                return Some(Ok(item));
            }
            match self.load_block() {
                Ok(true) => continue,
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiny_pager;

    #[test]
    fn push_and_iterate() {
        let pager = tiny_pager();
        let mut arena: ChainArena<u64> = ChainArena::new(&pager);
        let mut c = Chain::empty();
        for i in 0..100 {
            c = arena.push(c, &i).unwrap();
        }
        assert_eq!(c.len(), 100);
        let got: Vec<u64> = arena.to_vec(c).unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn concat_preserves_order() {
        let pager = tiny_pager();
        let mut arena: ChainArena<u64> = ChainArena::new(&pager);
        let mut a = Chain::empty();
        let mut b = Chain::empty();
        for i in 0..50 {
            a = arena.push(a, &i).unwrap();
        }
        for i in 50..120 {
            b = arena.push(b, &i).unwrap();
        }
        let c = arena.concat(a, b).unwrap();
        assert_eq!(c.len(), 120);
        assert_eq!(arena.to_vec(c).unwrap(), (0..120).collect::<Vec<_>>());
    }

    #[test]
    fn concat_with_empty_sides() {
        let pager = tiny_pager();
        let mut arena: ChainArena<u64> = ChainArena::new(&pager);
        let mut a = Chain::empty();
        a = arena.push(a, &7).unwrap();
        let c = arena.concat(a, Chain::empty()).unwrap();
        assert_eq!(arena.to_vec(c).unwrap(), vec![7]);
        let c = arena.concat(Chain::empty(), a).unwrap();
        assert_eq!(arena.to_vec(c).unwrap(), vec![7]);
        let c = arena.concat(Chain::empty(), Chain::empty()).unwrap();
        assert!(c.is_empty());
        assert_eq!(arena.to_vec(c).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn many_tiny_chains_concat_into_few_blocks() {
        // The half-full-merge rule: splicing thousands of 1-record chains
        // must not leave thousands of 1-record blocks.
        let pager = Pager::new(4096, 16);
        let mut arena: ChainArena<u64> = ChainArena::new(&pager);
        let mut acc = Chain::empty();
        for i in 0..2000u64 {
            let mut single = Chain::empty();
            single = arena.push(single, &i).unwrap();
            acc = arena.concat(acc, single).unwrap();
        }
        assert_eq!(acc.len(), 2000);
        assert_eq!(arena.to_vec(acc).unwrap(), (0..2000).collect::<Vec<_>>());
        // 12 bytes per record on a ~4KB page → ~340 per block.
        let ideal = 2000 / (pager.payload_size() / 12) + 1;
        assert!(
            arena.num_blocks() <= ideal * 3,
            "{} blocks vs ideal {}",
            arena.num_blocks(),
            ideal
        );
    }

    #[test]
    fn interleaved_chain_growth() {
        let pager = tiny_pager();
        let mut arena: ChainArena<(u64, u64)> = ChainArena::new(&pager);
        let mut chains = [Chain::empty(); 10];
        for round in 0..30u64 {
            for (ci, chain) in chains.iter_mut().enumerate() {
                *chain = arena.push(*chain, &(ci as u64, round)).unwrap();
            }
        }
        for (ci, chain) in chains.iter().enumerate() {
            let got = arena.to_vec(*chain).unwrap();
            let expect: Vec<(u64, u64)> = (0..30).map(|r| (ci as u64, r)).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn prepend_pattern_used_by_stack_pop() {
        // Simulate a pop: record r, then its buffered subtree list.
        let pager = tiny_pager();
        let mut arena: ChainArena<u64> = ChainArena::new(&pager);
        let mut subtree = Chain::empty();
        for i in 1..6 {
            subtree = arena.push(subtree, &i).unwrap();
        }
        let mut own = Chain::empty();
        own = arena.push(own, &0).unwrap();
        let merged = arena.concat(own, subtree).unwrap();
        assert_eq!(arena.to_vec(merged).unwrap(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn oversized_record_rejected() {
        let pager = tiny_pager();
        let mut arena: ChainArena<Vec<u8>> = ChainArena::new(&pager);
        let err = arena.push(Chain::empty(), &vec![0u8; 4096]).unwrap_err();
        assert!(matches!(err, PagerError::RecordTooLarge { .. }));
    }

    /// Keyed record exercising v2 delta frames across chain blocks.
    #[derive(Debug, Clone, PartialEq)]
    struct Keyed(String, u64);

    impl Record for Keyed {
        fn encode(&self, out: &mut Vec<u8>) {
            codec::put_str(&mut *out, &self.0);
            codec::put_u64(out, self.1);
        }
        fn decode(bytes: &[u8]) -> PagerResult<Self> {
            let mut r = codec::Reader::new(bytes);
            let name = r.get_str()?.to_string();
            let v = r.get_u64()?;
            Ok(Keyed(name, v))
        }
        fn page_key(&self) -> Option<Vec<u8>> {
            Some(self.0.as_bytes().to_vec())
        }
        fn encode_body(&self, out: &mut Vec<u8>, _ctx: &crate::record::PageCtx) {
            codec::put_varint(out, self.1);
        }
        fn decode_body(
            key: &[u8],
            body: &[u8],
            _ctx: &crate::record::PageCtx,
        ) -> PagerResult<Self> {
            let name = String::from_utf8(key.to_vec()).map_err(|e| {
                PagerError::CorruptRecord {
                    detail: format!("bad key: {e}"),
                }
            })?;
            let mut r = codec::Reader::new(body);
            Ok(Keyed(name, r.get_varint()?))
        }
    }

    fn keyed(i: u64) -> Keyed {
        Keyed(format!("ou=dept, o=corp, item={i:04}"), i)
    }

    #[test]
    fn v2_push_and_iterate() {
        let pager = Pager::custom(256, crate::PoolConfig::new(8), PageFormat::V2);
        let mut arena: ChainArena<Keyed> = ChainArena::new(&pager);
        let mut c = Chain::empty();
        for i in 0..200 {
            c = arena.push(c, &keyed(i)).unwrap();
        }
        let got = arena.to_vec(c).unwrap();
        assert_eq!(got, (0..200).map(keyed).collect::<Vec<_>>());
    }

    #[test]
    fn v2_concat_boundary_merge_stays_decodable() {
        // The merge copies b's head block bytes verbatim behind a's tail;
        // b's first frame has shared=0 so the byte splice is decodable,
        // and further pushes must delta against b's (carried) last key.
        let pager = Pager::custom(256, crate::PoolConfig::new(8), PageFormat::V2);
        let mut arena: ChainArena<Keyed> = ChainArena::new(&pager);
        let mut a = Chain::empty();
        let mut b = Chain::empty();
        for i in 0..3 {
            a = arena.push(a, &keyed(i)).unwrap();
        }
        for i in 3..6 {
            b = arena.push(b, &keyed(i)).unwrap();
        }
        let mut c = arena.concat(a, b).unwrap();
        for i in 6..40 {
            c = arena.push(c, &keyed(i)).unwrap();
        }
        assert_eq!(arena.to_vec(c).unwrap(), (0..40).map(keyed).collect::<Vec<_>>());
    }

    #[test]
    fn v2_many_tiny_chains_concat_into_few_blocks() {
        let pager = Pager::custom(4096, crate::PoolConfig::new(16), PageFormat::V2);
        let mut arena: ChainArena<Keyed> = ChainArena::new(&pager);
        let mut acc = Chain::empty();
        for i in 0..2000u64 {
            let mut single = Chain::empty();
            single = arena.push(single, &keyed(i)).unwrap();
            acc = arena.concat(acc, single).unwrap();
        }
        assert_eq!(acc.len(), 2000);
        assert_eq!(
            arena.to_vec(acc).unwrap(),
            (0..2000).map(keyed).collect::<Vec<_>>()
        );
        // Compressed frames are small; block count must stay proportional.
        assert!(arena.num_blocks() < 60, "{} blocks", arena.num_blocks());
    }

    /// One step of a random chain workload over four chains.
    #[derive(Debug, Clone)]
    enum Step {
        Push(usize, u64),
        /// `chains[a] = a ++ b`, and `b` starts over empty.
        Concat(usize, usize),
    }

    fn arb_steps() -> impl proptest::strategy::Strategy<Value = Vec<Step>> {
        use proptest::prelude::*;
        // Three pushes to one concatenation.
        let step = (0u8..4, 0usize..4, 0usize..4, 0u64..10_000).prop_map(|(k, a, b, v)| {
            if k < 3 {
                Step::Push(a, v)
            } else {
                Step::Concat(a, b)
            }
        });
        proptest::collection::vec(step, 0..400)
    }

    /// Run `steps` on an arena over `pager`, returning every chain's
    /// records and how many live blocks sit on pages.
    fn replay(pager: &Pager, steps: &[Step]) -> (Vec<Vec<Keyed>>, usize) {
        let mut arena: ChainArena<Keyed> = ChainArena::new(pager);
        let mut chains = [Chain::empty(); 4];
        for step in steps {
            match *step {
                Step::Push(c, v) => chains[c] = arena.push(chains[c], &keyed(v)).unwrap(),
                Step::Concat(a, b) if a != b => {
                    chains[a] = arena.concat(chains[a], chains[b]).unwrap();
                    chains[b] = Chain::empty();
                }
                Step::Concat(..) => {}
            }
        }
        let records = chains.iter().map(|&c| arena.to_vec(c).unwrap()).collect();
        (records, paged_blocks(&arena))
    }

    /// Blocks, live or free, that sit on pages.
    fn paged_blocks<T>(arena: &ChainArena<T>) -> usize {
        let paged = arena.blocks.iter().filter(|b| matches!(b.store, Store::Page(_)));
        paged.count()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Chains that cross from memory blocks to page blocks hold the
        /// records an all-page arena holds, in both page formats.
        #[test]
        fn chains_across_the_memory_page_boundary_match_an_all_page_arena(steps in arb_steps()) {
            for format in [PageFormat::V1, PageFormat::V2] {
                // Four blocks' worth of budget: long workloads cross it.
                let crossing = Pager::custom(256, crate::PoolConfig::new(4), format);
                let paged = Pager::custom(256, crate::PoolConfig::new(4), format);
                let _all = paged.reserve(paged.run_budget()).unwrap();
                let (got, _) = replay(&crossing, &steps);
                let (want, on_pages) = replay(&paged, &steps);
                proptest::prop_assert_eq!(&got, &want);
                let live: usize = want.iter().map(Vec::len).sum();
                proptest::prop_assert!(live == 0 || on_pages > 0);
                proptest::prop_assert_eq!(crossing.run_bytes_held(), 0, "arena dropped");
                proptest::prop_assert!(crossing.run_bytes_peak() <= crossing.run_budget());
            }
        }
    }

    #[test]
    fn an_arena_within_the_budget_touches_no_page() {
        let pager = Pager::new(4096, 16);
        let mut arena: ChainArena<u64> = ChainArena::new(&pager);
        let mut acc = Chain::empty();
        for i in 0..2000u64 {
            let single = arena.push(Chain::empty(), &i).unwrap();
            acc = arena.concat(acc, single).unwrap();
        }
        assert_eq!(arena.to_vec(acc).unwrap(), (0..2000).collect::<Vec<_>>());
        assert_eq!(paged_blocks(&arena), 0);
        let pool = pager.pool().metrics();
        assert_eq!((pool.hits + pool.misses, pager.io().allocs), (0, 0));
        assert_eq!(pager.run_bytes_held(), arena.blocks.len() * pager.payload_size());
        drop(arena);
        assert_eq!(pager.run_bytes_held(), 0);
    }
}
