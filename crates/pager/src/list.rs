//! Append-only paged sequential lists, and the sorted operands operators
//! read and write.
//!
//! "Each of L1 and L2 are sorted lists of directory entries" (Figures
//! 2–6). An operator reads such a list as an [`Operand`]: either a
//! **run**, records in memory in key order, each carrying the sort key
//! its producer held ([`RawRecord::keyed`]), or a [`PagedList`]. Both are
//! read through one sorted cursor ([`Operand::iter_raw`]); a run costs no
//! page I/O and is never re-keyed.
//!
//! An operator writes its output through an [`OperandWriter`]: a run
//! while the records fit the pager's memory budget *M*
//! ([`crate::budget`]), a paged list once they would not. A list is the
//! fallback for intermediates larger than memory, as in the paper's
//! external-memory model, not the default.
//!
//! Two on-page layouts exist, discriminated by the page header word
//! (see [`crate::PageFormat`]):
//!
//! * **v1** (the seed format, still the default): the header holds the
//!   record count; records follow as `[u32 len][bytes]`.
//! * **v2** (compressed): the header is `PAGE_V2_MARKER | count`; each
//!   record is `[varint shared][vbytes key-suffix][vbytes body]`, where
//!   the key is the record's reverse-DN sort key stored as a delta
//!   against its predecessor on the page (sorted neighbors share long
//!   prefixes by construction) and the body is the record's slim
//!   encoding ([`Record::encode_body`], attribute names interned).
//!   The first record of a page always has `shared = 0`, so every page
//!   decodes independently.
//!
//! Readers dispatch on the per-page header, so lists of both formats
//! coexist on one device. Scanning a list reads each of its pages
//! exactly once (one frame pinned at a time); writing a list of `n`
//! records of size `s` allocates and writes `⌈n/B⌉` pages where `B` is
//! the blocking factor for `s`. These two facts are what make the
//! operators' measured I/O match the paper's `O(|L|/B)` bounds — v2
//! raises `B`, lowering the constant, without touching the accounting.

use crate::budget::Reservation;
use crate::disk::{PageId, PAGE_HEADER_BYTES};
use crate::error::{PagerError, PagerResult};
use crate::record::{codec, PageCtx, Record, LEN_PREFIX_BYTES};
use crate::{PageFormat, Pager};
use std::borrow::Cow;
use std::marker::PhantomData;
use std::sync::Arc;

/// Header-word marker bit distinguishing v2 pages from v1 (whose counts
/// can never reach this bit for any plausible page size).
pub const PAGE_V2_MARKER: u32 = 0x0200_0000;
const PAGE_COUNT_MASK: u32 = 0x00FF_FFFF;

/// Length of the longest common prefix of `a` and `b`.
pub(crate) fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

fn page_err(page: PageId, e: PagerError) -> PagerError {
    match e {
        PagerError::CorruptRecord { detail } => PagerError::CorruptPage { page, detail },
        other => other,
    }
}

/// Parse a page header: `(is_v2, record_count)` with plausibility guards
/// (a corrupt count must not drive unbounded allocation).
fn parse_header(page: PageId, data: &[u8]) -> PagerResult<(bool, usize)> {
    let header = u32::from_le_bytes(data[..4].try_into().unwrap());
    if header & PAGE_V2_MARKER != 0 {
        if header & !(PAGE_V2_MARKER | PAGE_COUNT_MASK) != 0 {
            return Err(PagerError::CorruptPage {
                page,
                detail: format!("unknown page-format bits in header {header:#x}"),
            });
        }
        let count = (header & PAGE_COUNT_MASK) as usize;
        // A v2 record frame is at least 3 bytes (three 1-byte varints).
        if count > data.len() / 3 {
            return Err(PagerError::CorruptPage {
                page,
                detail: format!("implausible record count {count}"),
            });
        }
        Ok((true, count))
    } else {
        let count = header as usize;
        if count > data.len() / LEN_PREFIX_BYTES {
            return Err(PagerError::CorruptPage {
                page,
                detail: format!("implausible record count {count}"),
            });
        }
        Ok((false, count))
    }
}

/// Walk the records on a page in slot order, either format, calling
/// `f(slot, key, body, split)` until it returns `Ok(false)` (positional
/// readers stop at their slot instead of parsing the rest of the page).
/// For v1 pages `key` is empty and `split` false (the body is a full
/// [`Record::encode`] image); for v2 pages the key is materialized from
/// the prefix deltas and `split` is true (the body is a
/// [`Record::encode_body`] image).
fn walk_records<'a>(
    page: PageId,
    data: &'a [u8],
    mut f: impl FnMut(usize, &[u8], &'a [u8], bool) -> PagerResult<bool>,
) -> PagerResult<()> {
    let (v2, count) = parse_header(page, data)?;
    if v2 {
        let mut r = codec::Reader::new(&data[PAGE_HEADER_BYTES..]);
        let mut key: Vec<u8> = Vec::new();
        for idx in 0..count {
            let shared = r.get_varint().map_err(|e| page_err(page, e))? as usize;
            let suffix = r.get_vbytes().map_err(|e| page_err(page, e))?;
            let body = r.get_vbytes().map_err(|e| page_err(page, e))?;
            if shared > key.len() || (idx == 0 && shared != 0) {
                return Err(PagerError::CorruptPage {
                    page,
                    detail: format!("shared prefix {shared} exceeds previous key"),
                });
            }
            key.truncate(shared);
            key.extend_from_slice(suffix);
            if !f(idx, &key, body, true)? {
                break;
            }
        }
    } else {
        let mut pos = PAGE_HEADER_BYTES;
        for idx in 0..count {
            if pos + LEN_PREFIX_BYTES > data.len() {
                return Err(PagerError::CorruptPage {
                    page,
                    detail: "record prefix past page end".into(),
                });
            }
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            pos += LEN_PREFIX_BYTES;
            if pos + len > data.len() {
                return Err(PagerError::CorruptPage {
                    page,
                    detail: "record body past page end".into(),
                });
            }
            if !f(idx, &[], &data[pos..pos + len], false)? {
                break;
            }
            pos += len;
        }
    }
    Ok(())
}

/// A not-yet-decoded record: its sort key and body bytes, lifted off a
/// page or held in a run. The zero-copy currency of the lazy evaluation paths — boolean
/// merges and hierarchy stacks compare and route records by [`key`]
/// alone and only [`decode`] the ones actually emitted or inspected.
///
/// [`key`]: RawRecord::key
/// [`decode`]: RawRecord::decode
pub struct RawRecord<T> {
    key: Vec<u8>,
    body: Vec<u8>,
    /// True when `body` is a v2 [`Record::encode_body`] image (needs the
    /// key to decode); false when it is a full v1 [`Record::encode`] image.
    split: bool,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for RawRecord<T> {
    fn clone(&self) -> Self {
        RawRecord {
            key: self.key.clone(),
            body: self.body.clone(),
            split: self.split,
            _marker: PhantomData,
        }
    }
}

impl<T> std::fmt::Debug for RawRecord<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawRecord")
            .field("key_len", &self.key.len())
            .field("body_len", &self.body.len())
            .field("split", &self.split)
            .finish()
    }
}

impl<T> RawRecord<T> {
    /// A record held as its full [`Record::encode`] image beside the sort
    /// key its producer already holds (an index keeps every key in
    /// memory). The key is taken as given, never derived from the image:
    /// this is how a run's records are made.
    pub fn keyed(key: Vec<u8>, image: Vec<u8>) -> RawRecord<T> {
        RawRecord {
            key,
            body: image,
            split: false,
            _marker: PhantomData,
        }
    }
}

impl<T: Record> RawRecord<T> {
    /// The record's sort key (empty for keyless record types on v1
    /// pages — see [`Record::page_key_of_encoded`]).
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// Fully decode the record.
    pub fn decode(&self, ctx: &PageCtx) -> PagerResult<T> {
        if self.split {
            T::decode_body(&self.key, &self.body, ctx)
        } else {
            T::decode(&self.body)
        }
    }

    /// The full [`Record::encode`] image, which a run record always is; a
    /// v2 body lifted off a page is not one.
    fn image(&self) -> PagerResult<&[u8]> {
        if self.split {
            return Err(PagerError::CorruptRecord {
                detail: "a page-format body outside its page".into(),
            });
        }
        Ok(&self.body)
    }

    /// [`RawRecord::image`], moved out.
    fn into_image(self) -> PagerResult<Vec<u8>> {
        self.image()?;
        Ok(self.body)
    }

    /// Bytes the record holds in memory: its key and its image.
    fn held_bytes(&self) -> usize {
        self.key.len() + self.body.len()
    }
}

/// An immutable, append-only sequence of records stored on pages.
///
/// The page table (`Vec<PageId>`) is kept in memory; like a file system's
/// extent map it is metadata, not data, and is not charged I/O. Lists are
/// cheap to clone (the page table is shared).
pub struct PagedList<T> {
    pager: Pager,
    pages: Arc<Vec<PageId>>,
    /// Cumulative record counts: `cum_counts[i]` = records on pages `0..=i`.
    /// Metadata maintained by the writer; enables positional access.
    cum_counts: Arc<Vec<u64>>,
    len: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for PagedList<T> {
    fn clone(&self) -> Self {
        PagedList {
            pager: self.pager.clone(),
            pages: self.pages.clone(),
            cum_counts: self.cum_counts.clone(),
            len: self.len,
            _marker: PhantomData,
        }
    }
}

impl<T> std::fmt::Debug for PagedList<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedList")
            .field("len", &self.len)
            .field("pages", &self.pages.len())
            .finish()
    }
}

impl<T: Record> PagedList<T> {
    /// The empty list.
    pub fn empty(pager: &Pager) -> Self {
        PagedList {
            pager: pager.clone(),
            pages: Arc::new(Vec::new()),
            cum_counts: Arc::new(Vec::new()),
            len: 0,
            _marker: PhantomData,
        }
    }

    /// Build a list by writing out `items` in order.
    pub fn from_iter<I>(pager: &Pager, items: I) -> PagerResult<Self>
    where
        I: IntoIterator<Item = T>,
    {
        let mut w = ListWriter::new(pager);
        for item in items {
            w.push(&item)?;
        }
        w.finish()
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff the list has no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages the records occupy — the `|L|/B` of the cost
    /// formulas.
    pub fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// The pager this list lives on.
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// Sequential scan. Pins one frame at a time; each page is read at most
    /// once per scan.
    pub fn iter(&self) -> ListReader<T> {
        ListReader {
            list: self.clone(),
            page_idx: 0,
            in_page: Vec::new().into_iter(),
        }
    }

    /// Sequential scan yielding undecoded [`RawRecord`]s: the lazy
    /// entry-point. Same I/O as [`PagedList::iter`], none of the decode
    /// cost for records the caller never materializes.
    pub fn iter_raw(&self) -> RawListReader<T> {
        RawListReader {
            list: self.clone(),
            page_idx: 0,
            in_page: Vec::new().into_iter(),
        }
    }

    /// Record counts per page (metadata; no I/O).
    pub fn page_record_counts(&self) -> Vec<u32> {
        let mut prev = 0u64;
        self.cum_counts
            .iter()
            .map(|&c| {
                let n = (c - prev) as u32;
                prev = c;
                n
            })
            .collect()
    }

    /// The page holding position `pos` (which must be `< len`), as
    /// `(index into the page table, position of the page's first record)`.
    fn page_of(&self, pos: u64) -> (usize, u64) {
        let page_idx = self.cum_counts.partition_point(|&c| c <= pos);
        let first = if page_idx == 0 {
            0
        } else {
            self.cum_counts[page_idx - 1]
        };
        (page_idx, first)
    }

    /// Positional access: the record at index `pos` (one page read if
    /// cold), or `None` past the end. Decodes only the requested record
    /// and stops walking the page at its slot.
    pub fn get(&self, pos: u64) -> PagerResult<Option<T>> {
        let ctx = self.pager.ctx();
        let mut found = None;
        self.raw_at([pos], |_, key, body, split| {
            found = Some(if split {
                T::decode_body(key, &body, &ctx)?
            } else {
                T::decode(&body)?
            });
            Ok(())
        })?;
        Ok(found)
    }

    /// Positional raw access: lift the on-page images of the records at
    /// `positions` and hand each to `f(pos, key, body, split)`; the walk
    /// ends at the first position past the end.
    ///
    /// Given ascending positions, each touched page is fetched once and
    /// parsed only up to the last wanted slot on it; nothing is decoded.
    /// `key` is the on-page sort key of a v2 record and **empty on v1
    /// pages**, which store none — deriving it there means parsing the
    /// body ([`Record::page_key_of_encoded`]), exactly the cost positional
    /// callers that keep keys in memory (the DN table) come here to
    /// avoid. `split` says which image `body` is, as in [`RawRecord`].
    /// No frame stays pinned while `f` runs.
    pub fn raw_at(
        &self,
        positions: impl IntoIterator<Item = u64>,
        mut f: impl FnMut(u64, &[u8], Vec<u8>, bool) -> PagerResult<()>,
    ) -> PagerResult<()> {
        let mut positions = positions.into_iter().peekable();
        // (pos, key, body) images of the current page, copied out so the
        // frame is released before the caller sees them.
        let mut lifted: Vec<(u64, Vec<u8>, Vec<u8>)> = Vec::new();
        while let Some(&next) = positions.peek() {
            if next >= self.len {
                break;
            }
            let (page_idx, first) = self.page_of(next);
            let end = self.cum_counts[page_idx];
            let page = self.pages[page_idx];
            let mut split_page = false;
            let guard = self.pager.pool().fetch(page)?;
            guard.with(|data| {
                walk_records(page, data, |slot, key, body, split| {
                    split_page = split;
                    let pos = first + slot as u64;
                    if positions.peek() == Some(&pos) {
                        lifted.push((pos, key.to_vec(), body.to_vec()));
                        positions.next();
                    }
                    Ok(positions.peek().is_some_and(|&p| p > pos && p < end))
                })
            })?;
            drop(guard);
            if lifted.is_empty() {
                return Err(PagerError::CorruptPage {
                    page,
                    detail: format!("no record at list position {next}"),
                });
            }
            for (pos, key, body) in lifted.drain(..) {
                f(pos, &key, body, split_page)?;
            }
        }
        Ok(())
    }

    /// Materialize the whole list in memory (test/debug helper — not for
    /// use inside external-memory operators).
    pub fn to_vec(&self) -> PagerResult<Vec<T>> {
        self.iter().collect()
    }

    /// Every record's frozen [`Record::encode`] image, in order — the
    /// bytes a caller ships. A v1 page stores exactly that image, so it
    /// is copied out undecoded; a v2 body is decoded and re-encoded. The
    /// same I/O as [`PagedList::iter`]: each page read once.
    pub fn to_encoded(&self) -> PagerResult<Vec<Vec<u8>>> {
        let ctx = self.pager.ctx();
        let mut out = Vec::with_capacity(self.len as usize);
        for &page in self.pages.iter() {
            let guard = self.pager.pool().fetch(page)?;
            guard.with(|data| {
                walk_records(page, data, |_, key, body, split| {
                    out.push(if split {
                        let mut image = Vec::new();
                        T::decode_body(key, body, &ctx)?.encode(&mut image);
                        image
                    } else {
                        body.to_vec()
                    });
                    Ok(true)
                })
            })?;
        }
        Ok(out)
    }
}

/// Incremental builder of one page image in the pager's format: feed
/// records with [`PageBuilder::push`] until it reports the page full,
/// then write the image out with [`PageBuilder::seal_to`].
struct PageBuilder {
    format: PageFormat,
    payload: usize,
    bytes: Vec<u8>,
    count: u32,
    last_key: Vec<u8>,
    saved: u64,
    scratch: Vec<u8>,
}

impl PageBuilder {
    /// A builder for pages of `pager`'s size and format.
    fn new(pager: &Pager) -> PageBuilder {
        PageBuilder {
            format: pager.format(),
            payload: pager.payload_size(),
            bytes: Vec::new(),
            count: 0,
            last_key: Vec::new(),
            saved: 0,
            scratch: Vec::new(),
        }
    }

    /// True iff the current page has no records.
    fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The page header word for the current image.
    fn header(&self) -> u32 {
        match self.format {
            PageFormat::V1 => self.count,
            PageFormat::V2 => PAGE_V2_MARKER | self.count,
        }
    }

    /// Discard the current image and start a fresh page.
    fn reset(&mut self) {
        self.bytes.clear();
        self.count = 0;
        self.last_key.clear();
        self.saved = 0;
    }

    fn append_frame(&mut self, key: &[u8], body: &[u8]) -> PagerResult<bool> {
        debug_assert!(matches!(self.format, PageFormat::V2));
        let shared = if self.count == 0 {
            0
        } else {
            common_prefix_len(&self.last_key, key)
        };
        let frame_len = |shared: usize| {
            let suffix = key.len() - shared;
            codec::varint_len(shared as u64)
                + codec::varint_len(suffix as u64)
                + suffix
                + codec::varint_len(body.len() as u64)
                + body.len()
        };
        // The record must fit even as the first of a page (shared = 0).
        if frame_len(0) > self.payload {
            return Err(PagerError::RecordTooLarge {
                record: key.len() + body.len(),
                payload: self.payload,
            });
        }
        let need = frame_len(shared);
        if self.count > 0 && self.bytes.len() + need > self.payload {
            return Ok(false);
        }
        debug_assert!(self.count < PAGE_COUNT_MASK, "v2 page count overflow");
        codec::put_varint(&mut self.bytes, shared as u64);
        codec::put_vbytes(&mut self.bytes, &key[shared..]);
        codec::put_vbytes(&mut self.bytes, body);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.count += 1;
        Ok(true)
    }

    fn append_v1(&mut self, body: &[u8]) -> PagerResult<bool> {
        let need = body.len() + LEN_PREFIX_BYTES;
        if need > self.payload {
            return Err(PagerError::RecordTooLarge {
                record: body.len(),
                payload: self.payload - LEN_PREFIX_BYTES,
            });
        }
        if self.count > 0 && self.bytes.len() + need > self.payload {
            return Ok(false);
        }
        self.bytes
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(body);
        self.count += 1;
        Ok(true)
    }

    /// Add `item` to the page. `Ok(true)` = added; `Ok(false)` = the page
    /// is full (seal it and retry); `Err` = the record can fit on no page.
    fn push<T: Record>(&mut self, item: &T, ctx: &PageCtx) -> PagerResult<bool> {
        match self.format {
            PageFormat::V1 => {
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.clear();
                item.encode(&mut scratch);
                let r = self.append_v1(&scratch);
                self.scratch = scratch;
                r
            }
            PageFormat::V2 => {
                let key = item.page_key().unwrap_or_default();
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.clear();
                item.encode_body(&mut scratch, ctx);
                let before = self.bytes.len();
                let r = self.append_frame(&key, &scratch);
                if let Ok(true) = r {
                    let v1_cost = item.encoded_len() + LEN_PREFIX_BYTES;
                    let v2_cost = self.bytes.len() - before;
                    self.saved += (v1_cost.saturating_sub(v2_cost)) as u64;
                }
                self.scratch = scratch;
                r
            }
        }
    }

    /// Add an undecoded record from its parts (`split` as in
    /// [`RawRecord`]). When the raw image's encoding matches the page
    /// format its bytes pass through verbatim (no decode); otherwise it is
    /// transparently decoded and re-encoded. `key` is read only where the
    /// image or the page is v2.
    fn push_raw_parts<T: Record>(
        &mut self,
        key: &[u8],
        body: &[u8],
        split: bool,
        ctx: &PageCtx,
    ) -> PagerResult<bool> {
        match (self.format, split) {
            (PageFormat::V1, false) => self.append_v1(body),
            (PageFormat::V2, true) => self.append_frame(key, body),
            (_, true) => self.push(&T::decode_body(key, body, ctx)?, ctx),
            (_, false) => self.push(&T::decode(body)?, ctx),
        }
    }

    /// Write the image onto the freshly allocated `page` (whose frame
    /// starts zeroed), credit the pool's compression-savings counter, and
    /// reset the builder for the next page.
    fn seal_to(&mut self, pager: &Pager, page: PageId) -> PagerResult<()> {
        let guard = pager.pool().fetch_zeroed(page)?;
        guard.with_mut(|data| {
            data[..4].copy_from_slice(&self.header().to_le_bytes());
            data[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + self.bytes.len()]
                .copy_from_slice(&self.bytes);
        });
        if self.saved > 0 {
            pager.pool().note_compression_saved(self.saved);
        }
        self.reset();
        Ok(())
    }
}

/// Streaming writer producing a [`PagedList`].
pub struct ListWriter<T> {
    pager: Pager,
    pages: Vec<PageId>,
    cum_counts: Vec<u64>,
    builder: PageBuilder,
    len: u64,
    _marker: PhantomData<fn(T)>,
}

impl<T: Record> ListWriter<T> {
    /// Start writing a fresh list on `pager`.
    pub fn new(pager: &Pager) -> Self {
        ListWriter {
            pager: pager.clone(),
            pages: Vec::new(),
            cum_counts: Vec::new(),
            builder: PageBuilder::new(pager),
            len: 0,
            _marker: PhantomData,
        }
    }

    /// Records written so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True iff nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one record.
    pub fn push(&mut self, item: &T) -> PagerResult<()> {
        loop {
            if self.builder.push(item, &self.pager.ctx())? {
                self.len += 1;
                return Ok(());
            }
            self.seal_page()?;
        }
    }

    /// Append an undecoded record (byte passthrough when the raw image
    /// matches the pager's format — the lazy merge paths' fast lane).
    pub fn push_raw(&mut self, raw: &RawRecord<T>) -> PagerResult<()> {
        self.push_raw_parts(&raw.key, &raw.body, raw.split)
    }

    /// [`ListWriter::push_raw`] from borrowed parts, as
    /// [`PagedList::raw_at`] hands them out.
    pub fn push_raw_parts(&mut self, key: &[u8], body: &[u8], split: bool) -> PagerResult<()> {
        loop {
            let ctx = self.pager.ctx();
            if self.builder.push_raw_parts::<T>(key, body, split, &ctx)? {
                self.len += 1;
                return Ok(());
            }
            self.seal_page()?;
        }
    }

    fn seal_page(&mut self) -> PagerResult<()> {
        if self.builder.is_empty() {
            return Ok(());
        }
        let page = self.pager.pool().allocate();
        self.builder.seal_to(&self.pager, page)?;
        self.pages.push(page);
        self.cum_counts.push(self.len);
        Ok(())
    }

    /// Seal the final page and return the finished list.
    pub fn finish(mut self) -> PagerResult<PagedList<T>> {
        self.seal_page()?;
        Ok(PagedList {
            pager: self.pager,
            pages: Arc::new(std::mem::take(&mut self.pages)),
            cum_counts: Arc::new(std::mem::take(&mut self.cum_counts)),
            len: self.len,
            _marker: PhantomData,
        })
    }
}

/// Sequential reader over a [`PagedList`].
///
/// Decodes one page at a time into a small in-memory batch; holds no pins
/// between `next` calls, so any number of readers can run under a small
/// frame budget (the K-way merge in [`crate::extsort`] relies on this).
pub struct ListReader<T> {
    list: PagedList<T>,
    page_idx: usize,
    in_page: std::vec::IntoIter<T>,
}

impl<T: Record> ListReader<T> {
    fn load_next_page(&mut self) -> PagerResult<bool> {
        loop {
            if self.page_idx >= self.list.pages.len() {
                return Ok(false);
            }
            let page = self.list.pages[self.page_idx];
            self.page_idx += 1;
            let guard = self.list.pager.pool().fetch(page)?;
            let ctx = self.list.pager.ctx();
            let mut items = Vec::new();
            guard.with(|data| -> PagerResult<()> {
                walk_records(page, data, |_, key, body, split| {
                    items.push(if split {
                        T::decode_body(key, body, &ctx)?
                    } else {
                        T::decode(body)?
                    });
                    Ok(true)
                })
            })?;
            if !items.is_empty() {
                self.in_page = items.into_iter();
                return Ok(true);
            }
        }
    }
}

impl<T: Record> Iterator for ListReader<T> {
    type Item = PagerResult<T>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.in_page.next() {
                return Some(Ok(item));
            }
            match self.load_next_page() {
                Ok(true) => continue,
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// Sequential reader yielding [`RawRecord`]s: the same page-at-a-time
/// I/O pattern as [`ListReader`], but records stay undecoded. For v1
/// pages of keyed types the key is extracted via
/// [`Record::page_key_of_encoded`] without a full decode.
pub struct RawListReader<T> {
    list: PagedList<T>,
    page_idx: usize,
    in_page: std::vec::IntoIter<RawRecord<T>>,
}

impl<T: Record> RawListReader<T> {
    fn load_next_page(&mut self) -> PagerResult<bool> {
        loop {
            if self.page_idx >= self.list.pages.len() {
                return Ok(false);
            }
            let page = self.list.pages[self.page_idx];
            self.page_idx += 1;
            let guard = self.list.pager.pool().fetch(page)?;
            let mut items: Vec<RawRecord<T>> = Vec::new();
            guard.with(|data| -> PagerResult<()> {
                walk_records(page, data, |_, key, body, split| {
                    let key = if split {
                        key.to_vec()
                    } else {
                        T::page_key_of_encoded(body)?.unwrap_or_default()
                    };
                    items.push(RawRecord {
                        key,
                        body: body.to_vec(),
                        split,
                        _marker: PhantomData,
                    });
                    Ok(true)
                })
            })?;
            if !items.is_empty() {
                self.in_page = items.into_iter();
                return Ok(true);
            }
        }
    }
}

impl<T: Record> Iterator for RawListReader<T> {
    type Item = PagerResult<RawRecord<T>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.in_page.next() {
                return Some(Ok(item));
            }
            match self.load_next_page() {
                Ok(true) => continue,
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// Records in key order, held in memory, and the share of a pager's
/// budget they hold: none for a run a producer hands in from outside
/// the evaluation ([`Operand::run`]), their bytes for one an
/// [`OperandWriter`] wrote. The bytes return when the run drops.
pub struct Run<T> {
    records: Vec<RawRecord<T>>,
    _held: Option<Reservation>,
}

impl<T> std::ops::Deref for Run<T> {
    type Target = [RawRecord<T>];

    fn deref(&self) -> &[RawRecord<T>] {
        &self.records
    }
}

/// A sorted operand: a run of keyed records in memory, or a paged list.
///
/// An operator reads either through one cursor and cannot tell them
/// apart except by cost: a run's records are lent from memory with the
/// keys they were made with ([`RawRecord::keyed`]), so reading one costs
/// no page I/O and no key derivation. Cloning shares the records or the
/// page table.
pub enum Operand<T> {
    /// Records in key order, held in memory.
    Run(Arc<Run<T>>),
    /// Records on pages.
    List(PagedList<T>),
}

impl<T> Clone for Operand<T> {
    fn clone(&self) -> Self {
        match self {
            Operand::Run(run) => Operand::Run(Arc::clone(run)),
            Operand::List(list) => Operand::List(list.clone()),
        }
    }
}

impl<T> std::fmt::Debug for Operand<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Run(run) => f.debug_struct("Run").field("len", &run.len()).finish(),
            Operand::List(list) => list.fmt(f),
        }
    }
}

impl<T> From<PagedList<T>> for Operand<T> {
    fn from(list: PagedList<T>) -> Self {
        Operand::List(list)
    }
}

impl<T> From<&PagedList<T>> for Operand<T> {
    fn from(list: &PagedList<T>) -> Self {
        Operand::List(list.clone())
    }
}

impl<T: Record> Operand<T> {
    /// A run of `records`, which must be in key order. It holds none of
    /// any pager's budget: this is how a producer outside the evaluation
    /// (a zone's answer) hands its records in.
    pub fn run(records: Vec<RawRecord<T>>) -> Self {
        Operand::Run(Arc::new(Run {
            records,
            _held: None,
        }))
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        match self {
            Operand::Run(run) => run.len() as u64,
            Operand::List(list) => list.len(),
        }
    }

    /// True iff there are no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pages the records occupy: 0 for a run.
    pub fn num_pages(&self) -> u64 {
        match self {
            Operand::Run(_) => 0,
            Operand::List(list) => list.num_pages(),
        }
    }

    /// The operand's size in pages of `pager`: a list's own pages, or
    /// for a run the v1 pages writing it there would fill. Nothing is
    /// written or read.
    pub fn pages_on(&self, pager: &Pager) -> u64 {
        match self {
            Operand::Run(run) => {
                let payload = pager.payload_size();
                let (mut pages, mut used) = (0, payload);
                for r in run.iter() {
                    let need = LEN_PREFIX_BYTES + r.body.len();
                    if used + need > payload {
                        pages += 1;
                        used = 0;
                    }
                    used += need;
                }
                pages
            }
            Operand::List(list) => list.num_pages(),
        }
    }

    /// The sorted cursor: undecoded records, lent from a run or lifted
    /// off a list's pages.
    pub fn iter_raw(&self) -> RawOperandReader<'_, T> {
        match self {
            Operand::Run(run) => RawOperandReader::Run(run.iter()),
            Operand::List(list) => RawOperandReader::List(list.iter_raw()),
        }
    }

    /// Sequential scan, decoded.
    pub fn iter(&self) -> OperandReader<'_, T> {
        match self {
            Operand::Run(run) => OperandReader::Run(run.iter()),
            Operand::List(list) => OperandReader::List(list.iter()),
        }
    }

    /// Materialize every record in memory.
    pub fn to_vec(&self) -> PagerResult<Vec<T>> {
        self.iter().collect()
    }

    /// Every record's frozen [`Record::encode`] image, in order: a run's
    /// as held, a list's as [`PagedList::to_encoded`] reads them.
    pub fn to_encoded(&self) -> PagerResult<Vec<Vec<u8>>> {
        match self {
            Operand::Run(run) => run.iter().map(|r| r.image().map(<[u8]>::to_vec)).collect(),
            Operand::List(list) => list.to_encoded(),
        }
    }

    /// [`Operand::to_encoded`], consuming the operand: the images of a
    /// run no one else holds are moved out, not copied.
    pub fn into_encoded(self) -> PagerResult<Vec<Vec<u8>>> {
        match self {
            Operand::Run(run) => match Arc::try_unwrap(run) {
                Ok(run) => run.records.into_iter().map(RawRecord::into_image).collect(),
                Err(shared) => Operand::Run(shared).to_encoded(),
            },
            Operand::List(list) => list.to_encoded(),
        }
    }
}

/// Streaming writer producing an [`Operand`]: the records stay in memory
/// as a run while the pager's budget lends their bytes, and the first
/// record it cannot lend them for spills everything to a [`ListWriter`].
/// A spilled record is written once, and read once by whoever reads the
/// list; a record kept in memory carries its sort key
/// ([`Record::page_key`], or the raw record's own), so no reader derives
/// it again.
pub struct OperandWriter<T> {
    pager: Pager,
    records: Vec<RawRecord<T>>,
    held: Reservation,
    spilled: Option<ListWriter<T>>,
}

impl<T: Record> OperandWriter<T> {
    /// Start writing a fresh operand on `pager`.
    pub fn new(pager: &Pager) -> Self {
        OperandWriter {
            pager: pager.clone(),
            records: Vec::new(),
            held: pager.reservation(),
            spilled: None,
        }
    }

    /// Append one record.
    pub fn push(&mut self, item: &T) -> PagerResult<()> {
        if let Some(list) = &mut self.spilled {
            return list.push(item);
        }
        let mut image = Vec::new();
        item.encode(&mut image);
        self.keep(RawRecord::keyed(item.page_key().unwrap_or_default(), image))
    }

    /// Append an undecoded record: a run's bytes are copied as they are,
    /// a v2 body lifted off a page is decoded into its image first.
    pub fn push_raw(&mut self, raw: &RawRecord<T>) -> PagerResult<()> {
        match &mut self.spilled {
            Some(list) => list.push_raw(raw),
            None if raw.split => self.push(&raw.decode(&self.pager.ctx())?),
            None => self.keep(raw.clone()),
        }
    }

    fn keep(&mut self, record: RawRecord<T>) -> PagerResult<()> {
        if self.held.grow(record.held_bytes()) {
            self.records.push(record);
            return Ok(());
        }
        let mut list = ListWriter::new(&self.pager);
        for r in self.records.drain(..) {
            list.push_raw(&r)?;
        }
        list.push_raw(&record)?;
        self.held.release();
        self.spilled = Some(list);
        Ok(())
    }

    /// The finished operand: a run, or the list it spilled to.
    pub fn finish(self) -> PagerResult<Operand<T>> {
        match self.spilled {
            Some(list) => Ok(Operand::List(list.finish()?)),
            None => Ok(Operand::Run(Arc::new(Run {
                records: self.records,
                _held: Some(self.held),
            }))),
        }
    }
}

/// [`Operand::iter_raw`]: a run's records are borrowed, a list's are
/// lifted off its pages.
pub enum RawOperandReader<'a, T> {
    /// Over a run.
    Run(std::slice::Iter<'a, RawRecord<T>>),
    /// Over a paged list.
    List(RawListReader<T>),
}

impl<'a, T: Record> Iterator for RawOperandReader<'a, T> {
    type Item = PagerResult<Cow<'a, RawRecord<T>>>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RawOperandReader::Run(run) => run.next().map(|r| Ok(Cow::Borrowed(r))),
            RawOperandReader::List(list) => list.next().map(|r| r.map(Cow::Owned)),
        }
    }
}

/// [`Operand::iter`]: decoded records.
pub enum OperandReader<'a, T> {
    /// Over a run.
    Run(std::slice::Iter<'a, RawRecord<T>>),
    /// Over a paged list.
    List(ListReader<T>),
}

impl<T: Record> Iterator for OperandReader<'_, T> {
    type Item = PagerResult<T>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            OperandReader::Run(run) => run.next().map(|r| T::decode(r.image()?)),
            OperandReader::List(list) => list.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tiny_pager, PoolConfig};

    fn tiny_compressed() -> Pager {
        Pager::custom(256, PoolConfig::new(8), PageFormat::V2)
    }

    /// A keyed test record exercising the full v2 hook surface: the key
    /// carries the name, the body only the value (plus a flag mirroring
    /// Entry's reconstructible-DN trick).
    #[derive(Debug, Clone, PartialEq)]
    struct Keyed {
        name: String,
        value: u64,
    }

    impl Record for Keyed {
        fn encode(&self, out: &mut Vec<u8>) {
            codec::put_str(&mut *out, &self.name);
            codec::put_u64(out, self.value);
        }
        fn decode(bytes: &[u8]) -> PagerResult<Self> {
            let mut r = codec::Reader::new(bytes);
            let name = r.get_str()?.to_string();
            let value = r.get_u64()?;
            r.finish()?;
            Ok(Keyed { name, value })
        }
        fn page_key(&self) -> Option<Vec<u8>> {
            Some(self.name.as_bytes().to_vec())
        }
        fn page_key_of_encoded(bytes: &[u8]) -> PagerResult<Option<Vec<u8>>> {
            let mut r = codec::Reader::new(bytes);
            Ok(Some(r.get_bytes()?.to_vec()))
        }
        fn encode_body(&self, out: &mut Vec<u8>, _ctx: &PageCtx) {
            codec::put_varint(out, self.value);
        }
        fn decode_body(key: &[u8], body: &[u8], _ctx: &PageCtx) -> PagerResult<Self> {
            let name = std::str::from_utf8(key)
                .map_err(|e| PagerError::CorruptRecord {
                    detail: format!("invalid utf-8 key: {e}"),
                })?
                .to_string();
            let mut r = codec::Reader::new(body);
            let value = r.get_varint()?;
            r.finish()?;
            Ok(Keyed { name, value })
        }
    }

    fn keyed_items(n: u64) -> Vec<Keyed> {
        (0..n)
            .map(|i| Keyed {
                name: format!("common=prefix, shared=by, all=records, item={i:05}"),
                value: i,
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_order_and_values() {
        let pager = tiny_pager();
        let items: Vec<u64> = (0..500).collect();
        let list = PagedList::from_iter(&pager, items.clone()).unwrap();
        assert_eq!(list.len(), 500);
        assert!(list.num_pages() > 1);
        assert_eq!(list.to_vec().unwrap(), items);
    }

    #[test]
    fn empty_list_behaves() {
        let pager = tiny_pager();
        let list: PagedList<u64> = PagedList::empty(&pager);
        assert!(list.is_empty());
        assert_eq!(list.num_pages(), 0);
        assert_eq!(list.to_vec().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn variable_sized_records_roundtrip() {
        let pager = tiny_pager();
        let items: Vec<String> = (0..100).map(|i| "x".repeat(i % 40)).collect();
        let list = PagedList::from_iter(&pager, items.clone()).unwrap();
        assert_eq!(list.to_vec().unwrap(), items);
    }

    #[test]
    fn scan_io_is_one_read_per_page_when_cold() {
        let pager = tiny_pager();
        let list = PagedList::from_iter(&pager, 0u64..2000).unwrap();
        pager.flush().unwrap();
        pager.pool().clear_cache().unwrap();
        pager.reset_io();
        let _ = list.to_vec().unwrap();
        let io = pager.io();
        assert_eq!(io.reads, list.num_pages());
        assert_eq!(io.writes, 0);
    }

    #[test]
    fn write_io_is_about_one_write_per_page() {
        let pager = tiny_pager();
        pager.reset_io();
        let list = PagedList::from_iter(&pager, 0u64..2000).unwrap();
        pager.flush().unwrap();
        let io = pager.io();
        assert_eq!(io.writes, list.num_pages());
    }

    #[test]
    fn oversized_record_is_rejected() {
        let pager = tiny_pager(); // 256-byte pages
        let huge = vec![0u8; 5000];
        let mut w: ListWriter<Vec<u8>> = ListWriter::new(&pager);
        assert!(matches!(
            w.push(&huge),
            Err(PagerError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn positional_get_matches_iteration() {
        let pager = tiny_pager();
        let items: Vec<String> = (0..300).map(|i| format!("item-{i:03}")).collect();
        let list = PagedList::from_iter(&pager, items.clone()).unwrap();
        for (i, want) in items.iter().enumerate() {
            assert_eq!(list.get(i as u64).unwrap().as_ref(), Some(want));
        }
        assert_eq!(list.get(300).unwrap(), None);
        assert_eq!(list.get(u64::MAX).unwrap(), None);
    }

    #[test]
    fn positional_get_reads_one_page() {
        let pager = tiny_pager();
        let list = PagedList::from_iter(&pager, 0u64..1000).unwrap();
        pager.flush().unwrap();
        pager.pool().clear_cache().unwrap();
        pager.reset_io();
        assert_eq!(list.get(500).unwrap(), Some(500));
        assert_eq!(pager.io().reads, 1);
    }

    #[test]
    fn blocking_factor_matches_page_count() {
        let pager = tiny_pager();
        let n = 1000u64;
        let list = PagedList::from_iter(&pager, 0..n).unwrap();
        let b = pager.blocking_factor(8) as u64;
        assert_eq!(list.num_pages(), n.div_ceil(b));
    }

    #[test]
    fn v2_roundtrip_preserves_order_and_values() {
        let pager = tiny_compressed();
        let items = keyed_items(300);
        let list = PagedList::from_iter(&pager, items.clone()).unwrap();
        assert_eq!(list.to_vec().unwrap(), items);
        // Positional access decodes through the delta chain too.
        for (i, want) in items.iter().enumerate() {
            assert_eq!(list.get(i as u64).unwrap().as_ref(), Some(want));
        }
    }

    #[test]
    fn v2_packs_more_records_per_page() {
        let items = keyed_items(300);
        let v1 = PagedList::from_iter(&tiny_pager(), items.clone()).unwrap();
        let pager2 = tiny_compressed();
        let v2 = PagedList::from_iter(&pager2, items).unwrap();
        assert!(
            v2.num_pages() * 2 <= v1.num_pages(),
            "prefix compression should at least halve {} v1 pages, got {}",
            v1.num_pages(),
            v2.num_pages()
        );
        assert!(pager2.pool().metrics().compressed_bytes_saved > 0);
    }

    #[test]
    fn v2_scan_io_is_one_read_per_page_when_cold() {
        let pager = tiny_compressed();
        let list = PagedList::from_iter(&pager, keyed_items(500)).unwrap();
        pager.flush().unwrap();
        pager.pool().clear_cache().unwrap();
        pager.reset_io();
        let _ = list.to_vec().unwrap();
        assert_eq!(pager.io().reads, list.num_pages());
    }

    #[test]
    fn encoded_images_match_encode_with_the_io_of_a_scan() {
        for pager in [tiny_pager(), tiny_compressed()] {
            let items = keyed_items(300);
            let list = PagedList::from_iter(&pager, items.clone()).unwrap();
            pager.flush().unwrap();
            pager.pool().clear_cache().unwrap();
            pager.reset_io();
            let got = list.to_encoded().unwrap();
            assert_eq!(pager.io().reads, list.num_pages());
            let want: Vec<Vec<u8>> = items
                .iter()
                .map(|it| {
                    let mut buf = Vec::new();
                    it.encode(&mut buf);
                    buf
                })
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn raw_iteration_exposes_keys_without_decode() {
        for pager in [tiny_pager(), tiny_compressed()] {
            let items = keyed_items(100);
            let list = PagedList::from_iter(&pager, items.clone()).unwrap();
            let keys: Vec<Vec<u8>> = list
                .iter_raw()
                .map(|r| r.unwrap().key().to_vec())
                .collect();
            let want: Vec<Vec<u8>> = items
                .iter()
                .map(|k| k.name.as_bytes().to_vec())
                .collect();
            assert_eq!(keys, want);
        }
    }

    #[test]
    fn push_raw_passthrough_roundtrips() {
        for pager in [tiny_pager(), tiny_compressed()] {
            let items = keyed_items(150);
            let src = PagedList::from_iter(&pager, items.clone()).unwrap();
            let mut w: ListWriter<Keyed> = ListWriter::new(&pager);
            for raw in src.iter_raw() {
                w.push_raw(&raw.unwrap()).unwrap();
            }
            let copy = w.finish().unwrap();
            assert_eq!(copy.to_vec().unwrap(), items);
            assert_eq!(copy.num_pages(), src.num_pages());
        }
    }

    #[test]
    fn raw_at_lifts_the_images_iter_raw_sees() {
        for pager in [tiny_pager(), tiny_compressed()] {
            let list = PagedList::from_iter(&pager, keyed_items(300)).unwrap();
            let all: Vec<RawRecord<Keyed>> =
                list.iter_raw().collect::<PagerResult<_>>().unwrap();
            // Page edges, a sparse stride, a dense run, and past the end.
            let edges = list.cum_counts.iter().flat_map(|&c| [c - 1, c]);
            let mut wanted: Vec<u64> = edges.chain((0..300).step_by(7)).chain(40..60).collect();
            wanted.sort_unstable();
            wanted.dedup();
            let mut seen = Vec::new();
            list.raw_at(wanted.iter().copied().chain([300, 999]), |pos, key, body, split| {
                let raw = &all[pos as usize];
                assert_eq!(body, raw.body, "body at {pos}");
                assert_eq!(split, raw.split);
                // v1 pages store no key.
                assert_eq!(key, if split { raw.key() } else { &[] }, "key at {pos}");
                seen.push(pos);
                Ok(())
            })
            .unwrap();
            wanted.retain(|&p| p < 300);
            assert_eq!(seen, wanted);
        }
    }

    #[test]
    fn raw_at_reads_each_touched_page_once() {
        for pager in [tiny_pager(), tiny_compressed()] {
            let list = PagedList::from_iter(&pager, keyed_items(300)).unwrap();
            pager.flush().unwrap();
            let cold_reads = |positions: Vec<u64>| {
                pager.pool().clear_cache().unwrap();
                pager.reset_io();
                list.raw_at(positions, |_, _, _, _| Ok(())).unwrap();
                pager.io().reads
            };
            assert_eq!(cold_reads((0..300).collect()), list.num_pages());
            let on_first_page = list.cum_counts[0];
            assert_eq!(cold_reads((0..on_first_page).collect()), 1);
            assert_eq!(cold_reads(vec![0, 299]), 2);
            assert_eq!(cold_reads(vec![]), 0);
        }
    }

    #[test]
    fn push_raw_parts_copies_across_formats() {
        for src_pager in [tiny_pager(), tiny_compressed()] {
            for dst_pager in [tiny_pager(), tiny_compressed()] {
                let items = keyed_items(120);
                let src = PagedList::from_iter(&src_pager, items.clone()).unwrap();
                let mut w: ListWriter<Keyed> = ListWriter::new(&dst_pager);
                src.raw_at(0..120, |pos, _, body, split| {
                    // The caller's own key, as a table holding keys in
                    // memory supplies it.
                    w.push_raw_parts(items[pos as usize].name.as_bytes(), &body, split)
                })
                .unwrap();
                assert_eq!(w.finish().unwrap().to_vec().unwrap(), items);
            }
        }
    }

    #[test]
    fn raw_records_decode_lazily() {
        let pager = tiny_compressed();
        let items = keyed_items(50);
        let list = PagedList::from_iter(&pager, items.clone()).unwrap();
        let ctx = pager.ctx();
        let raws: Vec<RawRecord<Keyed>> =
            list.iter_raw().collect::<PagerResult<_>>().unwrap();
        let decoded: Vec<Keyed> = raws.iter().map(|r| r.decode(&ctx).unwrap()).collect();
        assert_eq!(decoded, items);
    }

    /// A run as a producer holding keys makes it.
    fn keyed_run(items: &[Keyed]) -> Operand<Keyed> {
        Operand::run(
            items
                .iter()
                .map(|it| {
                    let mut image = Vec::new();
                    it.encode(&mut image);
                    RawRecord::keyed(it.name.as_bytes().to_vec(), image)
                })
                .collect(),
        )
    }

    #[test]
    fn a_run_reads_like_the_list_of_its_records_with_no_io() {
        for pager in [tiny_pager(), tiny_compressed()] {
            let items = keyed_items(120);
            let list: Operand<Keyed> = PagedList::from_iter(&pager, items.clone()).unwrap().into();
            let run = keyed_run(&items);
            let raw = |op: &Operand<Keyed>| -> Vec<(Vec<u8>, Keyed)> {
                op.iter_raw()
                    .map(|r| {
                        let r = r.unwrap();
                        (r.key().to_vec(), r.decode(&pager.ctx()).unwrap())
                    })
                    .collect()
            };
            pager.flush().unwrap();
            pager.reset_io();
            let before = pager.pool().metrics();
            assert_eq!(raw(&run), raw(&list));
            assert_eq!(run.to_vec().unwrap(), items);
            assert_eq!(run.to_encoded().unwrap(), list.to_encoded().unwrap());
            assert_eq!((run.len(), run.num_pages()), (120, 0));
            assert!(list.num_pages() > 1);
            // Only the list's reads touched the pool.
            let fetched = pager.pool().metrics().hits + pager.pool().metrics().misses
                - before.hits
                - before.misses;
            assert_eq!(fetched, 2 * list.num_pages());
        }
    }

    #[test]
    fn a_run_is_sized_by_the_pages_writing_it_would_fill() {
        let pager = tiny_pager();
        let items = keyed_items(120);
        let list: Operand<Keyed> = PagedList::from_iter(&pager, items.clone()).unwrap().into();
        let run = keyed_run(&items);
        assert!(list.num_pages() > 1);
        assert_eq!(list.pages_on(&pager), list.num_pages());
        pager.reset_io();
        assert_eq!(run.pages_on(&pager), list.num_pages());
        assert_eq!(pager.io().total(), 0);
        assert_eq!(keyed_run(&[]).pages_on(&pager), 0);
    }

    /// Fetches and allocations on `pager` since it was made.
    fn touched(pager: &Pager) -> (u64, u64) {
        let pool = pager.pool().metrics();
        (pool.hits + pool.misses, pager.io().allocs)
    }

    #[test]
    fn a_writer_within_the_budget_makes_a_keyed_run_with_no_io() {
        for pager in [Pager::new(4096, 8), Pager::compressed(4096, 8)] {
            let items = keyed_items(120);
            let mut w = OperandWriter::new(&pager);
            for item in &items {
                w.push(item).unwrap();
            }
            let out = w.finish().unwrap();
            assert!(matches!(out, Operand::Run(_)));
            assert_eq!(touched(&pager), (0, 0));
            // Keyed as the producer holds them, held against the budget.
            let keys: Vec<Vec<u8>> = out.iter_raw().map(|r| r.unwrap().key().to_vec()).collect();
            let want: Vec<Vec<u8>> = items.iter().map(|k| k.name.as_bytes().to_vec()).collect();
            assert_eq!(keys, want);
            assert_eq!(out.to_vec().unwrap(), items);
            assert!(pager.run_bytes_held() > 0);
            let copy = out.clone();
            drop(out);
            assert!(pager.run_bytes_held() > 0, "a clone still holds the run");
            drop(copy);
            assert_eq!(pager.run_bytes_held(), 0);
        }
    }

    #[test]
    fn a_writer_past_the_budget_spills_each_record_once() {
        for pager in [tiny_pager(), tiny_compressed()] {
            let items = keyed_items(300);
            let want = PagedList::from_iter(&tiny_pager(), items.clone()).unwrap();
            // Raw records from a run and from pages, then decoded ones.
            let source = keyed_run(&items[..100]);
            let lifted = PagedList::from_iter(&pager, items[100..200].to_vec()).unwrap();
            let before = touched(&pager);
            let mut w = OperandWriter::new(&pager);
            for raw in source.iter_raw().chain(Operand::List(lifted.clone()).iter_raw()) {
                w.push_raw(&raw.unwrap()).unwrap();
            }
            for item in &items[200..] {
                w.push(item).unwrap();
            }
            let out = w.finish().unwrap();
            let Operand::List(list) = &out else {
                panic!("300 records outgrow a 2 KiB budget");
            };
            assert_eq!(out.to_vec().unwrap(), items);
            assert_eq!(pager.run_bytes_held(), 0, "the spilled run's bytes returned");
            assert!(pager.run_bytes_peak() <= pager.run_budget());
            if pager.format() == PageFormat::V1 {
                assert_eq!(list.num_pages(), want.num_pages());
            }
            // Written once: one allocation per page, plus the lifted
            // list's pages read once while copying.
            let (fetches, allocs) = touched(&pager);
            assert_eq!(allocs - before.1, list.num_pages());
            assert!(fetches - before.0 <= lifted.num_pages() + 2 * list.num_pages());
        }
    }

    #[test]
    fn a_writer_with_no_budget_left_writes_pages_from_the_first_record() {
        let pager = tiny_pager();
        let all = pager.reserve(pager.run_budget()).unwrap();
        let items = keyed_items(3);
        let mut w = OperandWriter::new(&pager);
        for item in &items {
            w.push(item).unwrap();
        }
        let out = w.finish().unwrap();
        assert_eq!((out.num_pages(), out.to_vec().unwrap()), (1, items.clone()));
        drop(all);
        let empty = OperandWriter::<Keyed>::new(&pager).finish().unwrap();
        assert!(matches!(empty, Operand::Run(_)) && empty.is_empty());
    }

    #[test]
    fn into_encoded_moves_a_sole_run_and_copies_a_shared_one() {
        let items = keyed_items(40);
        let run = keyed_run(&items);
        let want = run.to_encoded().unwrap();
        let Operand::Run(records) = &run else { unreachable!() };
        let first = records[0].body.as_ptr();
        let shared = run.clone();
        assert_eq!(shared.into_encoded().unwrap(), want);
        let moved = run.into_encoded().unwrap();
        assert_eq!(moved, want);
        assert_eq!(moved[0].as_ptr(), first, "the image moved, not copied");
        let pager = tiny_pager();
        let list: Operand<Keyed> = PagedList::from_iter(&pager, items).unwrap().into();
        assert_eq!(list.into_encoded().unwrap(), want);
    }

    #[test]
    fn a_page_format_body_is_no_run_record() {
        let pager = tiny_compressed();
        let list = PagedList::from_iter(&pager, keyed_items(3)).unwrap();
        let lifted: Vec<RawRecord<Keyed>> = list.iter_raw().collect::<PagerResult<_>>().unwrap();
        let run = Operand::run(lifted);
        assert!(run.to_vec().is_err());
        assert!(run.to_encoded().is_err());
    }

    #[test]
    fn keyless_records_survive_v2_pages() {
        // Records without page keys still ride v2 framing (empty key).
        let pager = tiny_compressed();
        let items: Vec<u64> = (0..500).collect();
        let list = PagedList::from_iter(&pager, items.clone()).unwrap();
        assert_eq!(list.to_vec().unwrap(), items);
    }

    #[test]
    fn corrupt_v2_count_is_rejected() {
        let pager = tiny_compressed();
        let list = PagedList::from_iter(&pager, keyed_items(20)).unwrap();
        // Stamp an implausible count into the first page's header.
        let page = list.pages[0];
        let guard = pager.pool().fetch(page).unwrap();
        guard.with_mut(|d| {
            d[..4].copy_from_slice(&(PAGE_V2_MARKER | 0x00FF_0000).to_le_bytes())
        });
        drop(guard);
        assert!(list.to_vec().is_err());
    }

    #[test]
    fn mixed_format_pages_coexist_in_one_list() {
        // Pages written in both formats on one device: readers dispatch
        // on each page's header, not on the pager's configured format.
        let v1_pager = tiny_pager();
        let items = keyed_items(60);
        let mut w = ListWriter::new(&v1_pager);
        for item in &items[..30] {
            w.push(item).unwrap();
        }
        w.seal_page().unwrap();
        w.builder.format = PageFormat::V2;
        for item in &items[30..] {
            w.push(item).unwrap();
        }
        let mixed: PagedList<Keyed> = w.finish().unwrap();
        assert!(mixed.num_pages() >= 2);
        assert_eq!(mixed.to_vec().unwrap(), items);
    }
}
