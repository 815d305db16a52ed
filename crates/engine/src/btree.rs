//! The B+tree storage engine.
//!
//! All mutations go through a [`MutCtx`], which fetches working copies of
//! pages, allocates LSNs, **emits physiological log records, and applies
//! them immediately** via the shared `apply_record` path — so the bytes the
//! master materializes are exactly the bytes every replayer (replica, Page
//! Store) will materialize. One engine operation (insert with its splits,
//! delete, …) produces one run of records that the caller packages into an
//! atomic log-record group.
//!
//! Layout:
//! * page 0 — control page: `"hwm"` (next unallocated page id) and
//!   `"root"` (root page id), both 8-byte LE values;
//! * internal pages — cells `(separator key, child page id)`; slot 0 holds
//!   the empty key so every target key has a routing slot;
//! * leaf pages — cells `(key, value)`, chained with sibling links.
//!
//! Split policy: a cell that lands past the last slot of the rightmost page
//! of its level splits that page *at the insert point* (the new right page
//! starts with just the new cell), so an ascending load leaves full pages
//! and logs no moved cells; every other insert splits at the midpoint.
//! Deletions do not rebalance (pages may go sparse); this matches the
//! reproduction scope documented in DESIGN.md.

use std::sync::Arc;

use bytes::Bytes;

use taurus_common::apply::apply_record;
use taurus_common::lsn::LsnAllocator;
use taurus_common::page::{PageType, MAX_CELL_PAYLOAD, SLOT_SIZE};
use taurus_common::record::{LogRecord, RecordBody};
use taurus_common::{Lsn, PageBuf, PageId, Result, TaurusError};

use crate::pool::PageMap;

/// Rows a scan's output is sized for up front: its `limit`, up to this.
const SCAN_PRESIZE_ROWS: usize = 1024;

/// Read access to pages, implemented by the master (pool → SAL) and by
/// replicas (pool → versioned Page Store reads).
pub trait PageFetch {
    fn fetch(&self, page: PageId) -> Result<Arc<PageBuf>>;

    /// Hint: the caller expects to `fetch` these pages soon. Batched
    /// fetchers pull the misses in one `ReadPages` round trip; the default
    /// is a no-op, so plain closures and test fetchers are unaffected.
    /// Purely advisory — failures are swallowed and the demand `fetch`
    /// carries the real error handling.
    fn prefetch(&self, _pages: &[PageId]) {}

    /// Cap on the leaves a range scan may have hinted through `prefetch`
    /// and not yet walked into. 0 (the default) disables readahead.
    fn readahead_window(&self) -> usize {
        0
    }

    /// The root page id, when the fetcher knows it without reading the
    /// control page ([`BTree::root`] reads that page otherwise). The
    /// default knows none.
    fn known_root(&self) -> Option<PageId> {
        None
    }
}

impl<F> PageFetch for F
where
    F: Fn(PageId) -> Result<Arc<PageBuf>>,
{
    fn fetch(&self, page: PageId) -> Result<Arc<PageBuf>> {
        self(page)
    }
}

/// Leaf readahead state for one range scan, sized by the scan's `limit`:
/// a hint is a page the storage layer ships, so the scan only asks for
/// leaves its remaining rows can reach. The level-1 internal page of the
/// descent names the routed leaf and the siblings a chain walk visits next;
/// the routed leaf and its next sibling travel in one `prefetch`, and each
/// leaf the scan finishes sizes the next hint from the rows still owed and
/// the rows that leaf held, capped by the fetcher's window — which is all
/// that bounds an unbounded scan, so that one still streams window-sized
/// runs. Crossing off the known run (a level-1 boundary) re-descends for
/// the new leaf's first key to harvest the next run.
///
/// The run is read off the level-1 page as the hints ask for it, never
/// copied: a scan that ends in its first two leaves decodes two ids, however
/// wide the page.
struct Readahead<'a> {
    fetch: &'a dyn PageFetch,
    /// Cap on the hinted leaves not yet walked into; 0 when the fetcher has
    /// no readahead or the scan wants a single row.
    window: usize,
    /// The level-1 page of the descent: its slots after the routed one are
    /// the leaves a chain walk visits next, in order.
    run: Option<Arc<PageBuf>>,
    /// Slot of the leaf the walk should cross into next. Slots
    /// `walk..ahead` are hinted and not yet walked into.
    walk: usize,
    /// Slot of the first leaf not yet hinted.
    ahead: usize,
}

impl<'a> Readahead<'a> {
    fn new(fetch: &'a dyn PageFetch, limit: usize) -> Self {
        Readahead {
            fetch,
            window: if limit > 1 {
                fetch.readahead_window()
            } else {
                0
            },
            run: None,
            walk: 0,
            ahead: 0,
        }
    }

    /// Takes the leaves after the routed child of a level-1 internal page
    /// as the run: exactly the siblings a chain walk will visit next.
    fn seed(&mut self, page: Arc<PageBuf>, route_idx: usize) {
        self.run = Some(page);
        self.walk = route_idx + 1;
        self.ahead = route_idx + 1;
    }

    /// Leaves of the run not yet hinted.
    fn upcoming(&self) -> usize {
        self.run
            .as_ref()
            .map_or(0, |run| run.nslots().saturating_sub(self.ahead))
    }

    /// The leaf at `slot` of the run, if the run reaches it.
    fn leaf_at(&self, slot: usize) -> Result<Option<PageId>> {
        match &self.run {
            Some(run) if slot < run.nslots() => Ok(Some(PageId(cell_u64(run.value(slot)?)?))),
            _ => Ok(None),
        }
    }

    /// The scan's descent reached the level-1 page `page` and is about to
    /// enter `routed`: one hint carries that leaf and its next sibling, so a
    /// scan that starts near the end of its first leaf still pays one round
    /// trip.
    fn descended(&mut self, page: Arc<PageBuf>, route_idx: usize, routed: PageId) -> Result<()> {
        if self.window == 0 {
            return Ok(());
        }
        self.seed(page, route_idx);
        match self.leaf_at(self.ahead)? {
            Some(sibling) => {
                self.fetch.prefetch(&[routed, sibling]);
                self.ahead += 1;
            }
            None => self.fetch.prefetch(&[routed]),
        }
        Ok(())
    }

    /// The scan finished a leaf of `leaf_rows` rows and still owes `owed`:
    /// tops the in-flight hint run up to the leaves those rows should span
    /// (at most the window) once it has fallen to half of that.
    fn refill(&mut self, owed: usize, leaf_rows: usize) -> Result<()> {
        let want = owed.div_ceil(leaf_rows.max(1)).min(self.window);
        let hinted = self.ahead - self.walk;
        if self.upcoming() == 0 || hinted * 2 > want {
            return Ok(());
        }
        let take = (want - hinted).min(self.upcoming());
        let mut chunk = Vec::with_capacity(take);
        for slot in self.ahead..self.ahead + take {
            chunk.extend(self.leaf_at(slot)?);
        }
        self.fetch.prefetch(&chunk);
        self.ahead += take;
        Ok(())
    }

    /// The scan crossed the chain into `leaf`. Advances the run, or — when
    /// the leaf is off the known run (a level-1 boundary) — re-descends
    /// from the root for the leaf's first key to harvest the next run.
    fn crossed_into(&mut self, leaf_id: PageId, leaf: &PageBuf) -> Result<()> {
        if self.window == 0 {
            return Ok(());
        }
        if self.leaf_at(self.walk)? == Some(leaf_id) {
            self.walk += 1;
            self.ahead = self.ahead.max(self.walk);
        } else {
            self.run = None;
            if leaf.nslots() > 0 {
                let key = leaf.key(0)?.to_vec();
                self.reseed(&key)?;
            }
        }
        Ok(())
    }

    /// Descends from the root for `key` and takes the sibling run from the
    /// level-1 page. The internal pages touched are pool-hot, so this costs
    /// no extra round trips.
    fn reseed(&mut self, key: &[u8]) -> Result<()> {
        let mut page = self.fetch.fetch(BTree::root(self.fetch)?)?;
        while page.page_type() == PageType::Internal {
            let idx = BTree::route(&page, key)?;
            if page.level() == 1 {
                self.seed(page, idx);
                return Ok(());
            }
            page = self.fetch.fetch(PageId(cell_u64(page.value(idx)?)?))?;
        }
        Ok(())
    }
}

/// Mutation context for one engine operation (or one transaction commit):
/// working copies of touched pages plus the record run produced.
pub struct MutCtx<'a> {
    lsns: &'a LsnAllocator,
    fetch: &'a dyn PageFetch,
    /// Working copies; flushed back to the pool by the caller.
    pub pages: PageMap<PageBuf>,
    /// Records emitted, in LSN order.
    pub records: Vec<LogRecord>,
}

impl<'a> MutCtx<'a> {
    pub fn new(lsns: &'a LsnAllocator, fetch: &'a dyn PageFetch) -> Self {
        MutCtx {
            lsns,
            fetch,
            pages: PageMap::default(),
            records: Vec::new(),
        }
    }

    /// Working copy of a page, fetched on first touch.
    pub fn page(&mut self, id: PageId) -> Result<&mut PageBuf> {
        use std::collections::hash_map::Entry;
        match self.pages.entry(id) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(v) => {
                let buf = self.fetch.fetch(id)?;
                Ok(v.insert((*buf).clone()))
            }
        }
    }

    /// Emits one record and applies it to the working copy.
    pub fn emit(&mut self, page: PageId, body: RecordBody) -> Result<Lsn> {
        let lsn = self.lsns.alloc();
        let rec = LogRecord::new(lsn, page, body);
        apply_record(self.page(page)?, &rec)?;
        self.records.push(rec);
        Ok(lsn)
    }
}

fn u64_cell(v: u64) -> Bytes {
    Bytes::copy_from_slice(&v.to_le_bytes())
}

fn cell_u64(bytes: &[u8]) -> Result<u64> {
    bytes
        .try_into()
        .map(u64::from_le_bytes)
        .map_err(|_| TaurusError::PageCorrupt("bad u64 cell"))
}

/// Space one record occupies on a page.
fn cell_need(key: &[u8], val: &[u8]) -> usize {
    2 + key.len() + val.len() + SLOT_SIZE
}

/// The B+tree. Stateless: all state lives in pages; this is a namespace of
/// operations over `MutCtx`/`PageFetch`.
pub struct BTree;

impl BTree {
    /// Formats a fresh database: control page plus an empty root leaf.
    /// Emits the bootstrap records into `ctx`.
    pub fn bootstrap(ctx: &mut MutCtx<'_>) -> Result<()> {
        ctx.emit(
            PageId::CONTROL,
            RecordBody::Format {
                ty: PageType::Control,
                level: 0,
            },
        )?;
        ctx.emit(
            PageId::CONTROL,
            RecordBody::Insert {
                idx: 0,
                key: Bytes::from_static(b"hwm"),
                val: u64_cell(2),
            },
        )?;
        ctx.emit(
            PageId::CONTROL,
            RecordBody::Insert {
                idx: 1,
                key: Bytes::from_static(b"root"),
                val: u64_cell(1),
            },
        )?;
        ctx.emit(
            PageId(1),
            RecordBody::Format {
                ty: PageType::Leaf,
                level: 0,
            },
        )?;
        Ok(())
    }

    fn control_get(page: &PageBuf, key: &[u8]) -> Result<u64> {
        match page.search(key) {
            Ok(idx) => cell_u64(page.value(idx)?),
            Err(_) => Err(TaurusError::PageCorrupt("missing control entry")),
        }
    }

    fn control_set(ctx: &mut MutCtx<'_>, key: &'static [u8], v: u64) -> Result<()> {
        let idx = ctx
            .page(PageId::CONTROL)?
            .search(key)
            .map_err(|_| TaurusError::PageCorrupt("missing control entry"))?;
        ctx.emit(
            PageId::CONTROL,
            RecordBody::UpdateValue {
                idx: idx as u16,
                val: u64_cell(v),
            },
        )?;
        Ok(())
    }

    /// Root page id, via any fetcher: where every descent starts.
    pub fn root(fetch: &dyn PageFetch) -> Result<PageId> {
        if let Some(root) = fetch.known_root() {
            return Ok(root);
        }
        let control = fetch.fetch(PageId::CONTROL)?;
        Self::root_in(&control)
    }

    /// The root page id the control page names.
    pub fn root_in(control: &PageBuf) -> Result<PageId> {
        Ok(PageId(Self::control_get(control, b"root")?))
    }

    /// Allocates the page at the high-water mark. Its working copy starts
    /// blank without a fetch: no id at or above the mark was ever written,
    /// so storage has nothing to ship for it.
    fn alloc_page(ctx: &mut MutCtx<'_>) -> Result<PageId> {
        let hwm = Self::control_get(ctx.page(PageId::CONTROL)?, b"hwm")?;
        Self::control_set(ctx, b"hwm", hwm + 1)?;
        ctx.pages.insert(PageId(hwm), PageBuf::new());
        Ok(PageId(hwm))
    }

    /// Routing: index of the child to follow for `key` on an internal page.
    fn route(page: &PageBuf, key: &[u8]) -> Result<usize> {
        match page.search(key) {
            Ok(idx) => Ok(idx),
            Err(0) => Ok(0), // smaller than everything: leftmost child
            Err(idx) => Ok(idx - 1),
        }
    }

    /// Descends from the root to the leaf that holds (or would hold) `key`.
    pub fn leaf_for(fetch: &dyn PageFetch, key: &[u8]) -> Result<Arc<PageBuf>> {
        let mut page = fetch.fetch(Self::root(fetch)?)?;
        loop {
            match page.page_type() {
                PageType::Internal => {
                    let idx = Self::route(&page, key)?;
                    let child = PageId(cell_u64(page.value(idx)?)?);
                    page = fetch.fetch(child)?;
                }
                PageType::Leaf => return Ok(page),
                _ => return Err(TaurusError::PageCorrupt("unexpected page type in tree")),
            }
        }
    }

    /// Whether a descent for `key` is sure to end at `leaf`: the key lies
    /// between two keys the leaf holds, or past the first key of the
    /// rightmost leaf. (A key below the leaf's first key may still route to
    /// it; that takes the parent to tell.)
    pub fn leaf_covers(leaf: &PageBuf, key: &[u8]) -> bool {
        let n = leaf.nslots();
        n > 0
            && leaf.key(0).is_ok_and(|first| first <= key)
            && (leaf.next() == 0 || leaf.key(n - 1).is_ok_and(|last| key <= last))
    }

    /// Point lookup.
    pub fn get(fetch: &dyn PageFetch, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let leaf = Self::leaf_for(fetch, key)?;
        Ok(match leaf.search(key) {
            Ok(idx) => Some(leaf.value(idx)?.to_vec()),
            Err(_) => None,
        })
    }

    /// Range scan: up to `limit` pairs with key ≥ `start`.
    ///
    /// When the fetcher advertises a readahead window, the descent hints
    /// the routed leaf together with its next sibling from the level-1
    /// internal page, and the chain walk keeps hinting only as many leaves
    /// ahead as the rows still owed should span (see [`Readahead`]): a
    /// 20-row scan ships two leaves at most, a full-table scan turns N leaf
    /// misses into about 2N/window `ReadPages` round trips.
    pub fn scan(
        fetch: &dyn PageFetch,
        start: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut ra = Readahead::new(fetch, limit);
        let mut page = fetch.fetch(Self::root(fetch)?)?;
        loop {
            match page.page_type() {
                PageType::Internal => {
                    let idx = Self::route(&page, start)?;
                    let child = PageId(cell_u64(page.value(idx)?)?);
                    if page.level() == 1 {
                        ra.descended(page, idx, child)?;
                    }
                    page = fetch.fetch(child)?;
                }
                PageType::Leaf => break,
                _ => return Err(TaurusError::PageCorrupt("unexpected page type in tree")),
            }
        }
        let mut out = Vec::with_capacity(limit.min(SCAN_PRESIZE_ROWS));
        let mut idx = match page.search(start) {
            Ok(i) => i,
            Err(i) => i,
        };
        while out.len() < limit {
            if idx >= page.nslots() {
                let next = page.next();
                if next == 0 {
                    break;
                }
                ra.refill(limit - out.len(), page.nslots())?;
                page = fetch.fetch(PageId(next))?;
                ra.crossed_into(PageId(next), &page)?;
                idx = 0;
                continue;
            }
            out.push((page.key(idx)?.to_vec(), page.value(idx)?.to_vec()));
            idx += 1;
        }
        Ok(out)
    }

    /// Insert or update. Returns `true` if the key was new.
    pub fn put(ctx: &mut MutCtx<'_>, key: &[u8], val: &[u8]) -> Result<bool> {
        if key.is_empty() {
            return Err(TaurusError::Internal("empty keys are reserved".into()));
        }
        if key.len() + val.len() > MAX_CELL_PAYLOAD {
            return Err(TaurusError::PageCorrupt("cell exceeds MAX_CELL_PAYLOAD"));
        }
        let root = PageId(Self::control_get(ctx.page(PageId::CONTROL)?, b"root")?);
        let result = Self::put_into(ctx, root, key, val, true)?;
        if let PutOutcome::Split { sep, right } = result.outcome {
            // Root split: grow the tree by one level.
            let old_root = root;
            let new_root = Self::alloc_page(ctx)?;
            let level = ctx.page(old_root)?.level() + 1;
            ctx.emit(
                new_root,
                RecordBody::Format {
                    ty: PageType::Internal,
                    level,
                },
            )?;
            ctx.emit(
                new_root,
                RecordBody::Insert {
                    idx: 0,
                    key: Bytes::new(),
                    val: u64_cell(old_root.0),
                },
            )?;
            ctx.emit(
                new_root,
                RecordBody::Insert {
                    idx: 1,
                    key: sep,
                    val: u64_cell(right.0),
                },
            )?;
            Self::control_set(ctx, b"root", new_root.0)?;
        }
        Ok(result.inserted)
    }

    /// Delete. Returns `true` if the key existed.
    pub fn delete(ctx: &mut MutCtx<'_>, key: &[u8]) -> Result<bool> {
        let root = PageId(Self::control_get(ctx.page(PageId::CONTROL)?, b"root")?);
        let mut page_id = root;
        loop {
            let page = ctx.page(page_id)?;
            match page.page_type() {
                PageType::Internal => {
                    let idx = Self::route(page, key)?;
                    page_id = PageId(cell_u64(page.value(idx)?)?);
                }
                PageType::Leaf => {
                    let found = page.search(key);
                    return match found {
                        Ok(idx) => {
                            ctx.emit(page_id, RecordBody::Remove { idx: idx as u16 })?;
                            Ok(true)
                        }
                        Err(_) => Ok(false),
                    };
                }
                _ => return Err(TaurusError::PageCorrupt("unexpected page type in tree")),
            }
        }
    }

    /// `rightmost`: `page_id` was reached through last slots only, i.e. it
    /// is the rightmost page of its level (for a leaf, `next == 0`).
    fn put_into(
        ctx: &mut MutCtx<'_>,
        page_id: PageId,
        key: &[u8],
        val: &[u8],
        rightmost: bool,
    ) -> Result<PutResult> {
        let (page_type, route_child) = {
            let page = ctx.page(page_id)?;
            match page.page_type() {
                PageType::Internal => {
                    let idx = Self::route(page, key)?;
                    (
                        PageType::Internal,
                        Some((
                            PageId(cell_u64(page.value(idx)?)?),
                            rightmost && idx + 1 == page.nslots(),
                        )),
                    )
                }
                PageType::Leaf => (PageType::Leaf, None),
                _ => return Err(TaurusError::PageCorrupt("unexpected page type in tree")),
            }
        };
        match page_type {
            PageType::Leaf => {
                let page = ctx.page(page_id)?;
                let found = page.search(key);
                // Bytes the page must still have: the whole cell for a new
                // key, the growth of the value for an existing one.
                let need = match found {
                    Ok(idx) => val.len().saturating_sub(page.value(idx)?.len()),
                    Err(_) => cell_need(key, val),
                };
                if page.usable_space() < need {
                    let (Ok(at) | Err(at)) = found;
                    let (sep, right) = Self::split(ctx, page_id, at, key, rightmost)?;
                    // Retry on the correct half.
                    let (target, rightmost) = if key >= sep.as_ref() {
                        (right, rightmost)
                    } else {
                        (page_id, false)
                    };
                    let mut r = Self::put_into(ctx, target, key, val, rightmost)?;
                    debug_assert!(matches!(r.outcome, PutOutcome::Done));
                    r.outcome = PutOutcome::Split { sep, right };
                    return Ok(r);
                }
                match found {
                    Ok(idx) => {
                        ctx.emit(
                            page_id,
                            RecordBody::UpdateValue {
                                idx: idx as u16,
                                val: Bytes::copy_from_slice(val),
                            },
                        )?;
                        Ok(PutResult::plain(false))
                    }
                    Err(idx) => {
                        ctx.emit(
                            page_id,
                            RecordBody::Insert {
                                idx: idx as u16,
                                key: Bytes::copy_from_slice(key),
                                val: Bytes::copy_from_slice(val),
                            },
                        )?;
                        Ok(PutResult::plain(true))
                    }
                }
            }
            PageType::Internal => {
                let (child, child_rightmost) = route_child
                    .ok_or(TaurusError::PageCorrupt("internal page has no route child"))?;
                let mut result = Self::put_into(ctx, child, key, val, child_rightmost)?;
                if let PutOutcome::Split { sep, right } =
                    std::mem::replace(&mut result.outcome, PutOutcome::Done)
                {
                    // Insert the separator for the new right sibling here.
                    let page = ctx.page(page_id)?;
                    let idx = match page.search(&sep) {
                        Ok(i) => i, // duplicate separator: overwrite route
                        Err(i) => i,
                    };
                    if page.usable_space() < cell_need(&sep, &[0u8; 8]) {
                        let (psep, pright) = Self::split(ctx, page_id, idx, &sep, rightmost)?;
                        let target = if sep >= psep { pright } else { page_id };
                        let tpage = ctx.page(target)?;
                        let tidx = match tpage.search(&sep) {
                            Ok(i) => i,
                            Err(i) => i,
                        };
                        ctx.emit(
                            target,
                            RecordBody::Insert {
                                idx: tidx as u16,
                                key: sep,
                                val: u64_cell(right.0),
                            },
                        )?;
                        result.outcome = PutOutcome::Split {
                            sep: psep,
                            right: pright,
                        };
                    } else {
                        ctx.emit(
                            page_id,
                            RecordBody::Insert {
                                idx: idx as u16,
                                key: sep,
                                val: u64_cell(right.0),
                            },
                        )?;
                    }
                }
                Ok(result)
            }
            _ => unreachable!(),
        }
    }

    /// Splits `left` to make room for a cell with key `key` at slot `at`,
    /// returning `(separator, right page id)`. Works for leaves (fixing
    /// sibling links) and internal nodes alike.
    ///
    /// A cell past the last slot of the rightmost page of its level is an
    /// append: the cut is at the insert point, nothing moves, and the new
    /// right page waits empty for the cell (whose key is the separator), so
    /// an ascending load leaves full pages behind it. Any other insert cuts
    /// at the midpoint.
    fn split(
        ctx: &mut MutCtx<'_>,
        left_id: PageId,
        at: usize,
        key: &[u8],
        rightmost: bool,
    ) -> Result<(Bytes, PageId)> {
        let right_id = Self::alloc_page(ctx)?;
        let (ty, level, cut, moved, old_next, left_prev) = {
            let left = ctx.page(left_id)?;
            let n = left.nslots();
            let cut = if rightmost && at == n { n } else { n / 2 };
            let moved: Vec<(Vec<u8>, Vec<u8>)> = (cut..n)
                .map(|i| Ok((left.key(i)?.to_vec(), left.value(i)?.to_vec())))
                .collect::<Result<_>>()?;
            (
                left.page_type(),
                left.level(),
                cut,
                moved,
                left.next(),
                left.prev(),
            )
        };
        let sep = Bytes::copy_from_slice(moved.first().map_or(key, |(k, _)| k));
        ctx.emit(right_id, RecordBody::Format { ty, level })?;
        for (i, (k, v)) in moved.iter().enumerate() {
            ctx.emit(
                right_id,
                RecordBody::Insert {
                    idx: i as u16,
                    key: Bytes::copy_from_slice(k),
                    val: Bytes::copy_from_slice(v),
                },
            )?;
        }
        if !moved.is_empty() {
            ctx.emit(left_id, RecordBody::TruncateFrom { idx: cut as u16 })?;
        }
        if ty == PageType::Leaf {
            // left <-> right <-> old_next
            ctx.emit(
                right_id,
                RecordBody::SetLinks {
                    next: old_next,
                    prev: left_id.0,
                },
            )?;
            ctx.emit(
                left_id,
                RecordBody::SetLinks {
                    next: right_id.0,
                    prev: left_prev,
                },
            )?;
            if old_next != 0 {
                let nn = ctx.page(PageId(old_next))?.next();
                ctx.emit(
                    PageId(old_next),
                    RecordBody::SetLinks {
                        next: nn,
                        prev: right_id.0,
                    },
                )?;
            }
        }
        Ok((sep, right_id))
    }
}

struct PutResult {
    inserted: bool,
    outcome: PutOutcome,
}

impl PutResult {
    fn plain(inserted: bool) -> Self {
        PutResult {
            inserted,
            outcome: PutOutcome::Done,
        }
    }
}

enum PutOutcome {
    Done,
    Split { sep: Bytes, right: PageId },
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, VecDeque};

    use parking_lot::Mutex;

    /// In-memory page store for pure tree-logic tests: the fetcher reads
    /// from a shared map, the test applies ctx working copies back.
    #[derive(Default)]
    struct MemPages {
        map: Mutex<HashMap<PageId, Arc<PageBuf>>>,
    }

    impl MemPages {
        fn fetcher(&self) -> impl PageFetch + '_ {
            move |id: PageId| -> Result<Arc<PageBuf>> {
                Ok(self
                    .map
                    .lock()
                    .get(&id)
                    .cloned()
                    .unwrap_or_else(|| Arc::new(PageBuf::new())))
            }
        }

        fn absorb(&self, ctx: MutCtx<'_>) -> Vec<LogRecord> {
            let mut map = self.map.lock();
            for (id, page) in ctx.pages {
                map.insert(id, Arc::new(page));
            }
            ctx.records
        }
    }

    fn setup() -> (MemPages, LsnAllocator) {
        let pages = MemPages::default();
        let lsns = LsnAllocator::new(Lsn::ZERO);
        {
            let f = pages.fetcher();
            let mut ctx = MutCtx::new(&lsns, &f);
            BTree::bootstrap(&mut ctx).unwrap();
            pages.absorb(ctx);
        }
        (pages, lsns)
    }

    fn put(pages: &MemPages, lsns: &LsnAllocator, k: &[u8], v: &[u8]) -> Vec<LogRecord> {
        let f = pages.fetcher();
        let mut ctx = MutCtx::new(lsns, &f);
        BTree::put(&mut ctx, k, v).unwrap();
        pages.absorb(ctx)
    }

    fn get(pages: &MemPages, k: &[u8]) -> Option<Vec<u8>> {
        BTree::get(&pages.fetcher(), k).unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let (pages, lsns) = setup();
        put(&pages, &lsns, b"hello", b"world");
        assert_eq!(get(&pages, b"hello"), Some(b"world".to_vec()));
        assert_eq!(get(&pages, b"missing"), None);
    }

    #[test]
    fn update_replaces_value() {
        let (pages, lsns) = setup();
        put(&pages, &lsns, b"k", b"v1");
        put(&pages, &lsns, b"k", b"v2");
        assert_eq!(get(&pages, b"k"), Some(b"v2".to_vec()));
    }

    #[test]
    fn delete_removes_key() {
        let (pages, lsns) = setup();
        put(&pages, &lsns, b"k", b"v");
        let f = pages.fetcher();
        let mut ctx = MutCtx::new(&lsns, &f);
        assert!(BTree::delete(&mut ctx, b"k").unwrap());
        assert!(!BTree::delete(&mut ctx, b"nothing").unwrap());
        pages.absorb(ctx);
        assert_eq!(get(&pages, b"k"), None);
    }

    #[test]
    fn many_inserts_force_splits_and_stay_readable() {
        let (pages, lsns) = setup();
        let n = 2000u32;
        for i in 0..n {
            let k = format!("key{:08}", i * 7 % n);
            let v = format!("value-{i:06}-{}", "x".repeat(64));
            put(&pages, &lsns, k.as_bytes(), v.as_bytes());
        }
        // The tree must have grown beyond one leaf.
        let root = BTree::root(&pages.fetcher()).unwrap();
        let root_page = pages.fetcher().fetch(root).unwrap();
        assert_eq!(root_page.page_type(), PageType::Internal);
        for i in (0..n).step_by(97) {
            let k = format!("key{:08}", i * 7 % n);
            assert!(get(&pages, k.as_bytes()).is_some(), "{k}");
        }
    }

    #[test]
    fn a_covered_key_descends_to_the_covering_leaf() {
        let (pages, lsns) = setup();
        for i in 0..600u32 {
            put(
                &pages,
                &lsns,
                format!("k{:06}", i * 7 % 600 * 2).as_bytes(),
                &[b'v'; 90],
            );
        }
        let f = pages.fetcher();
        let mut covered = 0;
        // Keys present (even) and absent (odd), below, inside and past the table.
        let keys = (0..1300u32).map(|i| format!("k{i:06}").into_bytes());
        let mut last: Option<Arc<PageBuf>> = None;
        for key in std::iter::once(b"a".to_vec()).chain(keys) {
            let leaf = BTree::leaf_for(&f, &key).unwrap();
            if let Some(prev) = last.filter(|prev| BTree::leaf_covers(prev, &key)) {
                assert_eq!(prev.as_bytes(), leaf.as_bytes(), "{key:?}");
                covered += 1;
            }
            last = Some(leaf);
        }
        // Nearly every step of an ascending run stays on its leaf.
        assert!(covered > 1200, "{covered}");
    }

    #[test]
    fn scan_walks_leaf_chain_in_order() {
        let (pages, lsns) = setup();
        for i in 0..500u32 {
            let k = format!("k{:06}", i);
            put(&pages, &lsns, k.as_bytes(), b"v");
        }
        let all = BTree::scan(&pages.fetcher(), b"k", 10_000).unwrap();
        assert_eq!(all.len(), 500);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "sorted order");
        // Mid-range scan.
        let mid = BTree::scan(&pages.fetcher(), b"k000100", 5).unwrap();
        assert_eq!(mid[0].0, b"k000100".to_vec());
        assert_eq!(mid.len(), 5);
    }

    /// What a scan asked of its fetcher, in order.
    #[derive(Debug, PartialEq)]
    enum Ask {
        Fetch(PageId),
        Prefetch(Vec<PageId>),
    }

    /// MemPages-backed fetcher that advertises a readahead window and
    /// records every demand fetch and every hint.
    struct RecordingFetcher<'a> {
        pages: &'a MemPages,
        window: usize,
        asks: Mutex<Vec<Ask>>,
    }

    impl<'a> RecordingFetcher<'a> {
        fn new(pages: &'a MemPages, window: usize) -> Self {
            RecordingFetcher {
                pages,
                window,
                asks: Mutex::new(Vec::new()),
            }
        }

        /// The hints of the scans so far, one entry per `prefetch` call.
        fn hints(&self) -> Vec<Vec<PageId>> {
            self.asks
                .lock()
                .iter()
                .filter_map(|a| match a {
                    Ask::Prefetch(ids) => Some(ids.clone()),
                    Ask::Fetch(_) => None,
                })
                .collect()
        }
    }

    impl PageFetch for RecordingFetcher<'_> {
        fn fetch(&self, id: PageId) -> Result<Arc<PageBuf>> {
            self.asks.lock().push(Ask::Fetch(id));
            self.pages.fetcher().fetch(id)
        }
        fn prefetch(&self, pages: &[PageId]) {
            self.asks.lock().push(Ask::Prefetch(pages.to_vec()));
        }
        fn readahead_window(&self) -> usize {
            self.window
        }
    }

    /// Leaf ids in chain order, found by descending the leftmost spine.
    fn leaf_chain(pages: &MemPages) -> Vec<PageId> {
        let f = pages.fetcher();
        let mut id = BTree::root(&f).unwrap();
        loop {
            let page = f.fetch(id).unwrap();
            if page.page_type() == PageType::Leaf {
                break;
            }
            id = PageId(cell_u64(page.value(0).unwrap()).unwrap());
        }
        let mut chain = Vec::new();
        while id.0 != 0 {
            chain.push(id);
            id = PageId(f.fetch(id).unwrap().next());
        }
        chain
    }

    /// `(height, fill of each leaf in chain order)`; fill is the used share
    /// of the bytes a page has for slots and cells.
    fn tree_shape(pages: &MemPages) -> (u8, Vec<f64>) {
        let f = pages.fetcher();
        let height = f.fetch(BTree::root(&f).unwrap()).unwrap().level() + 1;
        let room = (taurus_common::page::PAGE_SIZE - taurus_common::page::HEADER_SIZE) as f64;
        let fills = leaf_chain(pages)
            .into_iter()
            .map(|id| 1.0 - f.fetch(id).unwrap().usable_space() as f64 / room)
            .collect();
        (height, fills)
    }

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    /// A 14-byte key and a 200-byte value: the benchmark's SysBench row, 37
    /// to a leaf.
    fn row(i: u32) -> (Vec<u8>, Vec<u8>) {
        (format!("row{i:011}").into_bytes(), vec![i as u8; 200])
    }

    #[test]
    fn ascending_load_fills_its_leaves_and_a_random_one_still_splits_at_the_midpoint() {
        let n = 10_000u32;
        let (asc, lsns) = setup();
        for i in 0..n {
            let (k, v) = row(i);
            put(&asc, &lsns, &k, &v);
        }
        // The same keys in a seeded random order (Fisher-Yates on SplitMix).
        let mut order: Vec<u32> = (0..n).collect();
        let mut rng = proptest::TestRng::seeded(16);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let (rnd, lsns) = setup();
        for i in order {
            let (k, v) = row(i);
            put(&rnd, &lsns, &k, &v);
        }

        let (asc_height, asc_fills) = tree_shape(&asc);
        let (rnd_height, rnd_fills) = tree_shape(&rnd);
        assert!(
            mean(&asc_fills) >= 0.9,
            "ascending fill {}",
            mean(&asc_fills)
        );
        assert!(asc_height <= rnd_height, "{asc_height} > {rnd_height}");
        assert!(asc_fills.len() < rnd_fills.len());
        let fill = mean(&rnd_fills);
        assert!((0.5..=0.8).contains(&fill), "random-order fill {fill}");
        // A midpoint split leaves both halves about half full, and nothing
        // is deleted here: only the rightmost leaf, the one page an append
        // split can have started, may hold less.
        let (_, inner) = rnd_fills.split_last().unwrap();
        let min = inner.iter().copied().fold(1.0, f64::min);
        assert!(min >= 0.45, "a non-rightmost leaf is only {min} full");

        for pages in [&asc, &rnd] {
            let all = BTree::scan(&pages.fetcher(), b"", usize::MAX).unwrap();
            assert_eq!(all.len(), n as usize);
            assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "sorted order");
        }
    }

    /// A table of SysBench rows loaded in ascending order, leaves full.
    fn dense_table(rows: u32) -> MemPages {
        let (pages, lsns) = setup();
        for i in 0..rows {
            let (k, v) = row(i);
            put(&pages, &lsns, &k, &v);
        }
        pages
    }

    #[test]
    fn bounded_scan_hints_once_and_only_leaves_its_limit_can_reach() {
        let pages = dense_table(800);
        let chain = leaf_chain(&pages);
        assert!(chain.len() > 20, "{} leaves", chain.len());
        for start in 0..800u32 {
            let rf = RecordingFetcher::new(&pages, 16);
            let got = BTree::scan(&rf, &row(start).0, 20).unwrap();
            assert_eq!(got.len(), 20.min(800 - start as usize));
            assert_eq!(got[0].0, row(start).0);

            let asks = rf.asks.lock();
            let first_leaf = asks
                .iter()
                .position(|a| matches!(a, Ask::Fetch(id) if chain.contains(id)))
                .unwrap();
            let Ask::Fetch(leaf) = &asks[first_leaf] else {
                unreachable!()
            };
            let at = chain.iter().position(|id| id == leaf).unwrap();
            // One hint, before the first leaf: that leaf and its sibling,
            // the only two a 20-row scan over 37-row leaves can touch.
            let reach: Vec<PageId> = chain[at..chain.len().min(at + 2)].to_vec();
            let hints: Vec<&Ask> = asks
                .iter()
                .filter(|a| matches!(a, Ask::Prefetch(_)))
                .collect();
            assert_eq!(hints, [&Ask::Prefetch(reach)], "start {start}");
            assert!(matches!(asks[first_leaf - 1], Ask::Prefetch(_)));
        }
    }

    #[test]
    fn bounded_scan_sizes_later_hints_from_the_rows_it_still_owes() {
        let pages = dense_table(800);
        let chain = leaf_chain(&pages);
        // 100 rows from the middle of a leaf: 37-row leaves, so the scan
        // walks four leaves, or three when it starts on a leaf's first row.
        for start in [40u32, 74, 300, 455] {
            let rf = RecordingFetcher::new(&pages, 16);
            let got = BTree::scan(&rf, &row(start).0, 100).unwrap();
            assert_eq!(got.len(), 100);
            let walked: Vec<PageId> = rf
                .asks
                .lock()
                .iter()
                .filter_map(|a| match a {
                    Ask::Fetch(id) if chain.contains(id) => Some(*id),
                    _ => None,
                })
                .collect();
            let hinted: Vec<PageId> = rf.hints().concat();
            assert!(rf.hints().len() <= 2, "{:?}", rf.hints());
            assert_eq!(hinted[..walked.len()], walked[..], "start {start}");
            assert!(hinted.len() <= walked.len() + 1, "start {start}");
        }
    }

    #[test]
    fn single_row_scans_and_windowless_fetchers_never_hint() {
        let pages = dense_table(800);
        let rf = RecordingFetcher::new(&pages, 16);
        assert_eq!(BTree::scan(&rf, &row(36).0, 1).unwrap().len(), 1);
        assert_eq!(BTree::scan(&rf, &row(500).0, 0).unwrap().len(), 0);
        assert!(rf.hints().is_empty(), "{:?}", rf.hints());

        let none = RecordingFetcher::new(&pages, 0);
        assert_eq!(BTree::scan(&none, b"", usize::MAX).unwrap().len(), 800);
        assert_eq!(BTree::scan(&none, &row(36).0, 20).unwrap().len(), 20);
        assert!(none.hints().is_empty(), "{:?}", none.hints());
    }

    #[test]
    fn unbounded_scan_streams_hints_in_window_sized_chunks() {
        // 100-byte keys keep the fanout low: three levels, so the walk
        // also crosses level-1 boundaries.
        let (pages, lsns) = setup();
        for i in 0..3_000u32 {
            put(&pages, &lsns, format!("k{i:099}").as_bytes(), &[b'v'; 300]);
        }
        assert_eq!(tree_shape(&pages).0, 3);
        let chain = leaf_chain(&pages);
        let plain = BTree::scan(&pages.fetcher(), b"", usize::MAX).unwrap();
        assert_eq!(plain.len(), 3_000);

        let window = 8;
        let rf = RecordingFetcher::new(&pages, window);
        assert_eq!(BTree::scan(&rf, b"", usize::MAX).unwrap(), plain);

        // Never more than a window of hinted leaves not yet walked into,
        // and every hint is a leaf of the chain, in chain order.
        let mut outstanding = VecDeque::new();
        let (mut unhinted, mut calls) = (0usize, 0usize);
        for ask in rf.asks.lock().iter() {
            match ask {
                Ask::Prefetch(ids) => {
                    calls += 1;
                    assert!(ids.len() <= window);
                    outstanding.extend(ids.iter().copied());
                }
                Ask::Fetch(id) if chain.contains(id) => {
                    if outstanding.front() == Some(id) {
                        outstanding.pop_front();
                    } else if !outstanding.contains(id) {
                        unhinted += 1;
                    }
                }
                Ask::Fetch(_) => {}
            }
            assert!(outstanding.len() <= window, "{outstanding:?}");
        }
        let hinted: Vec<PageId> = rf.hints().concat();
        assert!(hinted.iter().all(|id| chain.contains(id)));
        assert!(hinted.windows(2).all(|w| {
            chain.iter().position(|id| *id == w[0]) < chain.iter().position(|id| *id == w[1])
        }));
        // Only the first leaf after each level-1 boundary arrives unhinted,
        // and a steady-state hint carries at least half a window.
        let level1_pages = {
            let f = pages.fetcher();
            f.fetch(BTree::root(&f).unwrap()).unwrap().nslots()
        };
        assert!(level1_pages > 1);
        assert!(unhinted < level1_pages, "{unhinted} leaves fetched cold");
        assert!(
            calls <= chain.len() / (window / 2) + 2 * level1_pages,
            "{calls} hints for {} leaves",
            chain.len()
        );
    }

    /// Replays `log` (after the bootstrap records) onto blank pages and
    /// checks every page of `pages` byte for byte: what a replica or a Page
    /// Store materializes from the record stream alone.
    fn assert_replay_matches(pages: &MemPages, log: &[LogRecord]) {
        // The bootstrap records carry the LSNs `setup` gave them (1..=4).
        let bl = LsnAllocator::new(Lsn::ZERO);
        let bf = MemPages::default();
        let bff = bf.fetcher();
        let mut bctx = MutCtx::new(&bl, &bff);
        BTree::bootstrap(&mut bctx).unwrap();
        let mut replica: HashMap<PageId, PageBuf> = HashMap::new();
        for rec in bctx.records.iter().chain(log.iter()) {
            let page = replica.entry(rec.page).or_default();
            apply_record(page, rec).unwrap();
        }
        let master = pages.map.lock();
        for (id, mpage) in master.iter() {
            let rpage = replica.get(id).unwrap_or_else(|| panic!("missing {id}"));
            assert_eq!(mpage.as_bytes(), rpage.as_bytes(), "page {id} differs");
        }
    }

    #[test]
    fn replaying_emitted_records_reproduces_identical_pages() {
        // The end-to-end guarantee: a replica replaying the record stream
        // materializes byte-identical pages. Keys arrive in a stride order,
        // so the splits are midpoint splits.
        let (pages, lsns) = setup();
        let mut log: Vec<LogRecord> = Vec::new();
        for i in 0..800u32 {
            let k = format!("key{:05}", i * 7 % 800);
            log.extend(put(
                &pages,
                &lsns,
                k.as_bytes(),
                format!("val{i}").as_bytes(),
            ));
        }
        assert!(log
            .iter()
            .any(|r| matches!(r.body, RecordBody::TruncateFrom { .. })));
        assert_replay_matches(&pages, &log);
    }

    #[test]
    fn append_splits_of_a_leaf_and_an_internal_page_replay_to_identical_pages() {
        // Ascending 100-byte keys: every split is an append split, first of
        // leaves, then of the level-1 page when the root grows a level.
        let (pages, lsns) = setup();
        let mut log: Vec<LogRecord> = Vec::new();
        let mut i = 0u32;
        while tree_shape(&pages).0 < 3 || i < 2_000 {
            log.extend(put(
                &pages,
                &lsns,
                format!("k{i:099}").as_bytes(),
                &[b'v'; 300],
            ));
            i += 1;
        }
        let formats = |ty: PageType, level: u8| {
            log.iter()
                .filter(|r| r.body == RecordBody::Format { ty, level })
                .count()
        };
        assert!(formats(PageType::Leaf, 0) > 70);
        assert!(formats(PageType::Internal, 1) >= 2, "a level-1 page split");
        assert_eq!(formats(PageType::Internal, 2), 1, "the root grew once");
        // Nothing moved: no page was truncated, and a new page's first
        // cell is the one being inserted, at slot 0.
        assert!(!log
            .iter()
            .any(|r| matches!(r.body, RecordBody::TruncateFrom { .. })));
        let (_, fills) = tree_shape(&pages);
        assert!(mean(&fills) >= 0.9, "fill {}", mean(&fills));
        assert_replay_matches(&pages, &log);

        // Random inserts into the dense tree split at the midpoint again,
        // and the mixed stream replays as well.
        for j in 0..200u32 {
            let at = j * 37 % i;
            log.extend(put(
                &pages,
                &lsns,
                format!("k{at:099}x").as_bytes(),
                &[b'w'; 300],
            ));
        }
        assert!(log
            .iter()
            .any(|r| matches!(r.body, RecordBody::TruncateFrom { .. })));
        assert_replay_matches(&pages, &log);
    }

    #[test]
    fn oversized_and_empty_keys_are_rejected() {
        let (pages, lsns) = setup();
        let f = pages.fetcher();
        let mut ctx = MutCtx::new(&lsns, &f);
        assert!(BTree::put(&mut ctx, b"", b"v").is_err());
        let huge = vec![0u8; MAX_CELL_PAYLOAD + 1];
        assert!(BTree::put(&mut ctx, b"k", &huge).is_err());
    }

    #[test]
    fn keys_smaller_than_any_separator_still_route() {
        let (pages, lsns) = setup();
        // Force splits with large keys, then insert a tiny key.
        for i in 0..1500u32 {
            let k = format!("zz{:06}", i);
            put(&pages, &lsns, k.as_bytes(), &[b'v'; 64]);
        }
        put(&pages, &lsns, b"a", b"first");
        assert_eq!(get(&pages, b"a"), Some(b"first".to_vec()));
        let all = BTree::scan(&pages.fetcher(), b"", 2).unwrap();
        assert_eq!(all[0].0, b"a".to_vec());
    }
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 24 })]

        /// An ascending run (append splits, full leaves) followed by random
        /// inserts, updates that grow their value (a full leaf must split
        /// for them) and deletes reads back exactly like a `BTreeMap`, and
        /// the whole record stream replays to the same pages. A failing
        /// case prints its seed.
        #[test]
        fn dense_run_then_random_ops_match_a_model(
            run in 300u32..900,
            ops in proptest::prelude::prop::collection::vec((0u8..4, 0u32..2_000, 0usize..400), 100..500),
        ) {
            let (pages, lsns) = setup();
            let mut model = std::collections::BTreeMap::new();
            let mut log = Vec::new();
            // Even keys, so later inserts land between, below and above.
            for i in 0..run {
                let (k, v) = row(2 * i);
                log.extend(put(&pages, &lsns, &k, &v));
                model.insert(k, v);
            }
            assert!(mean(&tree_shape(&pages).1) >= 0.85);
            for (kind, i, len) in ops {
                let (k, _) = row(i);
                let f = pages.fetcher();
                let mut ctx = MutCtx::new(&lsns, &f);
                match kind {
                    // Delete; update growing the old value; upsert.
                    0 => {
                        let existed = BTree::delete(&mut ctx, &k).unwrap();
                        assert_eq!(existed, model.remove(&k).is_some());
                    }
                    1 if model.contains_key(&k) => {
                        let mut v = model[&k].clone();
                        v.extend(std::iter::repeat_n(b'+', len + 1));
                        v.truncate(MAX_CELL_PAYLOAD - k.len());
                        assert!(!BTree::put(&mut ctx, &k, &v).unwrap());
                        model.insert(k, v);
                    }
                    _ => {
                        let v = vec![kind; len];
                        let new = BTree::put(&mut ctx, &k, &v).unwrap();
                        assert_eq!(new, model.insert(k, v).is_none());
                    }
                }
                log.extend(pages.absorb(ctx));
            }
            let all = BTree::scan(&pages.fetcher(), b"", usize::MAX).unwrap();
            assert_eq!(all, model.clone().into_iter().collect::<Vec<_>>());
            for (k, v) in model.iter().step_by(17) {
                assert_eq!(get(&pages, k).as_ref(), Some(v));
            }
            assert_replay_matches(&pages, &log);
        }
    }
}
