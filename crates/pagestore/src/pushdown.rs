//! `ScanSlice`: near-data scan execution inside a Page Store (the NDP
//! follow-on paper; PAPERS.md).
//!
//! The SAL ships a [`taurus_common::scan::ScanRequest`] here instead of
//! dragging every page across the fabric through `ReadPage`. Execution
//! never bypasses versioning: every covered page is materialized **as of
//! the request's snapshot LSN** through the same Log Directory +
//! consolidation path `ReadPage` uses, then evaluated with the shared
//! operator evaluator from `taurus-common` — so pushdown answers are
//! byte-identical to fetch-and-filter at the same LSN. Under the layered
//! consolidation policy (DESIGN.md §13) record fetches route through layer
//! files (staged memory, sealed-run index, or compacted L0 blobs); the
//! snapshot semantics and answers are unchanged.
//!
//! A call carries row and byte budgets checked at page granularity: when a
//! page's evaluation crosses either budget the server stops and returns a
//! continuation ([`ScanSliceResponse::next_page`]), so one scan RPC stays
//! bounded and cannot starve concurrent `WriteLogs` traffic.
//!
//! This module is hot-path code with a stricter discipline than the rest of
//! the crate: a `ScanSlice` call evaluates user-shaped predicates over
//! arbitrary page bytes, and a panic here takes the Page Store node down
//! for every tenant. So no panicking construct at all — no `panic!`-family
//! macro, no `assert!` in a `Result` function, no unwrap, no indexing —
//! which clippy enforces through the `deny` below (test code excepted, per
//! `clippy.toml`). The shared evaluator in `taurus_common::scan` carries
//! the same `deny`.

#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing
)]

use taurus_common::scan::{evaluate_leaf_page, AggState, ScanAccumulator, ScanRequest};
use taurus_common::{Lsn, PageId, Result, SliceKey};

use crate::server::PageStoreServer;

/// One `ScanSlice` call: evaluate `req` over the pages of `key` as of a
/// snapshot LSN, within per-call budgets.
#[derive(Clone, Debug)]
pub struct ScanSliceRequest {
    pub key: SliceKey,
    /// Snapshot LSN every page is materialized as of.
    pub as_of: Lsn,
    pub req: ScanRequest,
    /// Continuation from a prior call: only page ids strictly greater than
    /// this are evaluated.
    pub resume_after: Option<PageId>,
    /// Stop after the page that brings examined rows to this count.
    pub max_rows: usize,
    /// Stop after the page that brings returned row payload to this size.
    pub max_bytes: usize,
}

/// Result of one `ScanSlice` call: matching rows (or a partial aggregate)
/// plus execution counters and an optional continuation.
#[derive(Clone, Debug, Default)]
pub struct ScanSliceResponse {
    /// Projected matching rows, in this slice's page order (not globally
    /// key-sorted; the SAL planner merges).
    pub rows: Vec<(Vec<u8>, Vec<u8>)>,
    /// Partial aggregate state (meaningful when the request aggregates).
    pub agg: AggState,
    /// Pages materialized and evaluated by this call.
    pub pages_scanned: u64,
    /// Row slots examined by this call.
    pub rows_scanned: u64,
    /// Rows that matched range + predicates.
    pub rows_matched: u64,
    /// Bytes of row payload in `rows`.
    pub bytes_returned: u64,
    /// Set when a budget stopped the scan: the last page id evaluated.
    /// Re-issue the call with `resume_after = next_page` to continue.
    pub next_page: Option<PageId>,
}

impl PageStoreServer {
    /// `ScanSlice`: the fifth storage API method. Applies the same
    /// visibility gate as `ReadPages` (a rebuilding or behind replica
    /// refuses the call so the SAL can try the next replica; a recycled
    /// snapshot is answered `VersionRecycled`), then materializes
    /// each page of the slice at the snapshot LSN and folds it through the
    /// shared evaluator.
    pub fn scan_slice(&self, call: &ScanSliceRequest) -> Result<ScanSliceResponse> {
        self.read_gate(call.key, call.as_of, PageId(0))?;
        let dir = self.dir(call.key)?;
        let mut acc = ScanAccumulator::default();
        let mut resp = ScanSliceResponse::default();
        // `page_ids` is sorted, so the continuation cursor is just "ids
        // strictly after `resume_after`". Pages created after the snapshot
        // materialize as Free at LSN 0 and contribute nothing.
        for page in dir.page_ids() {
            if let Some(after) = call.resume_after {
                if page <= after {
                    continue;
                }
            }
            let (buf, _) = self.materialize(call.key, page, call.as_of)?;
            evaluate_leaf_page(&buf, &call.req, &mut acc)?;
            resp.pages_scanned += 1;
            if acc.rows_scanned >= call.max_rows as u64 || acc.bytes_out >= call.max_bytes as u64 {
                resp.next_page = Some(page);
                break;
            }
        }
        resp.rows = acc.rows;
        resp.agg = acc.agg;
        resp.rows_scanned = acc.rows_scanned;
        resp.rows_matched = acc.rows_matched;
        resp.bytes_returned = acc.bytes_out;
        if resp.pages_scanned > 0 {
            self.note_read(resp.pages_scanned, resp.bytes_returned);
        }
        Ok(resp)
    }

    /// Sorted page ids the slice's Log Directory knows about. Used by the
    /// SAL's local fallback to enumerate a slice it must scan through
    /// `ReadPages` when no replica can serve `ScanSlice` at the snapshot.
    pub fn page_ids(&self, key: SliceKey) -> Result<Vec<PageId>> {
        Ok(self.dir(key)?.page_ids())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use bytes::Bytes;
    use taurus_common::clock::ManualClock;
    use taurus_common::config::StorageProfile;
    use taurus_common::record::RecordBody;
    use taurus_common::scan::{Aggregate, CmpOp, Field, Operand};
    use taurus_common::{DbId, LogRecord, PageType, SliceId};
    use taurus_fabric::StorageDevice;

    use crate::fragment::SliceFragment;
    use crate::pool::EvictionPolicy;
    use crate::server::ConsolidationPolicy;

    fn server() -> Arc<PageStoreServer> {
        let clock = ManualClock::shared();
        PageStoreServer::new(
            StorageDevice::in_memory(clock, StorageProfile::instant()),
            1 << 20,
            64,
            EvictionPolicy::Lfu,
            ConsolidationPolicy::layered_default(),
        )
    }

    fn key() -> SliceKey {
        SliceKey::new(DbId(1), SliceId(0))
    }

    fn format_rec(lsn: u64, page: u64) -> LogRecord {
        LogRecord::new(
            Lsn(lsn),
            PageId(page),
            RecordBody::Format {
                ty: PageType::Leaf,
                level: 0,
            },
        )
    }

    fn insert_rec(lsn: u64, page: u64, idx: u16, k: &str, v: &str) -> LogRecord {
        LogRecord::new(
            Lsn(lsn),
            PageId(page),
            RecordBody::Insert {
                idx,
                key: Bytes::copy_from_slice(k.as_bytes()),
                val: Bytes::copy_from_slice(v.as_bytes()),
            },
        )
    }

    /// Two leaf pages, three rows each, written as one fragment chain.
    fn seeded() -> Arc<PageStoreServer> {
        let s = server();
        s.create_slice(key());
        s.write_logs(&SliceFragment::new(
            key(),
            Lsn(0),
            vec![
                format_rec(1, 5),
                insert_rec(2, 5, 0, "a", "1"),
                insert_rec(3, 5, 1, "b", "2"),
                insert_rec(4, 5, 2, "c", "3"),
                format_rec(5, 6),
                insert_rec(6, 6, 0, "d", "4"),
                insert_rec(7, 6, 1, "e", "5"),
                insert_rec(8, 6, 2, "f", "6"),
            ],
        ))
        .unwrap();
        s
    }

    fn call(as_of: u64) -> ScanSliceRequest {
        ScanSliceRequest {
            key: key(),
            as_of: Lsn(as_of),
            req: ScanRequest::full(),
            resume_after: None,
            max_rows: usize::MAX,
            max_bytes: usize::MAX,
        }
    }

    #[test]
    fn scan_slice_returns_all_rows_at_head() {
        let s = seeded();
        let resp = s.scan_slice(&call(8)).unwrap();
        assert_eq!(resp.rows.len(), 6);
        assert_eq!(resp.pages_scanned, 2);
        assert_eq!(resp.rows_matched, 6);
        assert!(resp.next_page.is_none());
    }

    #[test]
    fn scan_slice_respects_snapshot_lsn() {
        let s = seeded();
        // As of LSN 4 only page 5's three rows exist; page 6 is unformatted.
        let resp = s.scan_slice(&call(4)).unwrap();
        assert_eq!(
            resp.rows
                .iter()
                .map(|(k, _)| k.as_slice())
                .collect::<Vec<_>>(),
            vec![b"a".as_slice(), b"b", b"c"]
        );
    }

    #[test]
    fn scan_slice_filters_and_aggregates() {
        let s = seeded();
        let mut c = call(8);
        c.req = ScanRequest::full().with_predicate(
            Field::Value,
            CmpOp::Ge,
            Operand::Bytes(b"4".to_vec()),
        );
        let resp = s.scan_slice(&c).unwrap();
        assert_eq!(resp.rows.len(), 3);
        assert_eq!(resp.rows_scanned, 6);

        c.req = c.req.with_aggregate(Aggregate::Count);
        let resp = s.scan_slice(&c).unwrap();
        assert!(resp.rows.is_empty());
        assert_eq!(resp.agg.count, 3);
    }

    #[test]
    fn budgets_stop_mid_slice_and_continuation_resumes() {
        let s = seeded();
        let mut c = call(8);
        c.max_rows = 1; // crossed by the first page
        let first = s.scan_slice(&c).unwrap();
        assert_eq!(first.pages_scanned, 1);
        assert_eq!(first.next_page, Some(PageId(5)));
        c.resume_after = first.next_page;
        c.max_rows = usize::MAX;
        let second = s.scan_slice(&c).unwrap();
        assert!(second.next_page.is_none());
        let mut all: Vec<_> = first.rows;
        all.extend(second.rows);
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn page_ids_lists_directory_pages() {
        let s = seeded();
        assert_eq!(s.page_ids(key()).unwrap(), vec![PageId(5), PageId(6)]);
    }
}
