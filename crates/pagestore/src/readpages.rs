//! `ReadPages`: versioned page reads inside a Page Store, one or many
//! pages of a slice at a single snapshot LSN per call. It is the only page
//! read: `ReadPage` is a one-page call. Execution never bypasses versioning
//! — every page goes through the Log Directory + consolidation path, so a
//! batch is byte-identical to N one-page reads at the same `as_of`. Under
//! the layered consolidation policy (DESIGN.md §13) materialization
//! transparently sources records from the open L0's staged memory, a sealed
//! L0's run index, or a compacted L0 blob — the visibility gate and results
//! below are unchanged.
//!
//! Visibility is the one gate every read kind shares
//! (`PageStoreServer::read_gate`): a rebuilding or behind replica refuses
//! the call (so the SAL routes to the next replica), and a snapshot below
//! the recycle LSN is answered `VersionRecycled` for the whole slice.
//! A page that fails to materialize refuses the call too: the answer is a
//! pure function of one replica's directory, all or nothing.
//!
//! Like `ScanSlice`, a call carries a budget: past `max_pages` the server
//! stops and returns a continuation ([`ReadPagesResponse::resume_from`]), so
//! one read RPC stays bounded and cannot starve concurrent `WriteLogs`
//! traffic. Pages are a fixed size, so the page budget is a byte budget too.
//!
//! Same discipline as `crate::pushdown`: this is in-store execution, so no
//! panicking constructs — every failure becomes a `TaurusError`.

use taurus_common::{Lsn, PageBuf, PageId, Result, SliceKey, TaurusError};

use crate::server::PageStoreServer;

/// One `ReadPages` call: materialize `pages` of `key` as of a snapshot LSN,
/// within a per-call page budget.
#[derive(Clone, Debug)]
pub struct ReadPagesRequest {
    pub key: SliceKey,
    /// Snapshot LSN every page is materialized as of.
    pub as_of: Lsn,
    /// Page ids to read; pages come back in this order.
    pub pages: Vec<PageId>,
    /// Stop after this many pages (at least one page is always attempted).
    pub max_pages: usize,
}

/// Result of one `ReadPages` call: the pages read plus an optional
/// continuation when the budget stopped the batch early.
#[derive(Clone, Debug, Default)]
pub struct ReadPagesResponse {
    /// One entry per *attempted* page, in request order: the materialized
    /// image and the LSN of the newest record applied to it.
    pub pages: Vec<(PageId, PageBuf, Lsn)>,
    /// Bytes of page payload in `pages`.
    pub bytes_returned: u64,
    /// Set when the budget stopped the batch: the index into the request's
    /// `pages` of the first page **not** attempted. Re-issue the call with
    /// the remaining ids to continue.
    pub resume_from: Option<usize>,
}

impl PageStoreServer {
    /// `ReadPages`: applies the slice-level visibility gate every read kind
    /// shares, then materializes each requested page at the snapshot LSN.
    pub fn read_pages(&self, call: &ReadPagesRequest) -> Result<ReadPagesResponse> {
        // The first page is always attempted, so a continuation loop
        // terminates.
        let attempted = call.pages.len().min(call.max_pages.max(1));
        let first = call.pages.first().copied().unwrap_or(PageId(0));
        self.read_gate(call.key, call.as_of, first)?;
        let mut resp = ReadPagesResponse {
            resume_from: (attempted < call.pages.len()).then_some(attempted),
            ..ReadPagesResponse::default()
        };
        for &page in call.pages.iter().take(attempted) {
            let (buf, lsn) = self.materialize(call.key, page, call.as_of)?;
            resp.bytes_returned += buf.as_bytes().len() as u64;
            resp.pages.push((page, buf, lsn));
        }
        self.note_read(resp.pages.len() as u64, resp.bytes_returned);
        Ok(resp)
    }

    /// `ReadPage`: the version of `page` as of `as_of` (the newest version
    /// with LSN <= `as_of`), as a one-page [`PageStoreServer::read_pages`].
    pub fn read_page(&self, key: SliceKey, page: PageId, as_of: Lsn) -> Result<(PageBuf, Lsn)> {
        let pages = vec![page];
        let call = ReadPagesRequest {
            key,
            as_of,
            pages,
            max_pages: 1,
        };
        match self.read_pages(&call)?.pages.pop() {
            Some((_, buf, lsn)) => Ok((buf, lsn)),
            None => Err(TaurusError::Internal(format!("{key}: {page} was not read"))),
        }
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

    fn call(as_of: u64, pages: Vec<PageId>) -> ReadPagesRequest {
        ReadPagesRequest {
            key: key(),
            as_of: Lsn(as_of),
            pages,
            max_pages: usize::MAX,
        }
    }

    #[test]
    fn batch_matches_sequential_single_page_reads() {
        let s = seeded();
        let ids = vec![PageId(5), PageId(6)];
        let resp = s.read_pages(&call(8, ids.clone())).unwrap();
        assert_eq!(resp.pages.len(), 2);
        assert!(resp.resume_from.is_none());
        for ((page, buf, lsn), want_id) in resp.pages.iter().zip(&ids) {
            let (single, single_lsn) = s.read_page(key(), *want_id, Lsn(8)).unwrap();
            assert_eq!(page, want_id);
            assert_eq!(buf.as_bytes(), single.as_bytes());
            assert_eq!(*lsn, single_lsn);
        }
    }

    #[test]
    fn batch_respects_snapshot_lsn() {
        let s = seeded();
        // As of LSN 4 page 6 is still unformatted: a Free page at LSN 0.
        let resp = s.read_pages(&call(4, vec![PageId(6)])).unwrap();
        let (_, buf, lsn) = &resp.pages[0];
        assert_eq!(buf.page_type(), PageType::Free);
        assert_eq!(*lsn, Lsn::ZERO);
    }

    #[test]
    fn page_budget_stops_batch_and_continuation_resumes() {
        let s = seeded();
        // A spent budget still attempts the first page, so a continuation
        // loop always makes progress.
        for max_pages in [0, 1] {
            let mut c = call(8, vec![PageId(5), PageId(6)]);
            c.max_pages = max_pages;
            let first = s.read_pages(&c).unwrap();
            assert_eq!(first.pages.len(), 1);
            assert_eq!(first.resume_from, Some(1));
            let rest = call(8, c.pages[1..].to_vec());
            let second = s.read_pages(&rest).unwrap();
            assert_eq!(second.pages.len(), 1);
            assert!(second.resume_from.is_none());
            assert_eq!(second.pages[0].0, PageId(6));
        }
    }

    #[test]
    fn unknown_slice_is_a_whole_call_error() {
        let s = server();
        assert!(s.read_pages(&call(1, vec![PageId(5)])).is_err());
    }
}
