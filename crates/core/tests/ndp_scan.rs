//! Integration tests for the SAL's near-data scan planner: per-slice
//! `ScanSlice` fan-out, snapshot capping for quiet slices, replica retry,
//! and agreement with fetch-and-filter over `ReadPage`.

use std::sync::Arc;

use bytes::Bytes;
use taurus_common::clock::ManualClock;
use taurus_common::config::{NetworkProfile, StorageProfile, REPLICAS};
use taurus_common::lsn::{LsnAllocator, LsnWatermark};
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, LogRecordGroup, RecordBody};
use taurus_common::scan::{
    evaluate_leaf_page, Aggregate, CmpOp, Field, Operand, ScanAccumulator, ScanRequest,
};
use taurus_common::{DbId, Lsn, NodeId, PageId, TaurusConfig};
use taurus_core::Sal;
use taurus_fabric::{Fabric, NodeKind};
use taurus_logstore::LogStoreCluster;
use taurus_pagestore::cluster::PageStoreOptions;
use taurus_pagestore::PageStoreCluster;

struct Harness {
    fabric: Fabric,
    logs: LogStoreCluster,
    pages: PageStoreCluster,
    anchor: Arc<LsnWatermark>,
    me: NodeId,
    cfg: TaurusConfig,
    lsns: LsnAllocator,
}

impl Harness {
    fn new(log_nodes: usize, page_nodes: usize) -> Harness {
        let clock = ManualClock::shared();
        let fabric = Fabric::new(clock.clone(), NetworkProfile::instant(), 77);
        let me = fabric.add_node(NodeKind::Compute);
        let cfg = TaurusConfig {
            log_buffer_bytes: 1,
            slice_buffer_bytes: 1,
            ..TaurusConfig::test()
        };
        let logs = LogStoreCluster::new(fabric.clone(), REPLICAS, cfg.logstore_cache_bytes);
        logs.spawn_servers(log_nodes, StorageProfile::instant());
        let pages = PageStoreCluster::new(fabric.clone(), REPLICAS, PageStoreOptions::default());
        pages.spawn_servers(page_nodes, StorageProfile::instant());
        Harness {
            fabric,
            logs,
            pages,
            anchor: Arc::new(LsnWatermark::new(Lsn::ZERO)),
            me,
            cfg,
            lsns: LsnAllocator::new(Lsn::ZERO),
        }
    }

    fn sal(&self) -> Arc<Sal> {
        Sal::create(
            self.cfg.clone(),
            DbId(1),
            self.me,
            self.logs.clone(),
            self.pages.clone(),
            Arc::clone(&self.anchor),
        )
        .unwrap()
    }

    /// Formats `page` (if asked) and inserts (k, v) at `idx`.
    fn write_kv(&self, sal: &Sal, page: u64, idx: u16, k: &str, v: &str, format: bool) -> Lsn {
        let mut records = Vec::new();
        if format {
            records.push(LogRecord::new(
                self.lsns.alloc(),
                PageId(page),
                RecordBody::Format {
                    ty: PageType::Leaf,
                    level: 0,
                },
            ));
        }
        records.push(LogRecord::new(
            self.lsns.alloc(),
            PageId(page),
            RecordBody::Insert {
                idx,
                key: Bytes::copy_from_slice(k.as_bytes()),
                val: Bytes::copy_from_slice(v.as_bytes()),
            },
        ));
        let group = LogRecordGroup::new(DbId(1), records);
        let end = group.end_lsn();
        sal.log_group(group).unwrap();
        sal.flush().unwrap();
        end
    }

    /// The deadline of a quiesce that starts now: on a manual clock only
    /// modelled call costs move it, so this bounds a drill that charges them.
    fn deadline(&self) -> u64 {
        self.fabric.clock.now_us() + 10_000_000
    }

    /// Three pages across three slices (pages_per_slice = 64 in the test
    /// config), two rows each. Returns the end LSN.
    fn seed_three_slices(&self, sal: &Sal) -> Lsn {
        self.write_kv(sal, 1, 0, "a", "1", true);
        self.write_kv(sal, 1, 1, "b", "2", false);
        self.write_kv(sal, 70, 0, "c", "3", true);
        self.write_kv(sal, 70, 1, "d", "4", false);
        self.write_kv(sal, 140, 0, "e", "5", true);
        let end = self.write_kv(sal, 140, 1, "f", "6", false);
        sal.quiesce(self.deadline()).unwrap();
        end
    }
}

/// Fetch-and-filter reference: every page of every slice through
/// `ReadPage`, folded through the same shared evaluator.
fn scan_via_read_page(h: &Harness, sal: &Sal, req: &ScanRequest, as_of: Lsn) -> ScanAccumulator {
    let mut acc = ScanAccumulator::default();
    for key in h.pages.slices() {
        if key.db != DbId(1) {
            continue;
        }
        // Cap the snapshot at the slice's own high-water mark, exactly as
        // the planner does — a quiet slice's replicas never reach the
        // global LSN.
        let mut pages = std::collections::BTreeSet::new();
        let mut high = Lsn::ZERO;
        for &node in &h.pages.replicas_of(key) {
            if let Ok(ids) = h.pages.page_ids_of(node, h.me, key) {
                pages.extend(ids);
            }
            if let Ok(p) = h.pages.persistent_lsn_of(node, h.me, key) {
                high = high.max(p);
            }
        }
        let eff = as_of.min(high);
        for page in pages {
            let buf = sal.read_page(page, Some(eff)).unwrap();
            evaluate_leaf_page(&buf, req, &mut acc).unwrap();
        }
    }
    acc.rows.sort_by(|a, b| a.0.cmp(&b.0));
    acc
}

#[test]
fn pushdown_scans_all_slices_sorted() {
    let h = Harness::new(3, 6);
    let sal = h.sal();
    let end = h.seed_three_slices(&sal);
    let scan = sal.scan_pushdown(&ScanRequest::full(), end).unwrap();
    assert_eq!(
        scan.rows
            .iter()
            .map(|(k, _)| k.as_slice())
            .collect::<Vec<_>>(),
        vec![b"a".as_slice(), b"b", b"c", b"d", b"e", b"f"]
    );
    assert_eq!(scan.pushdown_slices, 3);
    assert_eq!(scan.fallback_slices, 0);
    assert!(sal.ndp_stats.snapshot().bytes_returned > 0);
}

#[test]
fn pushdown_agrees_with_fetch_and_filter() {
    let h = Harness::new(3, 6);
    let sal = h.sal();
    let end = h.seed_three_slices(&sal);
    let req =
        ScanRequest::full().with_predicate(Field::Value, CmpOp::Ge, Operand::Bytes(b"3".to_vec()));
    let scan = sal.scan_pushdown(&req, end).unwrap();
    let reference = scan_via_read_page(&h, &sal, &req, end);
    assert_eq!(scan.rows, reference.rows);
    assert_eq!(scan.rows.len(), 4);
}

#[test]
fn pushdown_aggregate_counts_across_slices() {
    let h = Harness::new(3, 6);
    let sal = h.sal();
    let end = h.seed_three_slices(&sal);
    let req = ScanRequest::full().with_aggregate(Aggregate::Count);
    let scan = sal.scan_pushdown(&req, end).unwrap();
    assert!(scan.rows.is_empty());
    assert_eq!(req.aggregate.and_then(|a| scan.agg.result(a)), Some(6));
}

#[test]
fn pushdown_respects_snapshot_lsn() {
    let h = Harness::new(3, 6);
    let sal = h.sal();
    h.write_kv(&sal, 1, 0, "a", "1", true);
    let mid = h.write_kv(&sal, 70, 0, "c", "3", true);
    h.write_kv(&sal, 70, 1, "d", "4", false);
    sal.quiesce(h.deadline()).unwrap();
    let scan = sal.scan_pushdown(&ScanRequest::full(), mid).unwrap();
    assert_eq!(
        scan.rows
            .iter()
            .map(|(k, _)| k.as_slice())
            .collect::<Vec<_>>(),
        vec![b"a".as_slice(), b"c"]
    );
}

#[test]
fn quiet_slice_snapshot_is_capped_not_refused() {
    let h = Harness::new(3, 6);
    let sal = h.sal();
    // Slice 0 goes quiet early; slice 1 keeps advancing the global LSN far
    // past slice 0's own last record. A global-snapshot scan must still
    // cover slice 0 (its replicas can never reach the global LSN).
    h.write_kv(&sal, 1, 0, "a", "1", true);
    for i in 0..10u16 {
        h.write_kv(&sal, 70, i, &format!("k{i:02}"), "v", i == 0);
    }
    sal.quiesce(h.deadline()).unwrap();
    let end = sal.durable_lsn();
    let scan = sal.scan_pushdown(&ScanRequest::full(), end).unwrap();
    assert_eq!(scan.rows.len(), 11);
    assert_eq!(scan.rows[0].0, b"a");
    assert_eq!(scan.pushdown_slices, 2);
    assert_eq!(scan.fallback_slices, 0);
}

#[test]
fn scan_survives_one_replica_down() {
    let h = Harness::new(3, 6);
    let sal = h.sal();
    let end = h.seed_three_slices(&sal);
    // Kill one node: every slice replicated there must route around it.
    let key = h.pages.slices().into_iter().min().unwrap();
    let down = h.pages.replicas_of(key)[0];
    h.fabric.set_down(down);
    let scan = sal.scan_pushdown(&ScanRequest::full(), end).unwrap();
    assert_eq!(scan.rows.len(), 6);
    assert_eq!(scan.fallback_slices, 0);
    h.fabric.set_up(down);
}

#[test]
fn scan_fails_when_every_replica_is_down() {
    let h = Harness::new(3, 6);
    let sal = h.sal();
    let end = h.seed_three_slices(&sal);
    let nodes = h.pages.server_nodes();
    for &n in &nodes {
        h.fabric.set_down(n);
    }
    assert!(sal.scan_pushdown(&ScanRequest::full(), end).is_err());
    for &n in &nodes {
        h.fabric.set_up(n);
    }
}

#[test]
fn tiny_budgets_force_continuations_and_still_agree() {
    let h = Harness::new(3, 6);
    let sal = h.sal();
    // test() config budgets are tiny (64 rows / 8 KiB); write enough rows
    // into one slice that a single ScanSlice call cannot finish it.
    let mut expect = Vec::new();
    for i in 0..30u16 {
        let page = 1 + u64::from(i) / 10;
        h.write_kv(&sal, page, i % 10, &format!("k{i:03}"), "v", i % 10 == 0);
        expect.push(format!("k{i:03}").into_bytes());
    }
    for i in 0..70u16 {
        let page = 70 + u64::from(i) / 10;
        h.write_kv(&sal, page, i % 10, &format!("m{i:03}"), "v", i % 10 == 0);
        expect.push(format!("m{i:03}").into_bytes());
    }
    // A burst that fills a pipe's queue is held, not shed: every replica
    // holds every row.
    sal.quiesce(h.deadline()).unwrap();
    let end = sal.durable_lsn();
    let scan = sal.scan_pushdown(&ScanRequest::full(), end).unwrap();
    assert_eq!(
        scan.rows.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        expect
    );
    // With a 64-row budget per call and 70 slots in slice 1, that slice
    // stops at its budget once: one envelope per primary node in round one,
    // then one continuation — the first budget is not scanned again.
    let snap = sal.ndp_stats.snapshot();
    assert_eq!(snap.slice_calls, 2 + 1);
    assert_eq!(snap.rows_scanned, 100, "a row was examined twice");
}
