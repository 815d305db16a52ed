//! Integration tests for the SAL write/read paths, CV-LSN semantics, log
//! truncation, and the recovery scenarios of paper Fig. 4.

// Test harness: panicking on setup failure is the desired behavior.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use bytes::Bytes;
use taurus_common::clock::{Clock, ClockRef, ManualClock};
use taurus_common::config::{NetworkProfile, StorageProfile};
use taurus_common::lsn::{LsnAllocator, LsnWatermark};
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, LogRecordGroup, RecordBody};
use taurus_common::{DbId, Lsn, NodeId, PageId, SliceKey, TaurusConfig};
use taurus_core::{RecoveryService, Sal};
use taurus_fabric::{Fabric, NodeKind};
use taurus_logstore::LogStoreCluster;
use taurus_pagestore::cluster::PageStoreOptions;
use taurus_pagestore::PageStoreCluster;

struct Harness {
    clock: Arc<ManualClock>,
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
        Self::on(clock.clone(), clock, log_nodes, page_nodes)
    }

    /// A harness whose fabric waits on `fabric_clock`, which keeps its time
    /// in `clock`.
    fn on(
        fabric_clock: ClockRef,
        clock: Arc<ManualClock>,
        log_nodes: usize,
        page_nodes: usize,
    ) -> Harness {
        let fabric = Fabric::new(fabric_clock, NetworkProfile::instant(), 1234);
        let me = fabric.add_node(NodeKind::Compute);
        let cfg = TaurusConfig {
            log_buffer_bytes: 1, // flush on every group: deterministic tests
            slice_buffer_bytes: 1,
            ..TaurusConfig::test()
        };
        let logs = LogStoreCluster::new(fabric.clone(), cfg.log_replicas, cfg.logstore_cache_bytes);
        logs.spawn_servers(log_nodes, StorageProfile::instant());
        let pages = PageStoreCluster::new(
            fabric.clone(),
            cfg.page_replicas,
            PageStoreOptions::default(),
        );
        pages.spawn_servers(page_nodes, StorageProfile::instant());
        Harness {
            clock,
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

    /// Writes one group that formats `page` then inserts (k, v) into it.
    fn write_kv(&self, sal: &Sal, page: u64, k: &str, v: &str, format: bool) -> Lsn {
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
                idx: 0,
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

    /// Lets background sender threads drain (real threads, manual clock).
    fn settle(&self, sal: &Sal) {
        sal.flush_all_slices();
        for _ in 0..200 {
            std::thread::sleep(std::time::Duration::from_micros(200));
            if sal.cv_lsn() == sal.durable_lsn() {
                break;
            }
        }
    }
}

#[test]
fn write_path_reaches_durability_and_cv_advances() {
    let h = Harness::new(5, 5);
    let sal = h.sal();
    let end = h.write_kv(&sal, 1, "alpha", "1", true);
    assert_eq!(sal.durable_lsn(), end);
    h.settle(&sal);
    assert_eq!(sal.cv_lsn(), end, "CV-LSN must reach the buffer end");
    // All three replicas eventually hold the records (they were all sent;
    // `settle` waited for the first ack only).
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    for node in h.pages.replicas_of(key) {
        let persistent = || h.pages.persistent_lsn_of(node, h.me, key).unwrap();
        for _ in 0..2000 {
            if persistent() == end {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        assert_eq!(persistent(), end, "replica {node} persistent");
    }
}

#[test]
fn reads_come_back_versioned_from_page_stores() {
    let h = Harness::new(4, 4);
    let sal = h.sal();
    let v1 = h.write_kv(&sal, 1, "k", "v1", true);
    let v2 = h.write_kv(&sal, 1, "k2", "v2", false);
    h.settle(&sal);
    // Latest version has both records.
    let page = sal.read_page(PageId(1), None).unwrap();
    assert_eq!(page.nslots(), 2);
    assert_eq!(page.lsn(), v2);
    // Historic version: only the first insert.
    let page = sal.read_page(PageId(1), Some(v1)).unwrap();
    assert_eq!(page.nslots(), 1);
}

#[test]
fn writes_survive_a_downed_log_store_via_plog_switch() {
    let h = Harness::new(6, 4);
    let sal = h.sal();
    h.write_kv(&sal, 1, "a", "1", true);
    // Kill one Log Store node: the active PLog seals, a new one is created
    // elsewhere, and writes keep succeeding — ~100% write availability.
    let victim = h.fabric.healthy_nodes(NodeKind::LogStore)[0];
    h.fabric.set_down(victim);
    let end = h.write_kv(&sal, 1, "b", "2", false);
    assert_eq!(sal.durable_lsn(), end);
    h.settle(&sal);
    let page = sal.read_page(PageId(1), None).unwrap();
    assert_eq!(page.nslots(), 2);
}

#[test]
fn writes_succeed_with_two_of_three_page_store_replicas_down() {
    let h = Harness::new(4, 5);
    let sal = h.sal();
    h.write_kv(&sal, 1, "a", "1", true);
    h.settle(&sal);
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    // Two of three Page Store replicas go down: the wait-for-one write
    // still succeeds (durability is on the Log Stores).
    h.fabric.set_down(replicas[0]);
    h.fabric.set_down(replicas[1]);
    let end = h.write_kv(&sal, 1, "b", "2", false);
    h.settle(&sal);
    assert_eq!(sal.cv_lsn(), end, "one surviving replica acks the write");
    // And the surviving replica serves the read.
    let page = sal.read_page(PageId(1), None).unwrap();
    assert_eq!(page.nslots(), 2);
}

#[test]
fn read_falls_through_behind_replicas_to_a_caught_up_one() {
    let h = Harness::new(4, 5);
    let sal = h.sal();
    h.write_kv(&sal, 1, "a", "1", true);
    h.settle(&sal);
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    // Take two replicas down; write; bring them back (they are now BEHIND).
    h.fabric.set_down(replicas[0]);
    h.fabric.set_down(replicas[1]);
    let end = h.write_kv(&sal, 1, "b", "2", false);
    h.settle(&sal);
    h.fabric.set_up(replicas[0]);
    h.fabric.set_up(replicas[1]);
    // The SAL must iterate replicas until it finds the caught-up one.
    let page = sal.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.nslots(), 2);
}

#[test]
fn all_replicas_missing_data_triggers_logstore_repair_on_read() {
    let h = Harness::new(4, 6);
    let sal = h.sal();
    h.write_kv(&sal, 1, "a", "1", true);
    h.settle(&sal);
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    // ALL replicas go down; a write still commits to the Log Stores, with no
    // Page Store holding the tail.
    for &r in &replicas {
        h.fabric.set_down(r);
    }
    let end = h.write_kv(&sal, 1, "b", "2", false);
    sal.flush_all_slices();
    std::thread::sleep(std::time::Duration::from_millis(5));
    for &r in &replicas {
        h.fabric.set_up(r);
    }
    // The versioned read finds every replica behind, repairs from the Log
    // Stores, and succeeds (§4.2).
    let page = sal.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.nslots(), 2);
}

#[test]
fn truncation_waits_for_all_replicas_then_deletes_plogs() {
    let h = Harness::new(5, 5);
    let mut cfg = TaurusConfig {
        plog_size_limit: 300,
        ..h.cfg.clone()
    };
    cfg.log_buffer_bytes = 1;
    let sal = Sal::create(
        cfg,
        DbId(1),
        h.me,
        h.logs.clone(),
        h.pages.clone(),
        Arc::clone(&h.anchor),
    )
    .unwrap();
    h.write_kv(&sal, 1, "k0", "v0", true);
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let lagging = h.pages.replicas_of(key)[2];
    // One replica misses everything after the first write.
    h.fabric.set_down(lagging);
    for i in 1..8 {
        h.write_kv(&sal, 1, &format!("k{i}"), "v", false);
    }
    h.settle(&sal);
    let plogs_before = h.logs.plog_count();
    // With a lagging replica the database persistent LSN is pinned low:
    // truncation must delete nothing beyond it.
    let _ = sal.poll_persistent_lsns();
    let deleted = sal.truncate_log().unwrap();
    assert_eq!(deleted, 0, "lagging replica pins the log");
    // The replica recovers and catches up via gossip; truncation proceeds.
    h.fabric.set_up(lagging);
    sal.trigger_gossip(key);
    let deleted = sal.truncate_log().unwrap();
    assert!(deleted > 0, "caught-up cluster lets the log truncate");
    assert!(h.logs.plog_count() < plogs_before);
}

#[test]
fn fig4a_gossip_recovers_short_term_failure() {
    let h = Harness::new(4, 5);
    let sal = h.sal();
    h.write_kv(&sal, 1, "r1", "v", true);
    h.settle(&sal);
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replica3 = h.pages.replicas_of(key)[2];
    // Replica 3 offline for a short time; record 2 lands on the others.
    h.fabric.set_down(replica3);
    h.write_kv(&sal, 1, "r2", "v", false);
    h.settle(&sal);
    h.fabric.set_up(replica3);
    let behind = h.pages.persistent_lsn_of(replica3, h.me, key).unwrap();
    // Gossip copies the missing fragment (Fig. 4(a) step 4).
    assert!(sal.trigger_gossip(key) >= 1);
    let caught_up = h.pages.persistent_lsn_of(replica3, h.me, key).unwrap();
    assert!(caught_up > behind);
    assert_eq!(caught_up, sal.durable_lsn());
}

#[test]
fn fig4b_persistent_lsn_regression_is_detected_and_repaired() {
    let h = Harness::new(4, 8);
    let sal = h.sal();
    h.write_kv(&sal, 1, "r1", "v", true);
    h.settle(&sal);
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    let (r1, r2, r3) = (replicas[0], replicas[1], replicas[2]);
    // Step 2: replicas 2 and 3 offline briefly; record 2 is acked by r1
    // alone and dismissed by the SAL.
    h.fabric.set_down(r2);
    h.fabric.set_down(r3);
    let end = h.write_kv(&sal, 1, "r2", "v", false);
    sal.flush_all_slices();
    std::thread::sleep(std::time::Duration::from_millis(5));
    let _ = sal.poll_persistent_lsns();
    h.fabric.set_up(r2);
    h.fabric.set_up(r3);
    // Step 3: r1 suffers a long-term failure before gossip copies record 2.
    h.fabric.set_down(r1);
    h.fabric.decommission(r1);
    // Step 4: r1 is rebuilt from r2 (which misses record 2): the replacement
    // reports a persistent LSN LOWER than what r1 had reported.
    let new_node = h.pages.rebuild_replica(key, r1, h.me).unwrap();
    sal.refresh_placement();
    let regressed = sal.poll_persistent_lsns();
    assert!(
        regressed.contains(&key),
        "SAL must detect the persistent-LSN decrease"
    );
    // The SAL re-reads the log from the Log Stores and resends: no Page
    // Store had record 2, but the Log Stores still do.
    assert!(sal.repair_slice_from_logstores(key).unwrap() >= 1);
    for node in [new_node, r2, r3] {
        assert_eq!(
            h.pages.persistent_lsn_of(node, h.me, key).unwrap(),
            end,
            "replica {node} repaired"
        );
    }
    // And the data reads back complete.
    let page = sal.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.nslots(), 2);
}

#[test]
fn fig4c_hole_on_every_replica_is_parked_and_resent() {
    let h = Harness::new(4, 6);
    let sal = h.sal();
    h.write_kv(&sal, 1, "r1", "v", true); // record 1
    h.settle(&sal);
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    // Record 2 is lost by everyone: all replicas down during the send. Each
    // sender worker burns its retry budget, then parks the slice and
    // demotes its replica to suspect.
    for &r in &replicas {
        h.fabric.set_down(r);
    }
    h.write_kv(&sal, 1, "r2", "v", false); // record 2: nowhere
    sal.flush_all_slices();
    for _ in 0..500 {
        if sal.parked_slices().contains(&key) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    assert!(
        sal.parked_slices().contains(&key),
        "slice must be parked after the retry budget"
    );
    assert!(
        sal.stats.write_retries.get() >= 1,
        "retries must be counted"
    );
    assert!(sal.stats.fragments_parked.get() >= 1);
    // Every replica missed the fragment, so every replica is suspect and
    // the hole exists nowhere but the Log Stores — gossip cannot help.
    std::thread::sleep(std::time::Duration::from_millis(2));
    assert_eq!(h.pages.gossip(key), 0);
    for &r in &replicas {
        h.fabric.set_up(r);
    }
    // Record 3 arrives everywhere. The first successful ack resurrects a
    // suspect, and the resurrection drains the parked slice by resending
    // record 2 from the Log Stores (Fig. 4(c) step 7) — proactively,
    // without waiting for the stall detector.
    let end = h.write_kv(&sal, 1, "r3", "v", false);
    h.settle(&sal);
    for &r in &replicas {
        let mut ok = false;
        for _ in 0..500 {
            if h.pages.persistent_lsn_of(r, h.me, key).unwrap() == end {
                ok = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        assert!(ok, "replica {r} must be repaired to {end}");
    }
    // The redo counts its resends once every ship has returned, and a
    // replica's persistent LSN moves inside the ship: bound-wait for it.
    for _ in 0..500 {
        if sal.stats.resends.get() >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    assert!(sal.stats.resends.get() >= 1, "repair must resend from log");
    assert!(sal.stats.suspect_resurrections.get() >= 1);
    // The unpark happens on the sender side when the resend's ack is
    // processed — slightly after the replicas' persistent LSNs advance —
    // so bound-wait for it like the persistence checks above.
    for _ in 0..500 {
        if sal.parked_slices().is_empty() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    assert!(
        sal.parked_slices().is_empty(),
        "slice must unpark once all replicas caught up"
    );
    let page = sal.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.nslots(), 3);
}

#[test]
fn sal_restart_recovery_redoes_missing_records() {
    let h = Harness::new(5, 5);
    let sal = h.sal();
    h.write_kv(&sal, 1, "a", "1", true);
    h.write_kv(&sal, 2, "b", "2", true);
    h.settle(&sal);
    let anchor_before = {
        let _ = sal.poll_persistent_lsns();
        sal.truncate_log().unwrap();
        sal.recovery_anchor()
    };
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    // A write that reaches the Log Stores but NO Page Store (crash window).
    for &r in &replicas {
        h.fabric.set_down(r);
    }
    let records = vec![LogRecord::new(
        h.lsns.alloc(),
        PageId(1),
        RecordBody::Insert {
            idx: 0,
            key: Bytes::from_static(b"aa"),
            val: Bytes::from_static(b"11"),
        },
    )];
    let group = LogRecordGroup::new(DbId(1), records);
    let end = group.end_lsn();
    sal.log_group(group).unwrap();
    sal.flush().unwrap();
    sal.flush_all_slices();
    std::thread::sleep(std::time::Duration::from_millis(5));
    // CRASH: drop the SAL entirely; bring the storage back.
    drop(sal);
    for &r in &replicas {
        h.fabric.set_up(r);
    }
    // Recover: redo must resend the lost record from the Log Stores.
    let (sal2, max_lsn) = Sal::recover(
        h.cfg.clone(),
        DbId(1),
        h.me,
        h.logs.clone(),
        h.pages.clone(),
        Arc::clone(&h.anchor),
    )
    .unwrap();
    assert!(max_lsn >= end);
    assert!(sal2.recovery_anchor() >= anchor_before);
    for &r in &replicas {
        assert_eq!(h.pages.persistent_lsn_of(r, h.me, key).unwrap(), end);
    }
    // The database serves the recovered data.
    let page = sal2.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.key(0).unwrap(), b"aa");
    // And accepts new writes continuing the LSN sequence.
    let lsns2 = LsnAllocator::new(max_lsn);
    let rec = LogRecord::new(
        lsns2.alloc(),
        PageId(2),
        RecordBody::Insert {
            idx: 0,
            key: Bytes::from_static(b"post"),
            val: Bytes::from_static(b"crash"),
        },
    );
    sal2.log_group(LogRecordGroup::new(DbId(1), vec![rec]))
        .unwrap();
    sal2.flush().unwrap();
    h.settle(&sal2);
    let key2 = SliceKey::new(DbId(1), PageId(2).slice(h.cfg.pages_per_slice));
    let _ = key2;
    let page = sal2.read_page(PageId(2), None).unwrap();
    assert_eq!(page.nslots(), 2);
}

#[test]
fn recovery_service_handles_long_term_page_store_failure_end_to_end() {
    let h = Harness::new(5, 8);
    let sal = h.sal();
    let mut svc = RecoveryService::new(Arc::clone(&sal));
    h.write_kv(&sal, 1, "a", "1", true);
    h.settle(&sal);
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let victim = h.pages.replicas_of(key)[0];
    h.fabric.set_down(victim);
    // First round: short-term classification, nothing drastic.
    let report = svc.run_once();
    assert_eq!(report.short_term_failures, 1);
    assert_eq!(report.slices_rebuilt, 0);
    // Time passes beyond the short-term window: long-term handling kicks in.
    h.clock.advance(h.cfg.short_term_failure_us + 1);
    let report = svc.run_once();
    assert_eq!(report.long_term_failures, 1);
    assert_eq!(report.slices_rebuilt, 1);
    assert!(!h.pages.replicas_of(key).contains(&victim));
    // Writes and reads keep flowing on the repaired placement.
    let end = h.write_kv(&sal, 1, "b", "2", false);
    h.settle(&sal);
    let page = sal.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.nslots(), 2);
}

/// Regression (acknowledged-commit loss): durable records still sitting in
/// a slice *buffer* are on no Page Store replica, so they must hold the
/// database persistent LSN below them. Before the fix `truncate_log` moved
/// the recovery anchor to the durable LSN — past those records — and a
/// master crash right after a truncation round lost committed rows.
#[test]
fn truncation_never_passes_records_still_in_slice_buffers() {
    let h = Harness::new(5, 5);
    let cfg = TaurusConfig {
        log_buffer_bytes: 1, // every group is flushed to the Log Stores
        // Nothing forces the slice buffers out: committed records stay in
        // SAL memory, exactly the state a crash destroys.
        slice_buffer_bytes: 1 << 20,
        slice_flush_timeout_us: u64::MAX,
        ..TaurusConfig::test()
    };
    let sal = Sal::create(
        cfg.clone(),
        DbId(1),
        h.me,
        h.logs.clone(),
        h.pages.clone(),
        Arc::clone(&h.anchor),
    )
    .unwrap();
    // Committed rows on pages of three different slices.
    let pps = cfg.pages_per_slice;
    let pages = [1, 2, pps + 1, 2 * pps + 1];
    let mut end = Lsn::ZERO;
    for (i, page) in pages.iter().enumerate() {
        end = h.write_kv(&sal, *page, &format!("k{i}"), "v", true);
    }
    assert_eq!(sal.durable_lsn(), end, "every write was acknowledged");
    sal.tick();
    assert_eq!(sal.cv_lsn(), Lsn::ZERO, "no slice buffer may have shipped");

    // A truncation round, then the crash: the SAL dies with its buffers.
    sal.truncate_log().unwrap();
    assert_eq!(
        sal.recovery_anchor(),
        Lsn::ZERO,
        "the anchor must stay below the first buffered record"
    );
    drop(sal);

    let (sal2, max_lsn) = Sal::recover(
        cfg.clone(),
        DbId(1),
        h.me,
        h.logs.clone(),
        h.pages.clone(),
        Arc::clone(&h.anchor),
    )
    .unwrap();
    assert_eq!(max_lsn, end, "redo must find every acknowledged record");
    for (i, page) in pages.iter().enumerate() {
        let buf = sal2.read_page(PageId(*page), Some(end)).unwrap();
        assert_eq!(buf.nslots(), 1, "page {page} lost its committed row");
        assert_eq!(buf.key(0).unwrap(), format!("k{i}").as_bytes());
    }
}

#[test]
fn recovery_service_truncates_log_when_everyone_caught_up() {
    let h = Harness::new(5, 5);
    let cfg = TaurusConfig {
        plog_size_limit: 300,
        log_buffer_bytes: 1,
        slice_buffer_bytes: 1,
        ..TaurusConfig::test()
    };
    let sal = Sal::create(
        cfg,
        DbId(1),
        h.me,
        h.logs.clone(),
        h.pages.clone(),
        Arc::clone(&h.anchor),
    )
    .unwrap();
    let mut svc = RecoveryService::new(Arc::clone(&sal));
    for i in 0..10 {
        h.write_kv(&sal, 1, &format!("k{i}"), "v", i == 0);
    }
    h.settle(&sal);
    // `settle` waits for one ack per fragment; truncation needs all three.
    for _ in 0..2000 {
        if sal.database_persistent_lsn() == sal.durable_lsn() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let before = h.logs.plog_count();
    let report = svc.run_once();
    assert!(report.plogs_truncated > 0, "report: {report:?}");
    assert!(h.logs.plog_count() < before);
}

#[test]
fn future_snapshot_is_capped_to_the_slice_head() {
    // A snapshot LSN above the slice's own last record is capped to the
    // slice head rather than refused: the slice has no records in between,
    // so the head version *is* the version at the requested LSN. (Global
    // snapshot LSNs routinely exceed a quiet slice's local maximum.)
    let h = Harness::new(4, 4);
    let sal = h.sal();
    let end = h.write_kv(&sal, 1, "a", "1", true);
    h.settle(&sal);
    let head = sal.read_page(PageId(1), None).unwrap();
    let capped = sal.read_page(PageId(1), Some(Lsn(end.0 + 100))).unwrap();
    assert_eq!(capped.lsn(), head.lsn());
    assert_eq!(capped.nslots(), head.nslots());
}

/// Runs the same crash on a database with or without a committed split and
/// returns what recovery left on the Page Stores: `(slice id, persistent
/// LSNs of its replicas in placement order)` for every slice, retired
/// parents included.
///
/// Phase 1 reaches every replica (and a truncation round moves the
/// anchor); phase 2 reaches the Log Stores only — every Page Store is down
/// — so all of it is redo work for `Sal::recover`.
fn recover_after_crash(split: bool) -> Vec<(u64, Vec<u64>)> {
    let h = Harness::new(5, 5);
    let sal = h.sal();
    let pps = h.cfg.pages_per_slice;
    let pages = [1, 40, pps + 1, 2 * pps + 1];
    for (i, page) in pages.iter().enumerate() {
        h.write_kv(&sal, *page, &format!("a{i}"), "v", true);
    }
    if split {
        let parent = SliceKey::new(DbId(1), PageId(1).slice(pps));
        taurus_core::split_slice(&sal, parent, 32).unwrap();
        for (i, page) in pages.iter().enumerate() {
            h.write_kv(&sal, *page, &format!("b{i}"), "v", false);
        }
    }
    h.settle(&sal);
    // `settle` waits for one ack per fragment; wait for all three copies.
    let quiesced = || {
        h.pages.all_slices().into_iter().all(|key| {
            let at = |n| h.pages.persistent_lsn_of(n, h.me, key).unwrap();
            let lsns: Vec<Lsn> = h.pages.replicas_of(key).into_iter().map(at).collect();
            lsns.windows(2).all(|w| w[0] == w[1])
        })
    };
    for _ in 0..2000 {
        if quiesced() && sal.cv_lsn() == sal.durable_lsn() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    assert!(quiesced() && sal.cv_lsn() == sal.durable_lsn());
    let _ = sal.poll_persistent_lsns();
    sal.truncate_log().unwrap();
    assert!(sal.recovery_anchor() > Lsn::ZERO);

    for node in h.pages.server_nodes() {
        h.fabric.set_down(node);
    }
    let mut end = Lsn::ZERO;
    for (i, page) in pages.iter().enumerate() {
        end = h.write_kv(&sal, *page, &format!("c{i}"), "v", false);
    }
    drop(sal);
    for node in h.pages.server_nodes() {
        h.fabric.set_up(node);
    }

    let (sal2, max_lsn) = Sal::recover(
        h.cfg.clone(),
        DbId(1),
        h.me,
        h.logs.clone(),
        h.pages.clone(),
        Arc::clone(&h.anchor),
    )
    .unwrap();
    assert_eq!(max_lsn, end);
    let rows = if split { 3 } else { 2 };
    for page in pages {
        let buf = sal2.read_page(PageId(page), Some(end)).unwrap();
        assert_eq!(buf.nslots(), rows, "page {page} after recovery");
    }
    h.pages
        .all_slices()
        .into_iter()
        .map(|key| {
            let at = |n| h.pages.persistent_lsn_of(n, h.me, key).unwrap().0;
            let lsns = h.pages.replicas_of(key).into_iter().map(at).collect();
            (key.slice.0, lsns)
        })
        .collect()
}

/// `Sal::recover` partitions the log window by `IngestFilter` for every
/// database. These are the per-replica persistent LSNs the two partition
/// arms it replaced — slice-id arithmetic for static placements, filters
/// only once a split had committed — left behind for the same two crashes
/// (recorded at the commit before the arms were folded).
#[test]
fn recover_leaves_the_same_persistent_lsns_with_and_without_a_split() {
    let all = |lsn: u64| vec![lsn; 3];
    assert_eq!(
        recover_after_crash(false),
        vec![(0, all(10)), (1, all(11)), (2, all(12))]
    );
    // The retired parent (slice 0) stops at its fence; the split children
    // (ids from `DYNAMIC_SLICE_BASE`) carry the pages' later rows.
    let child = taurus_pagestore::placement::DYNAMIC_SLICE_BASE;
    assert_eq!(
        recover_after_crash(true),
        vec![
            (0, all(4)),
            (1, all(15)),
            (2, all(16)),
            (child, all(13)),
            (child + 1, all(14))
        ]
    );
}

/// A manual clock that runs a hook in the middle of the `n`-th wait the
/// arming thread makes. A single RPC waits twice — its request's arrival,
/// when the handler has not run yet, then its reply, when it has — and on
/// the instant profile every deadline has already passed, so the hook
/// counts `sleep_until` calls whether or not they sleep.
#[derive(Default)]
struct HookClock {
    time: Arc<ManualClock>,
    armed: parking_lot::Mutex<Option<HookArm>>,
}

struct HookArm {
    thread: std::thread::ThreadId,
    waits_left: usize,
    hook: Box<dyn FnOnce() + Send>,
}

impl std::fmt::Debug for HookClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HookClock({})", self.time.now_us())
    }
}

impl HookClock {
    /// Runs `hook` on the calling thread in the middle of its `n`-th wait.
    fn arm(&self, n: usize, hook: impl FnOnce() + Send + 'static) {
        *self.armed.lock() = Some(HookArm {
            thread: std::thread::current().id(),
            waits_left: n,
            hook: Box::new(hook),
        });
    }

    fn interpose(&self) {
        let due = {
            let mut armed = self.armed.lock();
            match armed.as_mut() {
                Some(a) if a.thread == std::thread::current().id() => {
                    a.waits_left -= 1;
                    if a.waits_left == 0 {
                        armed.take()
                    } else {
                        None
                    }
                }
                _ => None,
            }
        };
        if let Some(arm) = due {
            (arm.hook)();
        }
    }
}

impl Clock for HookClock {
    fn now_us(&self) -> u64 {
        self.time.now_us()
    }

    fn sleep_us(&self, us: u64) {
        self.interpose();
        self.time.sleep_us(us);
    }

    fn sleep_until(&self, deadline_us: u64) {
        self.interpose();
        self.time.sleep_until(deadline_us);
    }
}

/// Logs `group`, then waits until every replica has acked it and the SAL
/// has taken every ack (the send pipes are empty only after that).
fn write_and_quiesce(sal: &Sal, group: LogRecordGroup) {
    sal.log_group(group).unwrap();
    sal.flush().unwrap();
    sal.flush_all_slices();
    for _ in 0..5_000 {
        let idle = sal.pipeline_gauges().iter().all(|&(_, q, f)| q + f == 0);
        if idle && sal.cv_lsn() == sal.durable_lsn() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    panic!("the write never reached every replica");
}

/// Paper Fig. 4(b) fires when a replica's persistent LSN *decreases*. A
/// `GetPersistentLSN` answer read before an ack that the SAL took while the
/// answer was on its way back is older than that ack, not a decrease: a
/// recovery round must neither report it nor pay the redo it would start
/// (a log read from the stale LSN, here made certain by a second write
/// landing inside that redo's own probe).
#[test]
fn a_poll_answer_an_ack_overtook_is_no_regression() {
    let clock = Arc::new(HookClock::default());
    let h = Harness::on(clock.clone(), Arc::clone(&clock.time), 4, 5);
    let sal = h.sal();
    let mut svc = RecoveryService::new(Arc::clone(&sal));
    let group = |k: &str, format: bool| {
        let mut records = Vec::new();
        if format {
            let ty = PageType::Leaf;
            let body = RecordBody::Format { ty, level: 0 };
            records.push(LogRecord::new(h.lsns.alloc(), PageId(1), body));
        }
        let key = Bytes::copy_from_slice(k.as_bytes());
        let val = Bytes::from_static(b"v");
        let body = RecordBody::Insert { idx: 0, key, val };
        records.push(LogRecord::new(h.lsns.alloc(), PageId(1), body));
        LogRecordGroup::new(DbId(1), records)
    };
    let (r1, r2, r3) = (group("r1", true), group("r2", false), group("r3", false));
    write_and_quiesce(&sal, r1);
    assert!(sal.poll_persistent_lsns().is_empty());
    let before = sal.stats.snapshot();

    // Wait 2 of the round is the reply of its poll of the first replica,
    // which read r1's LSN: r2 is written and acked everywhere before that
    // reply is taken. The next four waits poll the other two replicas; a
    // redo of the slice would probe the first replica again in waits 5-6,
    // and r3 lands between that probe's read and its reply.
    let hook = {
        let (sal, clock) = (Arc::clone(&sal), Arc::clone(&clock));
        move || {
            write_and_quiesce(&sal, r2);
            let sal = Arc::clone(&sal);
            clock.arm(6, move || write_and_quiesce(&sal, r3));
        }
    };
    clock.arm(2, hook);
    let report = svc.run_once();

    // Without a redo nothing reaches the sixth wait.
    clock.armed.lock().take();
    let after = sal.stats.snapshot();
    assert_eq!(report.regressions_repaired, 0, "{report:?}");
    assert_eq!(after.redo_log_reads, before.redo_log_reads, "{after}");
    assert_eq!(after.resends, before.resends, "{after}");
    assert_eq!(
        after.probe_replies_overtaken,
        before.probe_replies_overtaken + 1
    );
    // The dropped answer left the SAL with the ack's newer LSN.
    assert_eq!(sal.database_persistent_lsn(), sal.durable_lsn());
    assert!(sal.poll_persistent_lsns().is_empty());
}

/// A slice that sat quiet below the read horizon and is written again: its
/// new fragment reaches the replicas before the SAL takes any ack for it,
/// so a head read still asks for the acked LSN the SAL holds — and gets it,
/// because recycling never passes a slice's acked LSN (the horizon skips
/// quiet slices, so it can lie far above one).
#[test]
fn recycling_never_passes_a_slices_acked_lsn() {
    let h = Harness::new(4, 5);
    let sal = h.sal();
    let pps = h.cfg.pages_per_slice;
    let quiet = h.write_kv(&sal, 1, "q0", "v", true);
    h.write_kv(&sal, pps + 1, "busy0", "v", true);
    for i in 1..8 {
        h.write_kv(&sal, pps + 1, &format!("busy{i}"), "v", false);
    }
    h.settle(&sal);
    let key = SliceKey::new(DbId(1), PageId(1).slice(pps));
    let replicas = h.pages.replicas_of(key);
    for &node in &replicas {
        for _ in 0..2_000 {
            if h.pages.persistent_lsn_of(node, h.me, key).unwrap() == quiet {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    sal.set_recycle_lsn(sal.durable_lsn());
    assert!(sal.durable_lsn() > quiet);

    let insert = RecordBody::Insert {
        idx: 1,
        key: Bytes::from_static(b"q1"),
        val: Bytes::from_static(b"v"),
    };
    let record = LogRecord::new(h.lsns.alloc(), PageId(1), insert);
    let frag = taurus_pagestore::SliceFragment::new(key, quiet, vec![record]);
    for &node in &replicas {
        assert!(h.pages.write_logs_to(node, h.me, &frag).unwrap() > quiet);
        let (page, _) = h
            .pages
            .read_page_from(node, h.me, key, PageId(1), quiet)
            .unwrap_or_else(|e| panic!("replica {node} refused the acked LSN: {e:?}"));
        assert_eq!(page.nslots(), 1);
    }
}
