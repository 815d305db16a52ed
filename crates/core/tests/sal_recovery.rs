//! Integration tests for the SAL write/read paths, CV-LSN semantics, log
//! truncation, and the recovery scenarios of paper Fig. 4.

use std::sync::Arc;

use bytes::Bytes;
use taurus_common::clock::{Clock, ClockRef, ManualClock};
use taurus_common::config::{NetworkProfile, StorageProfile, REPLICAS};
use taurus_common::lsn::{LsnAllocator, LsnWatermark};
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, LogRecordGroup, RecordBody};
use taurus_common::{DbId, Lsn, NodeId, PageId, SliceKey, TaurusConfig, TaurusError};
use taurus_core::{RecoveryService, Sal};
use taurus_fabric::{Fabric, NodeKind};
use taurus_logstore::LogStoreCluster;
use taurus_pagestore::cluster::PageStoreOptions;
use taurus_pagestore::PageStoreCluster;

/// How long a quiesce may take, on the harness clock. The clock is manual:
/// only modelled call costs move it, so this bounds a drill that charges them.
const QUIESCE_US: u64 = 10_000_000;

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
        let logs = LogStoreCluster::new(fabric.clone(), REPLICAS, cfg.logstore_cache_bytes);
        logs.spawn_servers(log_nodes, StorageProfile::instant());
        let pages = PageStoreCluster::new(fabric.clone(), REPLICAS, PageStoreOptions::default());
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

    /// The deadline of a quiesce that starts now.
    fn deadline(&self) -> u64 {
        self.clock.now_us() + QUIESCE_US
    }
}

#[test]
fn write_path_reaches_durability_and_cv_advances() {
    let h = Harness::new(5, 5);
    let sal = h.sal();
    let end = h.write_kv(&sal, 1, "alpha", "1", true);
    assert_eq!(sal.durable_lsn(), end);
    sal.quiesce(h.deadline()).unwrap();
    assert_eq!(sal.cv_lsn(), end, "CV-LSN must reach the buffer end");
    // All three replicas hold the records: one ack makes the slice write
    // safe, and a quiesce waits for all of them.
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    for node in h.pages.replicas_of(key) {
        let persistent = h.pages.persistent_lsn_of(node, h.me, key).unwrap();
        assert_eq!(persistent, end, "replica {node} persistent");
    }
}

#[test]
fn reads_come_back_versioned_from_page_stores() {
    let h = Harness::new(4, 4);
    let sal = h.sal();
    let v1 = h.write_kv(&sal, 1, "k", "v1", true);
    let v2 = h.write_kv(&sal, 1, "k2", "v2", false);
    sal.quiesce(h.deadline()).unwrap();
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
    sal.quiesce(h.deadline()).unwrap();
    let page = sal.read_page(PageId(1), None).unwrap();
    assert_eq!(page.nslots(), 2);
}

#[test]
fn writes_succeed_with_two_of_three_page_store_replicas_down() {
    let h = Harness::new(4, 5);
    let sal = h.sal();
    h.write_kv(&sal, 1, "a", "1", true);
    sal.quiesce(h.deadline()).unwrap();
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    // Two of three Page Store replicas go down: the wait-for-one write
    // still succeeds (durability is on the Log Stores).
    h.fabric.set_down(replicas[0]);
    h.fabric.set_down(replicas[1]);
    let end = h.write_kv(&sal, 1, "b", "2", false);
    sal.quiesce(h.deadline()).unwrap();
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
    sal.quiesce(h.deadline()).unwrap();
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    // Take two replicas down; write; bring them back (they are now BEHIND).
    h.fabric.set_down(replicas[0]);
    h.fabric.set_down(replicas[1]);
    let end = h.write_kv(&sal, 1, "b", "2", false);
    sal.quiesce(h.deadline()).unwrap();
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
    sal.quiesce(h.deadline()).unwrap();
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    // ALL replicas go down; a write still commits to the Log Stores, with no
    // Page Store holding the tail.
    for &r in &replicas {
        h.fabric.set_down(r);
    }
    let end = h.write_kv(&sal, 1, "b", "2", false);
    // No replica is live: the quiesce waits out the pipes' failed sends only.
    sal.quiesce(h.deadline()).unwrap();
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
    sal.quiesce(h.deadline()).unwrap();
    let plogs_before = h.logs.plog_count();
    // With a lagging replica the database persistent LSN is pinned low:
    // truncation must delete nothing beyond it.
    let _ = sal.poll_persistent_lsns();
    let deleted = sal.truncate_log().unwrap();
    assert_eq!(deleted, 0, "lagging replica pins the log");
    // The replica recovers and catches up via gossip; truncation proceeds.
    // (The quiesce above waited out the pipe's failed send to it: none delivers
    // behind gossip's back once it is up.)
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
    sal.quiesce(h.deadline()).unwrap();
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replica3 = h.pages.replicas_of(key)[2];
    // Replica 3 offline for a short time; record 2 lands on the others.
    h.fabric.set_down(replica3);
    h.write_kv(&sal, 1, "r2", "v", false);
    sal.quiesce(h.deadline()).unwrap();
    // The quiesce waited out the pipe's failed send to replica 3: none delivers
    // record 2 after `set_up`, so only gossip can.
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
    sal.quiesce(h.deadline()).unwrap();
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    let (r1, r2, r3) = (replicas[0], replicas[1], replicas[2]);
    // Step 2: replicas 2 and 3 offline briefly; record 2 is acked by r1
    // alone and dismissed by the SAL.
    h.fabric.set_down(r2);
    h.fabric.set_down(r3);
    let end = h.write_kv(&sal, 1, "r2", "v", false);
    sal.quiesce(h.deadline()).unwrap();
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
    sal.quiesce(h.deadline()).unwrap();
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    // Record 2 is lost by everyone: all replicas down during the send. Each
    // sender worker's envelope fails once, which parks the slice and
    // demotes its replica to suspect.
    for &r in &replicas {
        h.fabric.set_down(r);
    }
    h.write_kv(&sal, 1, "r2", "v", false); // record 2: nowhere
    sal.quiesce(h.deadline()).unwrap();
    assert!(
        sal.parked_slices().contains(&key),
        "slice must be parked after the failed send"
    );
    assert!(
        sal.stats.write_retries.get() >= 1,
        "failed envelopes must be counted"
    );
    assert!(sal.stats.fragments_parked.get() >= 1);
    // Every replica missed the fragment, so every replica is suspect and
    // the hole exists nowhere but the Log Stores — gossip cannot help.
    assert_eq!(h.pages.gossip(key), 0);
    for &r in &replicas {
        h.fabric.set_up(r);
    }
    // Record 3 arrives everywhere. The first successful ack resurrects a
    // suspect, which only clears its mark: the next tick drains the parked
    // slice by resending record 2 from the Log Stores (Fig. 4(c) step 7),
    // without waiting for the stall detector.
    let end = h.write_kv(&sal, 1, "r3", "v", false);
    // Record 3 does not connect on any replica: once the pipes are idle
    // the quiesce names the hole instead of waiting for it.
    match sal.quiesce(h.deadline()) {
        Err(TaurusError::ReplicaBehind { slice, target, .. }) => {
            assert_eq!((slice, target), (key, end));
        }
        other => panic!("a hole on every replica must fail the quiesce: {other:?}"),
    }
    assert_eq!(sal.stats.resends.get(), 0, "a resurrection repairs nothing");
    assert!(sal.parked_slices().contains(&key));
    sal.tick();
    sal.quiesce(h.deadline()).unwrap();
    for &r in &replicas {
        let persistent = h.pages.persistent_lsn_of(r, h.me, key).unwrap();
        assert_eq!(persistent, end, "replica {r} must be repaired to {end}");
    }
    assert!(sal.stats.resends.get() >= 1, "repair must resend from log");
    assert!(sal.stats.suspect_resurrections.get() >= 1);
    assert!(
        sal.parked_slices().is_empty(),
        "slice must unpark once all replicas caught up"
    );
    let page = sal.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.nslots(), 3);
}

/// A quiesce returns once every live replica holds every write, and fails
/// at once — not at its deadline — when a live replica misses a record that
/// nothing in flight will bring it: here a replica back from an outage,
/// which only a repair (the next tick) catches up.
#[test]
fn quiesce_waits_for_every_live_replica_and_names_one_left_behind() {
    let h = Harness::new(4, 5);
    let sal = h.sal();
    let pps = h.cfg.pages_per_slice;
    let pages = [1, pps + 1, 2 * pps + 1];
    let key_of = |page: u64| SliceKey::new(DbId(1), PageId(page).slice(pps));
    let persistent = |node, page| h.pages.persistent_lsn_of(node, h.me, key_of(page)).unwrap();
    let firsts: Vec<Lsn> = pages
        .iter()
        .map(|&page| h.write_kv(&sal, page, "a", "v", true))
        .collect();
    sal.quiesce(h.deadline()).unwrap();
    for (&page, &end) in pages.iter().zip(&firsts) {
        for node in h.pages.replicas_of(key_of(page)) {
            assert_eq!(persistent(node, page), end, "{node} of page {page}");
        }
    }

    // One replica misses the next write: the live ones hold it, and that
    // is all a quiesce asks for.
    let key = key_of(pages[0]);
    let down = h.pages.replicas_of(key)[0];
    h.fabric.set_down(down);
    let end = h.write_kv(&sal, pages[0], "b", "v", false);
    sal.quiesce(h.deadline()).unwrap();
    for node in h.pages.replicas_of(key).into_iter().filter(|&n| n != down) {
        assert_eq!(persistent(node, pages[0]), end, "{node}");
    }
    assert_eq!(sal.parked_slices(), vec![key]);

    // Back up, it is live and behind, and nothing is in flight to it.
    h.fabric.set_up(down);
    let now = h.clock.now_us();
    match sal.quiesce(h.deadline()) {
        Err(TaurusError::ReplicaBehind {
            slice,
            node,
            at,
            target,
        }) => assert_eq!((slice, node, at, target), (key, down, firsts[0], end)),
        other => panic!("a replica left behind must fail the quiesce: {other:?}"),
    }
    assert_eq!(h.clock.now_us(), now, "a quiesce moves no manual clock");
    sal.tick();
    sal.quiesce(h.deadline()).unwrap();
    assert_eq!(persistent(down, pages[0]), end);
    assert!(sal.parked_slices().is_empty());
}

/// An ack only raises the persistent LSN the SAL records for a replica. A
/// rebuilt replica inherits the value its predecessor reported; rebuilt
/// from a donor that misses record 2, it acks record 3 with a lower one.
/// Applied, that ack would leave the next poll nothing to compare against,
/// and the Fig. 4(b) decrease — the only thing that sends the slice to a
/// repair before the stall detector — would go unseen. Nor does a quiesce
/// trust the inherited value: with no write since the rebuild and the other
/// two replicas down, it asks the newcomer, whose answer fails it.
#[test]
fn an_ack_never_lowers_a_replicas_persistent_lsn() {
    let h = Harness::new(4, 8);
    let sal = h.sal();
    let first = h.write_kv(&sal, 1, "r1", "v", true);
    sal.quiesce(h.deadline()).unwrap();
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    let (r1, r2, r3) = (replicas[0], replicas[1], replicas[2]);
    h.fabric.set_down(r2);
    h.fabric.set_down(r3);
    let second = h.write_kv(&sal, 1, "r2", "v", false);
    sal.quiesce(h.deadline()).unwrap();
    h.fabric.set_up(r2);
    h.fabric.set_up(r3);
    // r1, the one replica with record 2, is lost and rebuilt from a donor
    // without it; the SAL carries r1's value over to the newcomer.
    h.fabric.set_down(r1);
    h.fabric.decommission(r1);
    let newcomer = h.pages.rebuild_replica(key, r1, h.me).unwrap();
    sal.refresh_placement();
    assert_eq!(
        h.pages.persistent_lsn_of(newcomer, h.me, key).unwrap(),
        first
    );
    h.fabric.set_down(r2);
    h.fabric.set_down(r3);
    match sal.quiesce(h.deadline()) {
        Err(TaurusError::ReplicaBehind {
            slice,
            node,
            at,
            target,
        }) => assert_eq!((slice, node, at, target), (key, newcomer, first, second)),
        other => panic!("the one live replica misses record 2: {other:?}"),
    }
    h.fabric.set_up(r2);
    h.fabric.set_up(r3);

    // Record 3 reaches every replica and connects on none: each acks it
    // at record 1.
    let third = h.write_kv(&sal, 1, "r3", "v", false);
    match sal.quiesce(h.deadline()) {
        Err(TaurusError::ReplicaBehind { slice, target, .. }) => {
            assert_eq!((slice, target), (key, third));
        }
        other => panic!("a hole on every replica must fail the quiesce: {other:?}"),
    }
    assert!(
        sal.poll_persistent_lsns().contains(&key),
        "the newcomer's ack hid the decrease from {second} to {first}"
    );
    assert!(sal.repair_slice_from_logstores(key).unwrap() >= 1);
    sal.quiesce(h.deadline()).unwrap();
    for node in h.pages.replicas_of(key) {
        assert_eq!(h.pages.persistent_lsn_of(node, h.me, key).unwrap(), third);
    }
}

#[test]
fn sal_restart_recovery_redoes_missing_records() {
    let h = Harness::new(5, 5);
    let sal = h.sal();
    h.write_kv(&sal, 1, "a", "1", true);
    h.write_kv(&sal, 2, "b", "2", true);
    sal.quiesce(h.deadline()).unwrap();
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
    sal.quiesce(h.deadline()).unwrap();
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
    sal2.quiesce(h.deadline()).unwrap();
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
    sal.quiesce(h.deadline()).unwrap();
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
    sal.quiesce(h.deadline()).unwrap();
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
    sal.quiesce(h.deadline()).unwrap();
    // The quiesce waited for all three replicas, which truncation needs.
    assert_eq!(sal.database_persistent_lsn(), sal.durable_lsn());
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
    sal.quiesce(h.deadline()).unwrap();
    let head = sal.read_page(PageId(1), None).unwrap();
    let capped = sal.read_page(PageId(1), Some(Lsn(end.0 + 100))).unwrap();
    assert_eq!(capped.lsn(), head.lsn());
    assert_eq!(capped.nslots(), head.nslots());
}

/// Runs a crash and returns what recovery left on the Page Stores: `(slice
/// id, persistent LSNs of its replicas in placement order)` for every slice.
///
/// Phase 1 reaches every replica (and a truncation round moves the
/// anchor); phase 2 reaches the Log Stores only — every Page Store is down
/// — so all of it is redo work for `Sal::recover`.
fn recover_after_crash() -> Vec<(u64, Vec<u64>)> {
    let h = Harness::new(5, 5);
    let sal = h.sal();
    let pps = h.cfg.pages_per_slice;
    let pages = [1, 40, pps + 1, 2 * pps + 1];
    for (i, page) in pages.iter().enumerate() {
        h.write_kv(&sal, *page, &format!("a{i}"), "v", true);
    }
    sal.quiesce(h.deadline()).unwrap();
    // All three copies of every slice agree.
    let quiesced = h.pages.slices().into_iter().all(|key| {
        let at = |n| h.pages.persistent_lsn_of(n, h.me, key).unwrap();
        let lsns: Vec<Lsn> = h.pages.replicas_of(key).into_iter().map(at).collect();
        lsns.windows(2).all(|w| w[0] == w[1])
    });
    assert!(
        quiesced && sal.cv_lsn() == sal.durable_lsn(),
        "parked {:?}: {}",
        sal.parked_slices(),
        sal.stats.snapshot()
    );
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
    for page in pages {
        let buf = sal2.read_page(PageId(page), Some(end)).unwrap();
        assert_eq!(buf.nslots(), 2, "page {page} after recovery");
    }
    h.pages
        .slices()
        .into_iter()
        .map(|key| {
            let at = |n| h.pages.persistent_lsn_of(n, h.me, key).unwrap().0;
            let lsns = h.pages.replicas_of(key).into_iter().map(at).collect();
            (key.slice.0, lsns)
        })
        .collect()
}

/// The per-replica persistent LSNs `Sal::recover` leaves behind for this
/// crash, recorded at the commit before restart redo's two partition arms
/// (slice-id arithmetic and per-slice ingest filters) were folded into one;
/// redo homes each record by slice-id arithmetic again now.
#[test]
fn recover_leaves_the_pinned_persistent_lsns() {
    let all = |lsn: u64| vec![lsn; 3];
    assert_eq!(
        recover_after_crash(),
        vec![(0, all(10)), (1, all(11)), (2, all(12))]
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
/// has taken every ack (the send pipes are empty only after that). The
/// quiesce makes no round trip of its own here: the acks report every
/// replica at the flush LSN, so it has nobody to probe.
fn write_and_quiesce(sal: &Sal, group: LogRecordGroup) {
    sal.log_group(group).unwrap();
    sal.flush().unwrap();
    sal.quiesce(u64::MAX).unwrap();
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
    sal.quiesce(h.deadline()).unwrap();
    let key = SliceKey::new(DbId(1), PageId(1).slice(pps));
    let replicas = h.pages.replicas_of(key);
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
