//! Tests for the per-replica SAL write pipeline and the read-routing
//! bugfixes that shipped with it: out-of-order flush accounting, EWMA
//! penalties for failed reads, and suspect-replica demotion.

// Test harness: panicking on setup failure is the desired behavior.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use bytes::Bytes;
use taurus_common::clock::{Clock, ManualClock};
use taurus_common::config::{NetworkProfile, StorageProfile};
use taurus_common::lsn::{LsnAllocator, LsnWatermark};
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, LogRecordGroup, RecordBody};
use taurus_common::{DbId, Lsn, NodeId, PageId, SliceKey, TaurusConfig};
use taurus_core::Sal;
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
        let fabric = Fabric::new(clock.clone(), NetworkProfile::instant(), 4321);
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
        self.sal_with(self.cfg.clone())
    }

    fn sal_with(&self, cfg: TaurusConfig) -> Arc<Sal> {
        Sal::create(
            cfg,
            DbId(1),
            self.me,
            self.logs.clone(),
            self.pages.clone(),
            Arc::clone(&self.anchor),
        )
        .unwrap()
    }

    fn group(&self, page: u64, k: &str, format: bool) -> LogRecordGroup {
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
                val: Bytes::from_static(b"v"),
            },
        ));
        LogRecordGroup::new(DbId(1), records)
    }

    fn write_kv(&self, sal: &Sal, page: u64, k: &str, format: bool) -> Lsn {
        let group = self.group(page, k, format);
        let end = group.end_lsn();
        sal.log_group(group).unwrap();
        sal.flush().unwrap();
        end
    }

    fn settle(&self, sal: &Sal) {
        sal.flush_all_slices();
        for _ in 0..300 {
            std::thread::sleep(std::time::Duration::from_micros(200));
            if sal.cv_lsn() == sal.durable_lsn() {
                break;
            }
        }
    }
}

/// `Sal::tick` flushes a log buffer that nothing else pushed out once it has
/// sat open for `slice_flush_timeout_us`, the deadline slice buffers use,
/// and not a microsecond sooner.
#[test]
fn tick_flushes_an_idle_log_buffer_at_the_flush_deadline() {
    let h = Harness::new(3, 3);
    let sal = h.sal_with(TaurusConfig {
        log_buffer_bytes: 1 << 20, // the byte threshold never fires
        plog_size_limit: 1 << 22,
        slice_flush_timeout_us: 500,
        ..h.cfg.clone()
    });
    let group = h.group(1, "a", true);
    let end = group.end_lsn();
    let opened = h.clock.now_us();
    sal.log_group(group).unwrap();
    let flushes = sal.stats.log_flushes.get();

    h.clock.set(opened + 499);
    sal.tick();
    assert_eq!(sal.stats.log_flushes.get(), flushes);
    assert!(sal.durable_lsn() < end);

    h.clock.set(opened + 500);
    sal.tick();
    assert_eq!(sal.stats.log_flushes.get(), flushes + 1);
    assert_eq!(sal.durable_lsn(), end);
}

/// Regression: `flush_locked` must take the min/max LSN range over all
/// buffered groups and the per-slice max requirement, not the first/last
/// iterated values. Groups appended out of LSN order used to record an
/// inverted flush range (tripping the monotonicity invariant) and could let
/// the CV-LSN advance before a buffer's true tail was replicated.
#[test]
fn out_of_lsn_order_groups_flush_with_correct_range() {
    let h = Harness::new(4, 5);
    // A roomy log buffer: both groups below must land in ONE flush so the
    // flush range is computed across multiple buffered groups.
    let sal = h.sal_with(TaurusConfig {
        log_buffer_bytes: 1 << 20,
        plog_size_limit: 1 << 22,
        ..h.cfg.clone()
    });
    // Seed so the buffer isn't gated on slice creation ordering.
    h.write_kv(&sal, 1, "seed", true);
    h.settle(&sal);

    // Allocate group A (lower LSNs) then group B, but buffer B before A:
    // the flush range must be [min first, max end], not first/last iterated.
    let a = h.group(1, "a", false);
    let b = h.group(1, "b", false);
    let end = b.end_lsn();
    assert!(a.first_lsn() < b.first_lsn());
    sal.log_group(b).unwrap();
    sal.log_group(a).unwrap();
    sal.flush().unwrap();
    h.settle(&sal);
    assert_eq!(sal.durable_lsn(), end);
    assert_eq!(sal.cv_lsn(), end);

    // No flush-accounting invariant may have fired.
    let bad: Vec<_> = taurus_common::invariants::violations()
        .into_iter()
        .filter(|v| v.name == "log-flush-monotonic" || v.name == "pending-needs-bounded")
        .collect();
    assert!(bad.is_empty(), "invariant violations: {bad:?}");

    // And the data is all there.
    let page = sal.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.nslots(), 3);
}

/// A replica that fails reads must sink in the routing order: the failed
/// attempt feeds the EWMA with a penalty, so only the *first* read pays the
/// detour. Before the fix, an unmeasured replica defaulted to 0.0 latency
/// and stayed at the front of the order forever, costing one failed
/// attempt on every read.
#[test]
fn failed_reads_penalize_the_replica_in_routing_order() {
    let h = Harness::new(4, 5);
    let sal = h.sal();
    let end = h.write_kv(&sal, 1, "k", true);
    h.settle(&sal);
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    // `settle` waits for one ack per fragment; the read below must find
    // the record on whichever survivor it tries, so wait for all three.
    for _ in 0..2500 {
        let caught_up = replicas.iter().all(|&r| {
            h.pages
                .persistent_lsn_of(r, h.me, key)
                .is_ok_and(|l| l >= end)
        });
        if caught_up {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }

    // No latencies recorded yet: routing falls back to placement order.
    // Kill the first-choice replica.
    h.fabric.set_down(replicas[0]);
    sal.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(
        sal.stats.read_retries.get(),
        1,
        "first read pays exactly one failed attempt"
    );
    // The penalty recorded for the dead replica must push it to the back:
    // subsequent reads go straight to a healthy replica.
    for _ in 0..5 {
        sal.read_page(PageId(1), Some(end)).unwrap();
    }
    assert_eq!(
        sal.stats.read_retries.get(),
        1,
        "penalized replica must not be retried first on every read"
    );
}

/// A replica demoted to *suspect* by the write pipeline is deprioritized
/// for reads even though the fabric reports it up — it is known to be
/// missing recent fragments until repair catches it up.
#[test]
fn suspect_replicas_are_read_last() {
    let h = Harness::new(4, 5);
    let sal = h.sal();
    h.write_kv(&sal, 1, "k1", true);
    h.settle(&sal);
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    let victim = replicas[0];

    // The victim misses a fragment: its sender worker exhausts the retry
    // budget and demotes it.
    h.fabric.set_down(victim);
    let end = h.write_kv(&sal, 1, "k2", false);
    sal.flush_all_slices();
    for _ in 0..2500 {
        if sal.is_suspect(victim) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    assert!(sal.is_suspect(victim), "victim must be demoted to suspect");
    assert!(sal.stats.suspect_demotions.get() >= 1);

    // The node returns, still stale (repair has not run). Wait until the
    // healthy replicas have the fragment, then reads at the acked horizon
    // must route around the suspect without paying a failed attempt.
    h.fabric.set_up(victim);
    for _ in 0..2500 {
        let healthy_caught_up = replicas.iter().filter(|&&r| r != victim).all(|&r| {
            h.pages
                .persistent_lsn_of(r, h.me, key)
                .is_ok_and(|l| l >= end)
        });
        if healthy_caught_up {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let before = sal.stats.read_retries.get();
    let page = sal.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.nslots(), 2);
    assert_eq!(
        sal.stats.read_retries.get(),
        before,
        "suspect replica must not be the first read target"
    );
}

/// Queue-depth and in-flight gauges are visible per replica pipe.
#[test]
fn pipeline_gauges_report_per_replica_pipes() {
    let h = Harness::new(4, 5);
    let sal = h.sal();
    h.write_kv(&sal, 1, "k", true);
    h.settle(&sal);
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    let mut gauges = sal.pipeline_gauges();
    for r in &replicas {
        assert!(
            gauges.iter().any(|(n, _, _)| n == r),
            "replica {r} must have a pipe"
        );
    }
    // Drained pipeline: nothing queued, nothing in flight. The page-store
    // pipes (1/3 path) can lag CV-LSN advancement (3/3 log path) by a
    // beat, so poll briefly instead of asserting the instantaneous state.
    for _ in 0..300 {
        if gauges.iter().all(|(_, q, i)| *q == 0 && *i == 0) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
        gauges = sal.pipeline_gauges();
    }
    for (_, queued, in_flight) in gauges {
        assert_eq!(queued, 0);
        assert_eq!(in_flight, 0);
    }
}

/// Regression for the slice-creation race: `ensure_slices` now issues the
/// `CreateSlice` RPC *outside* the SAL state lock, so concurrent
/// first-touchers race to create the same slice. `PageStoreCluster::
/// create_slice` resolves the race idempotently (first placement wins,
/// later creators adopt it), and the SAL's entry-or-insert keeps one
/// `SliceState` per key. Race eight reader threads over fresh slices —
/// every created slice must end with exactly one full replica set, and the
/// (single-writer) log path must land its records in the raced slices.
#[test]
fn concurrent_first_touch_slice_creation_is_idempotent() {
    let h = Harness::new(3, 6);
    let sal = h.sal();
    const THREADS: u64 = 8;
    let pps = h.cfg.pages_per_slice;

    // Every thread first-touches slice 0 (8-way race) and one slice shared
    // with its neighbour (2-way race). Reads of never-written pages may
    // legitimately fail — only the slice creation they trigger matters.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let sal = Arc::clone(&sal);
            s.spawn(move || {
                let _ = sal.read_page(PageId(t), None);
                let _ = sal.read_page(PageId((1 + t / 2) * pps + t % 2), None);
            });
        }
    });

    // The write path is single-writer (the engine serializes commits under
    // the tree latch); its `ensure_slices` must adopt the raced placements.
    let mut pages = Vec::new();
    for t in 0..THREADS {
        pages.push(t);
        pages.push((1 + t / 2) * pps + t % 2);
    }
    let mut end = Lsn::ZERO;
    for (i, page) in pages.iter().enumerate() {
        end = h.write_kv(&sal, *page, &format!("k{i}"), true);
    }
    h.settle(&sal);

    for page in &pages {
        let buf = sal.read_page(PageId(*page), Some(end)).unwrap();
        assert_eq!(buf.nslots(), 1, "page {page} lost its insert");
        let key = SliceKey::new(DbId(1), PageId(*page).slice(pps));
        let replicas = h.pages.replicas_of(key);
        assert_eq!(
            replicas.len(),
            h.cfg.page_replicas,
            "slice {key} must have exactly one full replica set, got {replicas:?}"
        );
    }
}

/// `buffer_group` hands back a `PendingFlush` once the log buffer crosses
/// its threshold; *dropping* it without calling `run()` must still perform
/// the flush. The pending flush owns a reserved pipeline ticket — leaking
/// it would wedge every later flush behind the turnstile.
#[test]
fn dropped_pending_flush_still_flushes() {
    let h = Harness::new(3, 3);
    let sal = h.sal();
    let group = h.group(1, "k", true);
    let end = group.end_lsn();
    let pending = sal.buffer_group(group);
    assert!(
        pending.is_some(),
        "log_buffer_bytes=1 must cross the flush threshold"
    );
    drop(pending);
    // A later flush must not be wedged, and the dropped flush's records
    // must already be on their way to durability.
    sal.flush().unwrap();
    h.settle(&sal);
    let page = sal.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.nslots(), 1);
}

/// A dead Page Store node takes its whole grouped `ReadPages` envelope
/// down with it; every slice in that envelope must fail over to the
/// per-slice path (which retries the healthy replicas) and the batch must
/// still return every page intact.
#[test]
fn dead_node_grouped_read_fails_over_per_slice() {
    let h = Harness::new(4, 6);
    let sal = h.sal();
    let pps = h.cfg.pages_per_slice;
    // Two pages in two distinct slices: the multi-slice plan rides the
    // grouped dispatcher path.
    h.write_kv(&sal, 1, "k1", true);
    h.write_kv(&sal, pps + 1, "k2", true);
    h.settle(&sal);

    // No reads yet: routing is placement order, so each slice's first
    // replica is the grouped envelope's target. Kill slice 0's.
    let key = SliceKey::new(DbId(1), PageId(1).slice(pps));
    h.fabric.set_down(h.pages.replicas_of(key)[0]);

    let got = sal.read_pages(&[PageId(1), PageId(pps + 1)], None).unwrap();
    assert_eq!(got.len(), 2, "both pages must survive the dead node");
    for (id, buf) in &got {
        assert_eq!(buf.nslots(), 1, "page {id} lost its insert");
    }
    assert!(
        sal.stats.grouped_fallback_slices.get() >= 1,
        "the dead node's envelope must have fallen back per-slice"
    );
}

/// Regression (stack overflow under overload): an unpaced writer with
/// one-byte slice buffers, four-page slices and a two-deep send queue sheds
/// fragments non-stop, and a flapping Page Store keeps flipping between
/// suspect and healthy. Repair used to nest — every resurrection observed
/// during `repair_parked` started another `repair_parked` on the same stack
/// — so a thread ticking through this load overflowed its stack. The ticker
/// here runs on a 64 KiB stack, room for ~25 nested passes of the old code
/// (which reached 40+ under this load) and ample for a drain of depth 1.
#[test]
fn overload_with_a_flapping_replica_repairs_at_depth_one() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const PAGES: u64 = 256;
    const ROUNDS: u64 = 24;
    let h = Harness::new(3, 3);
    let sal = h.sal_with(TaurusConfig {
        slice_buffer_bytes: 1,
        pages_per_slice: 4,
        sal_send_queue_depth: 2,
        ..h.cfg.clone()
    });
    // Create every slice on a healthy cluster (`CreateSlice` is not retried).
    for page in 0..PAGES {
        h.write_kv(&sal, page, "r00", true);
    }
    h.settle(&sal);
    // Three Page Stores, three replicas: every slice has one on the victim.
    let victim = h.pages.server_nodes()[0];
    h.fabric.set_flaky(victim, 500);

    let done = AtomicBool::new(false);
    let end = std::thread::scope(|s| {
        let ticker = std::thread::Builder::new()
            .stack_size(64 << 10)
            .spawn_scoped(s, || {
                while !done.load(Ordering::Acquire) {
                    sal.tick();
                }
            })
            .unwrap();
        let mut end = Lsn::ZERO;
        for round in 1..ROUNDS {
            for page in 0..PAGES {
                end = h.write_kv(&sal, page, &format!("r{round:02}"), false);
            }
        }
        done.store(true, Ordering::Release);
        ticker.join().unwrap();
        end
    });
    let stats = sal.stats.snapshot();
    assert!(
        stats.queue_full_drops > 0 && stats.suspect_resurrections > 0,
        "the load must shed and the victim must flap: {stats}"
    );

    h.fabric.set_flaky(victim, 0);
    sal.flush_all_slices();
    for _ in 0..5000 {
        sal.tick();
        if sal.parked_slices().is_empty() && sal.cv_lsn() == sal.durable_lsn() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    assert_eq!(sal.parked_slices(), vec![], "{}", sal.stats.snapshot());
    // Under `--cfg taurus_lock_witness`: no inversion among `sal::state`
    // and the writer's leaf locks while flush, ack, shed and drain raced.
    taurus_common::invariants::lock_witness_sweep();
    let inversions: Vec<_> = taurus_common::invariants::violations()
        .into_iter()
        .filter(|v| v.name == "lock-order-acyclic")
        .collect();
    assert!(inversions.is_empty(), "{inversions:?}");
    // Every acknowledged row reads back.
    for page in 0..PAGES {
        let buf = sal.read_page(PageId(page), Some(end)).unwrap();
        assert_eq!(buf.nslots() as u64, ROUNDS, "page {page} lost rows");
    }
}

/// Polls `cond` for up to ~1 s of real time (sender jobs are real threads).
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..5000 {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    panic!("timed out waiting for {what}");
}

/// One repair pass over many parked slices is one `redo`: a single
/// log-window read however many slices and replicas lag (the old path read
/// the whole log once per lagging replica per slice), every replica brought
/// to its slice's flush LSN, and the three copies of every page identical.
#[test]
fn one_repair_pass_reads_the_log_once_for_every_parked_slice() {
    const SLICES: u64 = 5;
    let h = Harness::new(3, 3);
    let sal = h.sal();
    let pps = h.cfg.pages_per_slice;
    let pages: Vec<PageId> = (0..SLICES).map(|s| PageId(s * pps + 1)).collect();
    let keys: Vec<SliceKey> = pages
        .iter()
        .map(|p| SliceKey::new(DbId(1), p.slice(pps)))
        .collect();
    let everywhere = |key: SliceKey, lsn: Lsn| {
        let at = |n| {
            h.pages
                .persistent_lsn_of(n, h.me, key)
                .is_ok_and(|l| l >= lsn)
        };
        h.pages.replicas_of(key).into_iter().all(at)
    };
    for (page, key) in pages.iter().zip(&keys) {
        let end = h.write_kv(&sal, page.0, "k1", true);
        eventually("the first rows on all replicas", || everywhere(*key, end));
    }

    // Three Page Stores, three replicas: the victim hosts every slice.
    let victim = h.pages.server_nodes()[0];
    h.fabric.set_down(victim);
    let ends: Vec<Lsn> = pages
        .iter()
        .map(|page| h.write_kv(&sal, page.0, "k2", false))
        .collect();
    eventually("every slice to park", || sal.parked_slices() == keys);
    h.fabric.set_up(victim);

    let reads_before = sal.stats.redo_log_reads.get();
    assert_eq!(sal.repair_parked(), keys.len(), "{}", sal.stats.snapshot());
    assert_eq!(
        sal.stats.redo_log_reads.get() - reads_before,
        1,
        "one pass, one log-window read"
    );
    assert!(sal.stats.resends.get() >= SLICES);
    assert!(sal.parked_slices().is_empty());
    for ((page, key), end) in pages.iter().zip(&keys).zip(&ends) {
        assert!(everywhere(*key, *end), "{key} not at its flush LSN {end}");
        let copies: Vec<Vec<u8>> = h
            .pages
            .replicas_of(*key)
            .into_iter()
            .map(|n| h.pages.read_page_from(n, h.me, *key, *page, *end).unwrap())
            .map(|(buf, _)| buf.as_bytes().to_vec())
            .collect();
        assert!(copies.windows(2).all(|w| w[0] == w[1]), "{page} diverged");
    }
}

/// A repair whose view of the placement predates a replica move must not
/// land records above the fence on the departed node. The move here is
/// committed behind the SAL's back while the departing node is down (so the
/// node never hears its fence either): the only thing standing between the
/// stale resend and the departed replica is the placement epoch check every
/// `ship` carries — the unchecked `write_logs_to` repair used to bypass it.
/// The refused fragment parks the slice, the SAL refreshes, and the same
/// drain brings the newcomer up to the flush LSN.
#[test]
fn repair_with_a_stale_view_of_a_replica_move_never_writes_past_the_fence() {
    let h = Harness::new(3, 4);
    let sal = h.sal();
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let persistent = |n| h.pages.persistent_lsn_of(n, h.me, key).unwrap();
    let end1 = h.write_kv(&sal, 1, "k1", true);
    let replicas = h.pages.replicas_of(key);
    eventually("row 1 everywhere", || {
        replicas.iter().all(|&n| persistent(n) == end1)
    });
    let departing = replicas[2];
    let newcomer = *h
        .pages
        .server_nodes()
        .iter()
        .find(|n| !replicas.contains(n))
        .unwrap();

    // The newcomer is seeded at row 1; row 2 then misses the departing node.
    let range = h.pages.slice_range(key, h.cfg.pages_per_slice);
    let snap = h.pages.export_snapshot(key, range, h.me).unwrap();
    let base = h
        .pages
        .install_seed(key, &[newcomer], vec![snap], h.me)
        .unwrap();
    assert_eq!(base, end1);
    h.fabric.set_down(departing);
    let end2 = h.write_kv(&sal, 1, "k2", false);
    eventually("the slice to park", || sal.parked_slices() == vec![key]);
    // The move commits with the departing node fenced where it stands.
    let epoch = h.pages.commit_move(key, departing, newcomer, end1).unwrap();
    assert_eq!(
        h.pages.fence_replicas(key, &[departing], end1, epoch, h.me),
        0
    );
    h.fabric.set_up(departing);

    let parked_before = sal.stats.fragments_parked.get();
    assert_eq!(sal.repair_parked(), 1, "{}", sal.stats.snapshot());
    assert!(
        sal.stats.fragments_parked.get() > parked_before,
        "the stale fragment must have been refused and parked"
    );
    assert_eq!(persistent(departing), end1, "nothing above the fence");
    assert_eq!(persistent(newcomer), end2, "the newcomer caught up");

    // Later writes go to the new replica set and stay off the departed one.
    let end3 = h.write_kv(&sal, 1, "k3", false);
    h.settle(&sal);
    eventually("row 3 on the new replica set", || {
        h.pages
            .replicas_of(key)
            .iter()
            .all(|&n| persistent(n) == end3)
    });
    assert_eq!(persistent(departing), end1);
    assert_eq!(sal.read_page(PageId(1), Some(end3)).unwrap().nslots(), 3);
}
