//! Tests for the per-replica SAL write pipeline and the read-routing
//! bugfixes that shipped with it: out-of-order flush accounting, EWMA
//! penalties for failed reads, and suspect-replica demotion.

use std::sync::Arc;

use bytes::Bytes;
use taurus_common::clock::{ClockRef, ManualClock, SystemClock};
use taurus_common::config::{NetworkProfile, StorageProfile, REPLICAS};
use taurus_common::lsn::{LsnAllocator, LsnWatermark};
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, LogRecordGroup, RecordBody};
use taurus_common::{DbId, Lsn, NodeId, PageId, SliceKey, TaurusConfig, TaurusError};
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
        Self::on(ManualClock::shared(), log_nodes, page_nodes)
    }

    fn on(clock: ClockRef, log_nodes: usize, page_nodes: usize) -> Harness {
        let fabric = Fabric::new(clock.clone(), NetworkProfile::instant(), 4321);
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

    /// The deadline of a quiesce that starts now: on a manual clock only
    /// modelled call costs move it, so this bounds a drill that charges them.
    fn deadline(&self) -> u64 {
        self.fabric.clock.now_us() + 10_000_000
    }
}

/// Regression: `flush_locked` must take the min/max LSN range over all
/// buffered groups and the per-slice max requirement, not the first/last
/// iterated values. Groups appended out of LSN order used to record an
/// inverted flush range (tripping the monotonicity invariant) and could let
/// the CV-LSN advance before a buffer's true tail was replicated. Buffering
/// out of order breaks the SAL's contract (`log-groups-in-lsn-order`, next
/// test); this one checks that the flush still comes out right when it is.
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
    sal.quiesce(h.deadline()).unwrap();

    // Allocate group A (lower LSNs) then group B, but buffer B before A:
    // the flush range must be [min first, max end], not first/last iterated.
    let a = h.group(1, "a", false);
    let b = h.group(1, "b", false);
    let end = b.end_lsn();
    assert!(a.first_lsn() < b.first_lsn());
    sal.log_group(b).unwrap();
    let buffered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sal.log_group(a)));
    if std::env::var_os("TAURUS_INVARIANT_PANIC").is_some() {
        // The ordering check panics before `a` is buffered: no flush to check.
        assert!(buffered.is_err(), "log-groups-in-lsn-order must fire");
        return;
    }
    buffered.unwrap().unwrap();
    sal.flush().unwrap();
    sal.quiesce(h.deadline()).unwrap();
    assert_eq!(sal.durable_lsn(), end);
    assert_eq!(sal.cv_lsn(), end);

    // No flush-accounting invariant may have fired.
    let bad: Vec<_> = taurus_common::invariants::violations()
        .into_iter()
        .filter(|v| v.name == "log-flush-monotonic" || v.name == "slice-homed-before-distribute")
        .collect();
    assert!(bad.is_empty(), "invariant violations: {bad:?}");

    // And the data is all there.
    let page = sal.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.nslots(), 3);
}

/// `Log::tail` skips a group that ends at or below one it already
/// delivered, so groups must reach the SAL in LSN order. `buffer_group`
/// checks each group against the one buffered before it or, with the buffer
/// empty, against the end of the last prepared flush.
#[test]
fn groups_buffered_out_of_lsn_order_are_recorded() {
    let h = Harness::new(4, 5);
    let sal = h.sal_with(TaurusConfig {
        log_buffer_bytes: 1 << 20,
        plog_size_limit: 1 << 22,
        ..h.cfg.clone()
    });
    let stale = h.group(1, "stale", false);
    h.write_kv(&sal, 1, "seed", true);
    let (a, b) = (h.group(1, "a", false), h.group(1, "b", false));
    let recorded = |g: LogRecordGroup| {
        let range = format!("group [{}..{}]", g.first_lsn(), g.end_lsn());
        // With TAURUS_INVARIANT_PANIC set the check panics instead.
        let buffer = std::panic::AssertUnwindSafe(|| sal.buffer_group(g));
        std::panic::catch_unwind(buffer).is_err()
            || taurus_common::invariants::violations()
                .iter()
                .any(|v| v.name == "log-groups-in-lsn-order" && v.detail.starts_with(&range))
    };
    assert!(recorded(stale), "below the last flush, buffer empty");
    assert!(!recorded(b), "in order after the stale group");
    assert!(recorded(a), "below the group buffered before it");
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
    sal.quiesce(h.deadline()).unwrap();
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    // The quiesce waited for all three replicas: the read below finds the
    // record on whichever survivor it tries.
    let replicas = h.pages.replicas_of(key);

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
    sal.quiesce(h.deadline()).unwrap();
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    let victim = replicas[0];

    // The victim misses a fragment: its sender worker exhausts the retry
    // budget and demotes it.
    h.fabric.set_down(victim);
    let end = h.write_kv(&sal, 1, "k2", false);
    // The live replicas hold the fragment; the victim's pipe gave up on it.
    sal.quiesce(h.deadline()).unwrap();
    assert!(sal.is_suspect(victim), "victim must be demoted to suspect");
    assert!(sal.stats.suspect_demotions.get() >= 1);

    // The node returns, still stale (repair has not run): reads at the
    // acked horizon must route around the suspect without paying a failed
    // attempt.
    h.fabric.set_up(victim);
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
    sal.quiesce(h.deadline()).unwrap();
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let replicas = h.pages.replicas_of(key);
    let gauges = sal.pipeline_gauges();
    for r in &replicas {
        assert!(
            gauges.iter().any(|(n, _, _)| n == r),
            "replica {r} must have a pipe"
        );
    }
    // Quiesced pipeline: nothing queued, nothing in flight.
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
    sal.quiesce(h.deadline()).unwrap();

    for page in &pages {
        let buf = sal.read_page(PageId(*page), Some(end)).unwrap();
        assert_eq!(buf.nslots(), 1, "page {page} lost its insert");
        let key = SliceKey::new(DbId(1), PageId(*page).slice(pps));
        let replicas = h.pages.replicas_of(key);
        assert_eq!(
            replicas.len(),
            REPLICAS,
            "slice {key} must have exactly one full replica set, got {replicas:?}"
        );
    }
}

/// A log buffer that reaches its threshold leaves through `Sal::flush`,
/// the only way out: `buffer_group` reports it full and does no I/O,
/// `log_group` returns with the group durable, and later flushes are not
/// wedged behind it.
#[test]
fn a_full_log_buffer_leaves_through_flush() {
    let h = Harness::new(3, 3);
    let sal = h.sal();
    let first = h.group(1, "k", true);
    let end = first.end_lsn();
    assert!(
        sal.buffer_group(first),
        "log_buffer_bytes=1 must reach the flush threshold"
    );
    assert_eq!(sal.durable_lsn(), Lsn::ZERO, "buffering does no I/O");
    assert_eq!(sal.flush().unwrap(), end);
    let second = h.group(1, "k2", false);
    let end = second.end_lsn();
    sal.log_group(second).unwrap();
    assert_eq!(sal.durable_lsn(), end, "log_group flushed the full buffer");
    sal.quiesce(h.deadline()).unwrap();
    let page = sal.read_page(PageId(1), Some(end)).unwrap();
    assert_eq!(page.nslots(), 2);
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
    // Two pages in two distinct slices: the multi-slice plan rides
    // grouped envelopes.
    h.write_kv(&sal, 1, "k1", true);
    h.write_kv(&sal, pps + 1, "k2", true);
    sal.quiesce(h.deadline()).unwrap();

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
/// one-byte slice buffers, four-page slices and a two-deep send queue is
/// held by full queues non-stop, and a flapping Page Store keeps flipping
/// between suspect and healthy, parking slices with its failed sends. Repair used to nest — every resurrection observed
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
    // The pipes come to rest: the two-deep queues held the writer, so
    // every replica holds every row.
    sal.quiesce(h.deadline()).unwrap();
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
        stats.fragments_parked > 0 && stats.suspect_resurrections > 0,
        "the victim's failed sends must park and the victim must flap: {stats}"
    );

    h.fabric.set_flaky(victim, 0);
    // The pipes come to rest first: a send that left while the victim was
    // still flaky may yet fail and park its slice. Then one tick repairs
    // what the failed sends parked.
    match sal.quiesce(h.deadline()) {
        Ok(()) | Err(TaurusError::ReplicaBehind { .. }) => {}
        other => panic!("{other:?}"),
    }
    sal.tick();
    sal.quiesce(h.deadline()).unwrap();
    assert_eq!(sal.parked_slices(), vec![], "{}", sal.stats.snapshot());
    // Under `--cfg taurus_lock_witness`: no inversion among `sal::state`
    // and the writer's leaf locks while flush, admission, ack and drain
    // raced.
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
        sal.quiesce(h.deadline()).unwrap();
        assert!(
            everywhere(*key, end),
            "the first row of {key} on all replicas"
        );
    }

    // Three Page Stores, three replicas: the victim hosts every slice.
    let victim = h.pages.server_nodes()[0];
    h.fabric.set_down(victim);
    let ends: Vec<Lsn> = pages
        .iter()
        .map(|page| h.write_kv(&sal, page.0, "k2", false))
        .collect();
    sal.quiesce(h.deadline()).unwrap();
    assert_eq!(sal.parked_slices(), keys, "every slice parks");
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

/// A repair whose replica list predates a rebuild must not land records
/// on the rebuilt-away node once it is back up. The rebuild runs behind
/// the SAL's back while the node is down, so the SAL still names it: the
/// only thing standing between the stale resend and that node is the
/// placement check every `ship` carries. The refused fragment parks the
/// slice, the SAL refreshes, and the same repair pass brings the newcomer
/// up to the flush LSN.
#[test]
fn repair_with_a_stale_view_of_a_rebuild_never_writes_to_the_rebuilt_away_node() {
    let h = Harness::new(3, 4);
    let sal = h.sal();
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    let persistent = |n| h.pages.persistent_lsn_of(n, h.me, key).unwrap();
    let end1 = h.write_kv(&sal, 1, "k1", true);
    let replicas = h.pages.replicas_of(key);
    sal.quiesce(h.deadline()).unwrap();
    assert!(
        replicas.iter().all(|&n| persistent(n) == end1),
        "row 1 everywhere"
    );

    // The departing node goes down and is rebuilt onto the newcomer, which
    // is seeded at row 1; row 2 then misses both of them.
    let departing = replicas[2];
    h.fabric.set_down(departing);
    let newcomer = h.pages.rebuild_replica(key, departing, h.me).unwrap();
    assert!(!replicas.contains(&newcomer));
    assert_eq!(persistent(newcomer), end1);
    let end2 = h.write_kv(&sal, 1, "k2", false);
    // The SAL still names the departing node, which is down: the live
    // replicas it names hold row 2, and the departing one's pipe parked it.
    sal.quiesce(h.deadline()).unwrap();
    assert_eq!(sal.parked_slices(), vec![key]);
    h.fabric.set_up(departing);

    let parked_before = sal.stats.fragments_parked.get();
    assert_eq!(sal.repair_parked(), 1, "{}", sal.stats.snapshot());
    assert!(
        sal.stats.fragments_parked.get() > parked_before,
        "the stale fragment must have been refused and parked"
    );
    assert_eq!(
        persistent(departing),
        end1,
        "nothing on the rebuilt-away node"
    );
    assert_eq!(persistent(newcomer), end2, "the newcomer caught up");

    // Later writes go to the new replica set and stay off the departed one.
    let end3 = h.write_kv(&sal, 1, "k3", false);
    sal.quiesce(h.deadline()).unwrap();
    assert!(
        h.pages
            .replicas_of(key)
            .iter()
            .all(|&n| persistent(n) == end3),
        "row 3 on the new replica set"
    );
    assert_eq!(persistent(departing), end1);
    assert_eq!(sal.read_page(PageId(1), Some(end3)).unwrap().nslots(), 3);
}

/// A failed slice write is repaired from the log, not retried in place:
/// with every replica of a slice down, a write's fragments fail once and
/// park the slice, and nothing waits on the clock — the quiesce returns
/// with the manual clock where it stood before the write. The replicas
/// come back, and one `tick` re-sends the row from the Log Stores to each.
#[test]
fn a_failed_slice_write_parks_without_moving_the_clock_and_one_tick_repairs_it() {
    let h = Harness::new(3, 3);
    let sal = h.sal();
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    h.write_kv(&sal, 1, "k1", true);
    sal.quiesce(h.deadline()).unwrap();
    let replicas = h.pages.replicas_of(key);
    for &r in &replicas {
        h.fabric.set_down(r);
    }

    let before = h.fabric.clock.now_us();
    let end = h.write_kv(&sal, 1, "k2", false);
    sal.quiesce(h.deadline()).unwrap();
    assert_eq!(
        h.fabric.clock.now_us(),
        before,
        "a failed send must not wait"
    );
    assert_eq!(sal.parked_slices(), vec![key]);
    for &r in &replicas {
        assert!(sal.is_suspect(r), "{r} must be suspect");
    }

    for &r in &replicas {
        h.fabric.set_up(r);
    }
    sal.tick();
    for &r in &replicas {
        assert_eq!(h.pages.persistent_lsn_of(r, h.me, key).unwrap(), end);
    }
    assert!(sal.parked_slices().is_empty());
    assert_eq!(sal.read_page(PageId(1), Some(end)).unwrap().nslots(), 2);
}

/// One unpaced writer is held, not shed: overload degrades by
/// back-pressure. On `TaurusConfig::test()`'s 16-deep send queues (with
/// the harness's one-byte buffers, so every commit is one log flush and
/// one slice fragment per Page Store) one thread commits 2 000 single-row
/// groups back to back, faster than the three senders drain. A flush
/// waits while a queue is full, so no fragment is dropped, no slice parks,
/// no healthy node turns suspect, and the strict barrier finds every
/// replica holding every row.
#[test]
fn an_unpaced_writer_is_held_not_shed() {
    const COMMITS: u64 = 2_000;
    const PAGES: u64 = 100;
    let h = Harness::new(3, 3);
    let sal = h.sal();
    for i in 0..COMMITS {
        h.write_kv(&sal, i % PAGES, &format!("k{i:05}"), i < PAGES);
    }
    sal.quiesce(h.deadline()).unwrap();
    let stats = sal.stats.snapshot();
    assert_eq!(
        (
            stats.queue_full_drops,
            stats.fragments_parked,
            stats.suspect_demotions
        ),
        (0, 0, 0),
        "{stats}"
    );
    // The bound: a flush is admitted only while every queue holds fewer
    // than `sal_send_queue_depth` fragments, and with one committer one
    // span is past the admission at a time. A span here is one group on
    // one page, so it adds one fragment to each node's queue.
    const ONE_SPAN_ADDS: u64 = 1;
    let bound = h.cfg.sal_send_queue_depth as u64 - 1 + ONE_SPAN_ADDS;
    let deepest = sal.dispatch_stats().max_queue_depth;
    assert!(deepest <= bound, "a queue held {deepest} > {bound}");
    let end = sal.durable_lsn();
    for page in 0..PAGES {
        let rows = sal.read_page(PageId(page), Some(end)).unwrap().nslots() as u64;
        assert_eq!(rows, COMMITS / PAGES, "page {page} lost rows");
    }
}

/// The admission wait is bounded by the failure window. On a
/// `SystemClock`, one of three Page Stores is slowed to a second a call
/// and the send queues are two deep: its first fragment rides a call that
/// outlasts the commits, the next ones fill its queue, and the commit
/// after them is held until `short_term_failure_us` (100 ms) on the SAL's
/// clock has passed since a flush first found the queue full. Then the
/// node is treated as failed — suspect, its queued
/// fragments abandoned and their slice parked — and the commits go on,
/// while each flush that finds the suspect node's queue full abandons it
/// again, so it stays within its depth. No row is lost: once the delay is
/// cleared, one tick brings the node to the last row and the strict
/// barrier passes.
#[test]
fn a_queue_full_for_a_failure_window_fails_its_node_and_commits_go_on() {
    const COMMITS: u64 = 16;
    const DELAY_US: u64 = 1_000_000;
    let clock = SystemClock::shared();
    let h = Harness::on(clock.clone(), 3, 3);
    let sal = h.sal_with(TaurusConfig {
        sal_send_queue_depth: 2,
        ..h.cfg.clone()
    });
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    h.write_kv(&sal, 1, "k00", true);
    sal.quiesce(h.deadline()).unwrap();
    let slow = h.pages.server_nodes()[0];
    h.fabric.set_call_delay(slow, DELAY_US);

    let window = h.cfg.short_term_failure_us;
    let mut held = Vec::new();
    for i in 1..=COMMITS {
        let start = clock.now_us();
        h.write_kv(&sal, 1, &format!("k{i:02}"), false);
        held.push(clock.now_us() - start);
    }
    // The window runs from the first flush that found the queue full, so
    // the commits take at least a window in all; after that first look
    // only a run the sender took before its slow call lets a commit
    // through, so one commit waits out most of the window.
    let longest = held.iter().copied().max().unwrap_or(0);
    assert!(
        held.iter().sum::<u64>() >= window && (window / 2..DELAY_US).contains(&longest),
        "the commits are held for the window, not for the slow call: {held:?}"
    );
    let stats = sal.stats.snapshot();
    assert!(stats.admission_waits >= 1, "{stats}");
    assert!(stats.admission_wait_us >= window / 2, "{stats}");
    assert!(stats.queue_full_drops >= 2, "{stats}");
    assert!(sal.is_suspect(slow), "{stats}");
    assert_eq!(sal.parked_slices(), vec![key]);
    // Suspect, the node is not waited on, but its queue stays bounded:
    // a flush abandons it at its depth, and each admitted span (one
    // fragment here) can add only one more.
    let deepest = sal.dispatch_stats().max_queue_depth;
    assert!(deepest <= 2, "a queue held {deepest} > 2");

    h.fabric.set_call_delay(slow, 0);
    let end = sal.durable_lsn();
    sal.tick();
    assert_eq!(h.pages.persistent_lsn_of(slow, h.me, key).unwrap(), end);
    assert!(sal.parked_slices().is_empty());
    sal.quiesce(h.deadline()).unwrap();
    let rows = sal.read_page(PageId(1), Some(end)).unwrap().nslots() as u64;
    assert_eq!(rows, COMMITS + 1);
}

/// A straggler fails on its window even when no single call outlasts it.
/// On a `SystemClock`, one of three Page Stores is slowed to 20 ms a call,
/// a fifth of `short_term_failure_us`, and the send queues are two deep:
/// each call frees its queue for the next commit, so no flush is held a
/// whole window, but the queue is never emptied while the writer runs.
/// The window runs from when a flush first found it full, so the node is
/// treated as failed (suspect, fragments abandoned, slice parked) after
/// 100 ms of holding the writer, not after the commits end; after that
/// the writer is not held again until the node has drained, and the acks
/// of runs the node took before it was failed do not clear its suspect
/// mark. No row is
/// lost: once the delay is cleared, one tick brings the node to the last
/// row and the strict barrier passes.
#[test]
fn a_straggler_that_keeps_its_queue_full_fails_on_its_window() {
    const COMMITS: u64 = 60;
    const DELAY_US: u64 = 20_000;
    let clock = SystemClock::shared();
    let h = Harness::on(clock.clone(), 3, 3);
    let sal = h.sal_with(TaurusConfig {
        sal_send_queue_depth: 2,
        ..h.cfg.clone()
    });
    let key = SliceKey::new(DbId(1), PageId(1).slice(h.cfg.pages_per_slice));
    h.write_kv(&sal, 1, "k00", true);
    sal.quiesce(h.deadline()).unwrap();
    let slow = h.pages.server_nodes()[0];
    h.fabric.set_call_delay(slow, DELAY_US);

    let window = h.cfg.short_term_failure_us;
    let mut held = Vec::new();
    for i in 1..=COMMITS {
        let start = clock.now_us();
        h.write_kv(&sal, 1, &format!("k{i:02}"), false);
        held.push(clock.now_us() - start);
    }
    let stats = sal.stats.snapshot();
    assert!(
        held.iter().all(|&us| us < window),
        "no single commit is held a whole window: {held:?}"
    );
    // One window, then not again: at the straggler's pace the commits
    // would be held about COMMITS / 2 calls, 600 ms.
    assert!(stats.admission_wait_us < 2 * window, "{stats}");
    assert!(stats.queue_full_drops >= 1, "{stats}");
    assert!(stats.suspect_demotions >= 1, "{stats}");
    // Failed, it stays failed while it is slow: the ack of a run it took
    // before its queue was abandoned is no sign it serves again.
    assert_eq!(stats.suspect_resurrections, 0, "{stats}");
    assert_eq!(sal.parked_slices(), vec![key]);

    h.fabric.set_call_delay(slow, 0);
    sal.quiesce(h.deadline()).ok();
    let end = sal.durable_lsn();
    sal.tick();
    assert_eq!(h.pages.persistent_lsn_of(slow, h.me, key).unwrap(), end);
    assert!(sal.parked_slices().is_empty());
    sal.quiesce(h.deadline()).unwrap();
    let rows = sal.read_page(PageId(1), Some(end)).unwrap().nslots() as u64;
    assert_eq!(rows, COMMITS + 1);
}

/// A quiesce fails at its deadline, on the SAL's clock, while a pipe is
/// still busy: a replica slowed to 10 s a call holds the second write's
/// fragment, nothing else happens, and the waiter gives up by itself at
/// its 20 ms deadline, long before that call ends.
#[test]
fn quiesce_fails_at_its_deadline_while_a_pipe_is_busy() {
    let clock = SystemClock::shared();
    let h = Harness::on(clock.clone(), 3, 3);
    let sal = h.sal();
    h.write_kv(&sal, 1, "k1", true);
    sal.quiesce(h.deadline()).unwrap();
    h.fabric
        .set_call_delay(h.pages.server_nodes()[0], 10_000_000);
    h.write_kv(&sal, 1, "k2", false);
    let deadline = clock.now_us() + 20_000;
    let outcome = sal.quiesce(deadline);
    assert!(
        matches!(outcome, Err(TaurusError::DeadlinePassed(_))),
        "{outcome:?}"
    );
    let now = clock.now_us();
    assert!(now >= deadline);
    assert!(now < deadline + 5_000_000, "{}us late", now - deadline);
}

/// The CV-LSN is the read horizon. Commits go round-robin to pages of three
/// slices on three Page Stores, one of which (a replica of every slice) is
/// slowed by 2 ms a call in real time; slice buffers ship every fourth
/// commit, so in between the slices written since owe an ack. After every
/// commit the CV-LSN is at or below the durable LSN, it is the value
/// `read_horizon` returns, and a read at it sees every row committed at or
/// below it and none above.
#[test]
fn cv_lsn_is_the_read_horizon_and_a_read_at_it_sees_every_row_below_it() {
    let h = Harness::on(SystemClock::shared(), 3, 3);
    let sal = h.sal_with(TaurusConfig {
        slice_buffer_bytes: 1 << 20,
        ..h.cfg.clone()
    });
    let pps = h.cfg.pages_per_slice;
    let pages = [PageId(1), PageId(pps + 1), PageId(2 * pps + 1)];
    // (page, key, LSN of the commit that inserted it)
    let mut rows: Vec<(PageId, String, Lsn)> = Vec::new();

    // The CV-LSN and the read horizon, taken while neither moves: only
    // acks land between commits, and they only raise the horizon.
    let still = |sal: &Sal| loop {
        let before = sal.read_horizon();
        let cv = sal.cv_lsn();
        let after = sal.read_horizon();
        assert!(before <= cv && cv <= after, "{before} / {cv} / {after}");
        if before == after {
            return (cv, after);
        }
    };
    let check = |sal: &Sal, rows: &[(PageId, String, Lsn)]| {
        let (cv, horizon) = still(sal);
        assert!(cv <= sal.durable_lsn(), "cv {cv} past durable");
        assert_eq!(cv, horizon);
        let got = sal.read_pages(&pages, Some(cv)).unwrap();
        for (page, buf) in got {
            let keys: Vec<Vec<u8>> = buf.records().into_iter().map(|(k, _)| k).collect();
            for (p, key, lsn) in rows.iter().filter(|(p, ..)| *p == page) {
                let seen = keys.contains(&key.as_bytes().to_vec());
                assert_eq!(seen, *lsn <= cv, "page {p} key {key} at {lsn}, cv {cv}");
            }
        }
    };

    for (i, &page) in pages.iter().enumerate() {
        let key = format!("k{i:02}");
        rows.push((page, key.clone(), h.write_kv(&sal, page.0, &key, true)));
    }
    sal.quiesce(h.deadline()).unwrap();
    check(&sal, &rows);
    assert_eq!(sal.slice_keys().len(), 3);
    h.fabric.set_call_delay(h.pages.server_nodes()[0], 2_000);

    for i in pages.len()..30 {
        let page = pages[i % pages.len()];
        let key = format!("k{i:02}");
        rows.push((page, key.clone(), h.write_kv(&sal, page.0, &key, false)));
        if i % 4 == 0 {
            sal.flush_all_slices();
        }
        check(&sal, &rows);
    }
    sal.quiesce(h.deadline()).unwrap();
    check(&sal, &rows);
    assert_eq!(sal.cv_lsn(), sal.durable_lsn());
}
