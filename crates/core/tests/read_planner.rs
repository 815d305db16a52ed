//! The read planner's one loop (`slice_reader` module docs, steps 2–5),
//! driven directly: a `SliceReader` over Page Stores loaded through plain
//! `WriteLogs` calls, on a virtual clock with a 100 µs hop. Nothing here
//! owns a SAL, so nothing may reach the dispatcher pool — every test ends by
//! asserting that no worker was spawned and no item was ever queued.

// Test harness: panicking on setup failure is the desired behavior.
#![allow(clippy::unwrap_used)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use taurus_common::clock::{Clock, ManualClock};
use taurus_common::config::{NetworkProfile, StorageProfile};
use taurus_common::page::PageType;
use taurus_common::record::{LogRecord, RecordBody};
use taurus_common::scan::{evaluate_leaf_page, Aggregate, ScanAccumulator, ScanRequest};
use taurus_common::{
    DbId, Lsn, NodeId, PageBuf, PageId, Result, SliceKey, TaurusConfig, TaurusError,
};
use taurus_core::{FrontEnd, SliceReader};
use taurus_fabric::{Fabric, NodeKind};
use taurus_pagestore::cluster::PageStoreOptions;
use taurus_pagestore::{PageStoreCluster, SliceFragment};

const HOP_US: u64 = 100;
const ROUND_TRIP_US: u64 = 2 * HOP_US;
const ROWS_PER_PAGE: u64 = 32;

type Hook = Box<dyn FnOnce() + Send>;

/// A manual clock that counts deadline waits and runs a hook in the middle
/// of the `n`-th. A round of `k` envelopes waits `k + 1` times (each
/// arrival, then the last reply; a one-envelope round is a `Fabric::call`:
/// arrival, reply), so `waits - rounds` is the number of envelopes sent.
#[derive(Default)]
struct HookClock {
    time: ManualClock,
    waits: AtomicU64,
    armed: Mutex<Option<(u64, Hook)>>,
}

impl std::fmt::Debug for HookClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HookClock({})", self.time.now_us())
    }
}

impl Clock for HookClock {
    fn now_us(&self) -> u64 {
        self.time.now_us()
    }

    fn sleep_us(&self, us: u64) {
        self.time.sleep_us(us);
    }

    fn sleep_until(&self, deadline_us: u64) {
        let n = self.waits.fetch_add(1, Ordering::Relaxed) + 1;
        let due = self.armed.lock().take_if(|(at, _)| *at == n);
        if let Some((_, hook)) = due {
            hook();
        }
        self.time.sleep_until(deadline_us);
    }
}

/// The front end of the tests: every slice is read at its own last LSN
/// (capped by the caller's), and `repair` runs a scripted step per call.
#[derive(Default)]
struct Front {
    heads: Mutex<HashMap<SliceKey, Lsn>>,
    repairs: AtomicU64,
    /// What the n-th `repair` does and answers; past the script, `false`.
    script: Mutex<Vec<Box<dyn FnMut() -> bool + Send>>>,
}

impl FrontEnd for Front {
    fn snapshots(&self, keys: &[SliceKey], as_of: Option<Lsn>) -> Result<Vec<Lsn>> {
        let heads = self.heads.lock();
        let at = |key| as_of.map_or(heads[key], |lsn| lsn.min(heads[key]));
        Ok(keys.iter().map(at).collect())
    }

    fn repair(&self, _: SliceKey) -> bool {
        let n = self.repairs.fetch_add(1, Ordering::Relaxed) as usize;
        let mut script = self.script.lock();
        let _span = parking_lot::held_across_calls(
            "the script runs one repair step at a time; no Page Store handler takes a test lock",
        );
        script.get_mut(n).is_some_and(|step| step())
    }
}

struct Harness {
    clock: Arc<HookClock>,
    fabric: Fabric,
    pages: PageStoreCluster,
    me: NodeId,
    reader: SliceReader,
    front: Front,
    next_lsn: u64,
}

impl Harness {
    fn new(cfg: TaurusConfig) -> Harness {
        let clock = Arc::new(HookClock::default());
        let net = NetworkProfile {
            hop_us: HOP_US,
            ..NetworkProfile::instant()
        };
        let fabric = Fabric::new(clock.clone(), net, 19);
        let me = fabric.add_node(NodeKind::Compute);
        let pages = PageStoreCluster::new(
            fabric.clone(),
            cfg.page_replicas,
            PageStoreOptions::default(),
        );
        pages.spawn_servers(5, StorageProfile::instant());
        Harness {
            clock,
            fabric,
            reader: SliceReader::new(cfg, DbId(1), me, pages.clone()),
            pages,
            me,
            front: Front::default(),
            next_lsn: 1,
        }
    }

    fn key_of(&self, page: PageId) -> SliceKey {
        SliceKey::new(DbId(1), page.slice(TaurusConfig::test().pages_per_slice))
    }

    fn row(page: PageId, row: u64) -> RecordBody {
        RecordBody::Insert {
            idx: row as u16,
            key: Bytes::from(format!("k{:04}/{row:02}", page.0)),
            val: Bytes::from(format!("{}", page.0 * 100 + row)),
        }
    }

    /// The next fragment of `page`'s slice, and the slice's new head.
    fn fragment(&mut self, page: PageId, bodies: Vec<RecordBody>) -> SliceFragment {
        let key = self.key_of(page);
        let first = self.next_lsn;
        self.next_lsn += bodies.len() as u64;
        let records = (first..)
            .zip(bodies)
            .map(|(lsn, body)| LogRecord::new(Lsn(lsn), page, body));
        let head = Lsn(self.next_lsn - 1);
        let prev = self.front.heads.lock().insert(key, head);
        SliceFragment::new(key, prev.unwrap_or(Lsn::ZERO), records.collect())
    }

    fn deliver(&self, frag: &SliceFragment) {
        for node in self.pages.replicas_of(frag.slice) {
            self.pages.write_logs_to(node, self.me, frag).unwrap();
        }
    }

    /// Loads `first..first + n` as leaves on every replica of their slice
    /// (created on first use) and returns the page ids.
    fn load(&mut self, first: u64, n: u64) -> Vec<PageId> {
        let ids: Vec<PageId> = (first..first + n).map(PageId).collect();
        self.pages
            .create_slice(self.key_of(ids[0]), self.me)
            .unwrap();
        for &page in &ids {
            let mut leaf = vec![RecordBody::Format {
                ty: PageType::Leaf,
                level: 0,
            }];
            leaf.extend((0..ROWS_PER_PAGE).map(|row| Self::row(page, row)));
            let frag = self.fragment(page, leaf);
            self.deliver(&frag);
        }
        ids
    }

    /// Slice 0 with `a` pages and slice 1 with `b`, on different primaries.
    fn two_slices(cfg: TaurusConfig, a: u64, b: u64) -> (Harness, Vec<PageId>) {
        let pps = cfg.pages_per_slice;
        let mut h = Harness::new(cfg);
        let mut ids = h.load(1, a);
        ids.extend(h.load(pps + 1, b));
        let primary = |page| h.pages.replicas_of(h.key_of(page))[0];
        assert_ne!(primary(ids[0]), primary(PageId(pps + 1)), "pick a seed");
        // Interleave the slices: a plan groups by slice, not by input order.
        ids.sort_by_key(|id| (id.0 % pps, id.0));
        (h, ids)
    }

    fn read_page(&self, page: PageId) -> PageBuf {
        self.reader.read_page(&self.front, page, None).unwrap()
    }

    /// Runs `op` and returns its result, the rounds it took (virtual time:
    /// a round lasts one round trip) and the envelopes it sent.
    fn measured<T>(&self, op: impl FnOnce() -> T) -> (T, u64, u64) {
        let waits = || self.clock.waits.load(Ordering::Relaxed);
        let (t0, w0) = (self.clock.now_us(), waits());
        let out = op();
        let elapsed = self.clock.now_us() - t0;
        assert_eq!(
            elapsed % ROUND_TRIP_US,
            0,
            "{elapsed} µs is not whole rounds"
        );
        let rounds = elapsed / ROUND_TRIP_US;
        (out, rounds, waits() - w0 - rounds)
    }

    /// Takes `victim` down in the middle of the `n`-th wait from now.
    fn kill_at_wait(&self, n: u64, victim: NodeId) {
        let at = self.clock.waits.load(Ordering::Relaxed) + n;
        let fabric = self.fabric.clone();
        *self.clock.armed.lock() = Some((at, Box::new(move || fabric.set_down(victim))));
    }

    /// The whole run stayed on the calling thread.
    fn assert_pool_untouched(&self) {
        let snap = self.fabric.dispatch_snapshot();
        assert_eq!(
            (snap.workers, snap.pool_jobs, snap.max_queue_depth),
            (0, 0, 0),
            "{snap}"
        );
    }
}

#[test]
fn a_batch_finishes_in_rounds_of_grouped_envelopes_keeping_every_partial() {
    let cfg = TaurusConfig {
        read_batch_max_pages: 3,
        ..TaurusConfig::test()
    };
    let (h, ids) = Harness::two_slices(cfg, 7, 2);
    let (got, rounds, envelopes) =
        h.measured(|| h.reader.read_pages(&h.front, &ids, None).unwrap());
    // max(ceil(7/3), ceil(2/3)) rounds; both nodes in the first, then only
    // the one whose slot is still open.
    assert_eq!((rounds, envelopes), (3, 2 + 1 + 1));
    let batch = h.reader.read_batch_stats.snapshot();
    assert_eq!(batch.batch_rpcs, envelopes);
    assert_eq!((batch.pages_returned, batch.straggler_retries), (9, 0));
    assert_eq!(batch.batch_retries, 0);
    let sal = h.reader.stats.snapshot();
    assert_eq!((sal.grouped_envelopes, sal.grouped_slice_batches), (4, 4));
    assert_eq!(sal.grouped_fallback_slices, 1, "slots open after round one");
    // Exactly what N sequential single-page reads return, in request order.
    assert_eq!(got.len(), ids.len());
    for ((page, buf), &want) in got.iter().zip(&ids) {
        assert_eq!(*page, want);
        assert_eq!(buf.as_bytes(), h.read_page(want).as_bytes(), "{want}");
    }
    h.assert_pool_untouched();
}

#[test]
fn a_scan_continues_where_its_budget_stopped_and_never_rescans() {
    let cfg = TaurusConfig {
        ndp_scan_max_rows: 64,
        ..TaurusConfig::test()
    };
    let (h, ids) = Harness::two_slices(cfg, 5, 1);
    let head = Lsn(h.next_lsn);
    let req = ScanRequest::full().with_range(b"k0002", None);
    let (scan, rounds, envelopes) = h.measured(|| h.reader.scan(&h.front, &req, head).unwrap());
    // 64 rows are two pages: slice 0 takes ceil(5/2) calls, slice 1 one.
    assert_eq!((rounds, envelopes), (3, 2 + 1 + 1));
    let ndp = h.reader.ndp_stats.snapshot();
    assert_eq!(ndp.slice_calls, envelopes);
    assert_eq!((ndp.slice_retries, ndp.fallbacks), (0, 0));
    assert_eq!(ndp.pages_scanned, 6, "a page was scanned twice");
    assert_eq!(ndp.rows_scanned, 6 * ROWS_PER_PAGE);
    assert_eq!((scan.pushdown_slices, scan.fallback_slices), (2, 0));
    // The same request evaluated over pages fetched one by one.
    let mut reference = ScanAccumulator::default();
    for &page in &ids {
        evaluate_leaf_page(&h.read_page(page), &req, &mut reference).unwrap();
    }
    reference.rows.sort();
    assert_eq!(scan.rows, reference.rows);
    assert_eq!(scan.rows.len() as u64, 5 * ROWS_PER_PAGE);
    // Aggregate state merges across continuations like rows do.
    let count = ScanRequest::full().with_aggregate(Aggregate::Count);
    let counted = h.reader.scan(&h.front, &count, head).unwrap();
    assert_eq!(
        counted.agg.result(Aggregate::Count),
        Some(6 * ROWS_PER_PAGE)
    );
    h.assert_pool_untouched();
}

#[test]
fn a_replica_lost_between_continuation_rounds_restarts_the_slot_on_the_next_one() {
    let cfg = TaurusConfig {
        read_batch_max_pages: 3,
        ..TaurusConfig::test()
    };
    let (h, ids) = Harness::two_slices(cfg, 7, 2);
    let key = h.key_of(PageId(1));
    let order = h.reader.ordered_replicas(key);
    // Round one waits three times (two arrivals, one reply); the fourth
    // wait is round two's request in flight to slice 0's primary, which
    // dies under it with three pages already absorbed.
    let victim = order[0];
    h.kill_at_wait(4, victim);
    let t0 = h.clock.now_us();
    let got = h.reader.read_pages(&h.front, &ids, None).unwrap();
    // One round, the lost request's hop, and the slot again from its start.
    assert_eq!(
        h.clock.now_us() - t0,
        ROUND_TRIP_US + HOP_US + 3 * ROUND_TRIP_US
    );
    let batch = h.reader.read_batch_stats.snapshot();
    assert_eq!((batch.batch_rpcs, batch.batch_retries), (2 + 3, 1));
    // The dropped partial is not in the answer twice, nor re-read singly.
    assert_eq!((batch.pages_returned, batch.straggler_retries), (9, 0));
    let pages: Vec<PageId> = got.iter().map(|(page, _)| *page).collect();
    assert_eq!(pages, ids);
    h.fabric.set_up(victim);
    for (page, buf) in &got {
        assert_eq!(buf.as_bytes(), h.read_page(*page).as_bytes(), "{page}");
    }
    // The refusal's 4× penalty sank the node; the replica that served
    // three rounds since is measured and stays ahead of it.
    assert_eq!(
        h.reader.ordered_replicas(key),
        vec![order[1], order[2], victim]
    );
    assert_eq!(h.reader.stats.read_retries.get(), 0);
    h.assert_pool_untouched();
}

#[test]
fn every_rpc_feeds_the_ewma_and_a_refusal_costs_four_times_its_round() {
    let (h, ids) = Harness::two_slices(TaurusConfig::test(), 1, 1);
    let key = h.key_of(ids[0]);
    let order = h.reader.ordered_replicas(key);
    // Unmeasured replicas tie at the mean of the measured ones and keep
    // placement order; one 200 µs read measures the first.
    h.read_page(ids[0]);
    assert_eq!(h.reader.ordered_replicas(key), order);
    // It dies mid-flight: the refusal is charged 4 × its 100 µs (0.8·200 +
    // 0.2·400 = 240), which sinks it below the replica that then served in
    // 200 and the unmeasured one at their mean.
    let victim = order[0];
    h.kill_at_wait(1, victim);
    h.read_page(ids[0]);
    assert_eq!(h.reader.stats.read_retries.get(), 1);
    h.fabric.set_up(victim);
    assert_eq!(
        h.reader.ordered_replicas(key),
        vec![order[1], order[2], victim]
    );
    // Back up, it is still not first choice: no read pays the detour again.
    for _ in 0..5 {
        h.read_page(ids[0]);
    }
    assert_eq!(h.reader.stats.read_retries.get(), 1);
    h.assert_pool_untouched();
}

#[test]
fn an_exhausted_order_repairs_once_passes_once_more_and_then_falls_back() {
    let (mut h, ids) = Harness::two_slices(TaurusConfig::test(), 3, 1);
    let key = h.key_of(PageId(1));
    let replicas = h.pages.replicas_of(key);

    // A single-page read has no last resort: one repair, a second pass over
    // the refreshed order, then the last replica's own error.
    replicas.iter().for_each(|&n| h.fabric.set_down(n));
    h.front.script.lock().push(Box::new(|| true));
    let err = h.reader.read_page(&h.front, PageId(1), None).unwrap_err();
    assert!(
        matches!(err, TaurusError::NodeUnavailable(n) if n == replicas[2]),
        "{err}"
    );
    assert_eq!(h.front.repairs.swap(0, Ordering::Relaxed), 1);
    assert_eq!(h.reader.stats.read_retries.get(), 2 * 3);
    // A front end that cannot repair gets no second pass.
    h.front.script.lock().clear();
    assert!(h.reader.read_page(&h.front, PageId(1), None).is_err());
    assert_eq!(h.front.repairs.swap(0, Ordering::Relaxed), 1);
    assert_eq!(h.reader.stats.read_retries.get(), 3 * 3);
    replicas.iter().for_each(|&n| h.fabric.set_up(n));

    // A scan's last resort is a value. Slice 0's head moves to a fragment
    // no replica has: all three refuse `ScanSlice` (behind) in both passes
    // around a repair that changes nothing, so the slot falls back to
    // fetch-and-evaluate — whose first single-page read is refused too and
    // whose own repair finally delivers the fragment.
    let late = h.fragment(PageId(3), vec![Harness::row(PageId(3), ROWS_PER_PAGE)]);
    let (pages, me) = (h.pages.clone(), h.me);
    let deliver = move || {
        for node in pages.replicas_of(late.slice) {
            pages.write_logs_to(node, me, &late).unwrap();
        }
        true
    };
    *h.front.script.lock() = vec![Box::new(|| true), Box::new(deliver)];
    let head = Lsn(h.next_lsn);
    let scan = h.reader.scan(&h.front, &ScanRequest::full(), head).unwrap();
    assert_eq!(h.front.repairs.load(Ordering::Relaxed), 2);
    let ndp = h.reader.ndp_stats.snapshot();
    assert_eq!((ndp.slice_retries, ndp.fallbacks), (2 * 3, 1));
    assert_eq!(ndp.fallback_pages, 3);
    assert_eq!((scan.pushdown_slices, scan.fallback_slices), (1, 1));
    let mut reference = ScanAccumulator::default();
    for &page in &ids {
        evaluate_leaf_page(&h.read_page(page), &ScanRequest::full(), &mut reference).unwrap();
    }
    reference.rows.sort();
    assert_eq!(scan.rows, reference.rows);
    assert_eq!(scan.rows.len() as u64, 4 * ROWS_PER_PAGE + 1);
    h.assert_pool_untouched();
}

#[test]
fn a_two_slot_plan_with_a_dead_primary_takes_exactly_two_round_trips() {
    let (h, ids) = Harness::two_slices(TaurusConfig::test(), 2, 2);
    let key = h.key_of(PageId(1));
    let order = h.reader.ordered_replicas(key);
    h.fabric.set_down(order[0]);
    let (got, rounds, envelopes) =
        h.measured(|| h.reader.read_pages(&h.front, &ids, None).unwrap());
    // Round one: slice 0's envelope is refused at admission and costs
    // nothing, slice 1's is answered. Round two: slice 0 alone, on its
    // second replica.
    assert_eq!((rounds, envelopes), (2, 2));
    assert_eq!(got.len(), 4);
    let sal = h.reader.stats.snapshot();
    assert_eq!(sal.grouped_fallback_slices, 1);
    assert_eq!(h.reader.read_batch_stats.snapshot().batch_retries, 1);
    assert_eq!(h.reader.ordered_replicas(key)[2], order[0]);
    h.assert_pool_untouched();
}
