//! The read planner: how a database front end asks a slice for data.
//!
//! The paper's SAL is a library "embedded in the database front end" (§3.5)
//! and §4.2's versioned, latency-aware, fail-over-to-the-next-replica read is
//! how *any* front end — the master or a read replica (§6) — gets data from
//! a Page Store; the NDP follow-on plans `ScanSlice` through the same
//! routing. This module is that decision, written once:
//!
//! 1. **Resolve** the snapshot each slice is read at. Only this step differs
//!    between front ends, so it sits behind [`FrontEnd`]: the master pins
//!    its acked LSN or caps a global snapshot at the slice's flush LSN; a
//!    replica reads at its transaction-visible LSN.
//! 2. **Order** the slice's replicas by `(suspect, EWMA latency)`. The
//!    routing state lives here under its own leaf lock — never held across a
//!    fabric call, never nested over another lock.
//! 3. **Plan in rounds.** Every slice of a plan is a slot holding its
//!    replica order, the replica it is at, the continuation it owes and the
//!    answer so far. A round groups the open slots by their current replica
//!    into one fabric envelope per Page Store node (a one-slot round is a
//!    plain `Fabric::call`), all in flight together and all run on the
//!    submitting thread — no slice ever needs a thread of its own, and a
//!    plan is exact on a `ManualClock`: each round costs its longest leg.
//! 4. **Continue or fail over** per slot, on each reply: a finished one
//!    closes the slot; one that stopped at a budget keeps what it absorbed
//!    and rides the next round to the same replica; a refusal drops the
//!    partial answer (a reply stays a pure function of one replica's
//!    directory), moves the slot to its next replica, and feeds the EWMA a
//!    4× penalty — successes feed it their round trip — so a failing replica
//!    sinks instead of being retried first on every read.
//! 5. **Escalate** a slot whose order ran out: the front end's repair hook
//!    (the master repairs from the Log Stores and refreshes placement), one
//!    more pass over the refreshed replicas, then the request kind's last
//!    resort (single-page reads for a batch, fetch-and-evaluate for a
//!    scan). A version refused as recycled skips the repair — it is gone
//!    on purpose — and a head read (`as_of = None`) refused so re-plans
//!    once at the slice's current head: a recycle round overtook it.
//!
//! Steps 2–5 are one loop ([`SliceReader::run`]), generic over the three
//! request kinds (a single-page `ReadPage`, `ReadPages`, `ScanSlice`).

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

use taurus_common::clock::ClockRef;
use taurus_common::scan::{evaluate_leaf_page, AggState, ScanAccumulator, ScanRequest};
use taurus_common::{
    DbId, Lsn, NodeId, PageBuf, PageId, Result, SliceKey, TaurusConfig, TaurusError, PAGE_SIZE,
};
use taurus_pagestore::{
    PageReadOutcome, PageStoreCluster, ReadPagesRequest, ReadPagesResponse, ScanSliceRequest,
    ScanSliceResponse,
};

use crate::sal::{NdpStats, ReadBatchStats, SalStats};

/// What a front end tells the reader about its view of the database.
pub trait FrontEnd: Sync {
    /// The snapshot LSN each of `keys` is read at for a request at `as_of`
    /// (`None`: the newest version this front end may read).
    fn snapshots(&self, keys: &[SliceKey], as_of: Option<Lsn>) -> Result<Vec<Lsn>>;

    /// Every replica of `key` refused. Returns whether a repair was
    /// attempted (and placement re-learned), i.e. whether another round can
    /// do better.
    fn repair(&self, _key: SliceKey) -> bool {
        false
    }
}

/// Merged result of a pushed-down table scan: rows from every slice,
/// key-sorted, plus the combined aggregate state and a per-slice breakdown
/// of how each slice was executed.
#[derive(Clone, Debug, Default)]
pub struct TableScan {
    /// Projected matching rows, globally sorted by key.
    pub rows: Vec<(Vec<u8>, Vec<u8>)>,
    /// Combined aggregate state across all slices.
    pub agg: AggState,
    /// Slices answered by remote `ScanSlice` execution.
    pub pushdown_slices: usize,
    /// Slices that fell back to `ReadPage`-and-evaluate-locally.
    pub fallback_slices: usize,
}

/// Read-routing state (§4.2): what the reader has learned about replicas.
#[derive(Debug, Default)]
struct Routing {
    /// EWMA read latency (µs) per slice replica.
    latency_us: HashMap<(SliceKey, NodeId), f64>,
    /// Replica nodes the write pipeline demoted (retry budget exhausted) and
    /// that have not proven themselves alive since. Read last.
    suspects: HashSet<NodeId>,
}

/// Per node, the requests riding that node's one envelope; and the replies,
/// demuxed per request in input order.
type Envelopes<'a, Q> = [(NodeId, Vec<&'a Q>)];
type Replies<R> = Vec<Vec<Result<R>>>;

/// One request kind of the planner, implemented by its wire request: how a
/// round of it goes out, how a budget continuation follows, how replies
/// fold, and what to do when no replica can serve it.
trait Request: Sized {
    type Resp;
    /// One slice's finished answer.
    type Out;

    /// Issues one envelope per node and counts each one that came back as
    /// one round trip (and each refused request as a retry).
    fn call_grouped(r: &SliceReader, groups: &Envelopes<'_, Self>) -> Replies<Self::Resp>;

    /// The request that continues this one when `resp` stopped at a budget.
    fn next(&self, resp: &Self::Resp) -> Option<Self>;

    /// Folds an accepted reply into the slice's answer.
    fn absorb(r: &SliceReader, acc: Option<Self::Out>, resp: Self::Resp) -> Self::Out;

    /// Last resort once escalation ran out; `err` is the last replica error.
    /// By default there is none and the caller sees the real error (e.g.
    /// `VersionRecycled`).
    fn fallback(&self, _: &SliceReader, _: &dyn FrontEnd, err: TaurusError) -> Result<Self::Out> {
        Err(err)
    }
}

/// One slice's place in a plan (module docs, step 3).
struct Slot<Q: Request> {
    /// Replicas in routing order; `order[at]` is the one being asked.
    order: Vec<NodeId>,
    at: usize,
    /// The continuation owed to `order[at]` (`None`: the slice's first
    /// request) and what that replica's accepted replies add up to.
    pending: Option<Q>,
    acc: Option<Q::Out>,
    /// The last refusal, for the slot that every replica refuses.
    err: Option<TaurusError>,
    repaired: bool,
    /// Set once: the slot is closed.
    out: Option<Result<Q::Out>>,
}

/// `ReadPage`: one versioned page.
struct PageRead {
    key: SliceKey,
    page: PageId,
    as_of: Lsn,
}

impl Request for PageRead {
    type Resp = (PageBuf, Lsn);
    type Out = PageBuf;

    /// A single-page plan has one slot, so its round is one plain call.
    fn call_grouped(r: &SliceReader, groups: &Envelopes<'_, Self>) -> Replies<Self::Resp> {
        let call = |node, q: &Self| {
            r.pages
                .read_page_from(node, r.me, q.key, q.page, q.as_of)
                .inspect_err(|_| r.stats.read_retries.inc())
        };
        groups
            .iter()
            .map(|(node, reqs)| reqs.iter().map(|q| call(*node, q)).collect())
            .collect()
    }

    fn next(&self, _: &Self::Resp) -> Option<Self> {
        None
    }

    fn absorb(_: &SliceReader, _: Option<PageBuf>, resp: Self::Resp) -> PageBuf {
        resp.0
    }
}

/// `ReadPages`: one slice's share of a batched read.
impl Request for ReadPagesRequest {
    type Resp = ReadPagesResponse;
    type Out = Vec<(PageId, PageReadOutcome)>;

    fn call_grouped(r: &SliceReader, groups: &Envelopes<'_, Self>) -> Replies<Self::Resp> {
        let replies = r.pages.read_pages_grouped(r.me, groups);
        for slots in &replies {
            let failed = slots.iter().filter(|s| s.is_err()).count();
            if failed < slots.len() {
                // A grouped envelope is one miss-path round trip.
                let pages = slots.iter().flatten().map(|resp| resp.pages.len()).sum();
                r.read_batch_stats.note_rpc(pages);
            }
            r.read_batch_stats.batch_retries.add(failed as u64);
        }
        replies
    }

    fn next(&self, resp: &Self::Resp) -> Option<Self> {
        let i = resp.resume_from.filter(|&i| i < self.pages.len())?;
        let pages = self.pages[i..].to_vec();
        Some(ReadPagesRequest { pages, ..*self })
    }

    fn absorb(_: &SliceReader, acc: Option<Self::Out>, resp: Self::Resp) -> Self::Out {
        let mut acc = acc.unwrap_or_default();
        acc.extend(resp.pages);
        acc
    }
}

/// `ScanSlice`: one slice's share of a pushed-down table scan. A slice's
/// answer is a one-slice [`TableScan`].
impl Request for ScanSliceRequest {
    type Resp = ScanSliceResponse;
    type Out = TableScan;

    fn call_grouped(r: &SliceReader, groups: &Envelopes<'_, Self>) -> Replies<Self::Resp> {
        let replies = r.pages.scan_slices_grouped(r.me, groups);
        for slots in &replies {
            let failed = slots.iter().filter(|s| s.is_err()).count();
            if failed < slots.len() {
                // A grouped envelope is one `ScanSlice` round trip.
                r.ndp_stats.slice_calls.inc();
            }
            r.ndp_stats.slice_retries.add(failed as u64);
        }
        replies
    }

    fn next(&self, resp: &Self::Resp) -> Option<Self> {
        let resume_after = Some(resp.next_page?);
        Some(ScanSliceRequest {
            resume_after,
            ..self.clone()
        })
    }

    fn absorb(r: &SliceReader, acc: Option<TableScan>, resp: Self::Resp) -> TableScan {
        r.ndp_stats.rows_scanned.add(resp.rows_scanned);
        r.ndp_stats.rows_returned.add(resp.rows.len() as u64);
        r.ndp_stats.bytes_returned.add(resp.bytes_returned);
        r.ndp_stats.pages_scanned.add(resp.pages_scanned);
        let mut acc = acc.unwrap_or_default();
        acc.pushdown_slices = 1;
        acc.rows.extend(resp.rows);
        acc.agg.merge(&resp.agg);
        acc
    }

    /// Fetch every page of the slice through the versioned `ReadPage` path
    /// (which has its own repair-and-retry) and run the *same* shared
    /// evaluator locally. The page inventory is the union across reachable
    /// replicas, so a replica missing directory entries cannot silently
    /// shrink the scan.
    fn fallback(&self, r: &SliceReader, fe: &dyn FrontEnd, _: TaurusError) -> Result<TableScan> {
        r.ndp_stats.fallbacks.inc();
        let mut pages: BTreeSet<PageId> = BTreeSet::new();
        let mut reachable = false;
        for node in r.pages.replicas_of(self.key) {
            if let Ok(ids) = r.pages.page_ids_of(node, r.me, self.key) {
                reachable = true;
                pages.extend(ids);
            }
        }
        if !reachable {
            return Err(TaurusError::AllReplicasFailed(self.key));
        }
        let mut acc = ScanAccumulator::default();
        for page in pages {
            let buf = r.read_page(fe, page, Some(self.as_of))?;
            r.ndp_stats.fallback_pages.inc();
            r.ndp_stats.fallback_bytes.add(PAGE_SIZE as u64);
            evaluate_leaf_page(&buf, &self.req, &mut acc)?;
        }
        Ok(TableScan {
            rows: acc.rows,
            agg: acc.agg,
            pushdown_slices: 0,
            fallback_slices: 1,
        })
    }
}

/// The read planner of one front end (see the module docs). Owns the
/// routing state and the read-side counters.
pub struct SliceReader {
    db: DbId,
    /// The compute node this front end runs on.
    me: NodeId,
    cfg: TaurusConfig,
    clock: ClockRef,
    pages: PageStoreCluster,
    /// Leaf lock: taken for a lookup or an update, never across a fabric
    /// call or another lock.
    routing: Mutex<Routing>,
    /// Shared with the owning SAL, whose write pipeline counts its grouped
    /// `WriteLogs` envelopes in the same family.
    pub stats: Arc<SalStats>,
    pub ndp_stats: Arc<NdpStats>,
    pub read_batch_stats: Arc<ReadBatchStats>,
}

impl SliceReader {
    pub fn new(cfg: TaurusConfig, db: DbId, me: NodeId, pages: PageStoreCluster) -> Self {
        SliceReader {
            db,
            me,
            cfg,
            clock: pages.fabric.clock.clone(),
            pages,
            routing: Mutex::new_leaf(Routing::default()),
            stats: Arc::default(),
            ndp_stats: Arc::default(),
            read_batch_stats: Arc::default(),
        }
    }

    /// The slice's current replicas in preferred read order: healthy before
    /// suspect, then by EWMA latency. A replica with no recorded latency
    /// gets the mean of the known ones (not 0.0, which would always route
    /// the first read of every slice to an unmeasured — possibly failing —
    /// replica).
    pub fn ordered_replicas(&self, key: SliceKey) -> Vec<NodeId> {
        let mut nodes = self.pages.replicas_of(key);
        let routing = self.routing.lock();
        let latency = |n: &NodeId| routing.latency_us.get(&(key, *n)).copied();
        let known: Vec<f64> = nodes.iter().filter_map(latency).collect();
        let unknown_default = if known.is_empty() {
            0.0
        } else {
            known.iter().sum::<f64>() / known.len() as f64
        };
        let score = |n: &NodeId| {
            let us = latency(n).unwrap_or(unknown_default);
            (routing.suspects.contains(n), us)
        };
        nodes.sort_by(|a, b| {
            let order = score(a).partial_cmp(&score(b));
            order.unwrap_or(std::cmp::Ordering::Equal)
        });
        nodes
    }

    fn note_latency(&self, key: SliceKey, node: NodeId, us: u64) {
        let mut routing = self.routing.lock();
        let ewma = routing.latency_us.entry((key, node)).or_insert(us as f64);
        *ewma = 0.8 * *ewma + 0.2 * us as f64;
    }

    /// Demotes `node` to suspect (read last) or clears the mark. Returns
    /// whether that changed anything.
    pub fn set_suspect(&self, node: NodeId, suspect: bool) -> bool {
        let mut routing = self.routing.lock();
        if suspect {
            routing.suspects.insert(node)
        } else {
            routing.suspects.remove(&node)
        }
    }

    /// The nodes currently demoted to suspect.
    pub fn suspects(&self) -> Vec<NodeId> {
        self.routing.lock().suspects.iter().copied().collect()
    }

    /// `node` left `key`'s placement: its latency history is stale and its
    /// suspect mark must not shadow the replica that replaced it.
    pub fn forget_replica(&self, key: SliceKey, node: NodeId) {
        let mut routing = self.routing.lock();
        routing.latency_us.remove(&(key, node));
        routing.suspects.remove(&node);
    }

    /// `key` was garbage-collected: drop what was learned about it.
    pub fn forget_slice(&self, key: SliceKey) {
        self.routing.lock().latency_us.retain(|(k, _), _| *k != key);
    }

    /// Steps 2–5 for a plan (module docs): `reqs[i]` reads slice `keys[i]`
    /// and answers come back in that order. Each pass of the loop escalates
    /// the slots whose replica order ran out, then sends one round.
    fn run<Q: Request>(
        &self,
        fe: &dyn FrontEnd,
        keys: &[SliceKey],
        reqs: &[Q],
    ) -> Vec<Result<Q::Out>> {
        let slot = |&key: &SliceKey| Slot {
            order: self.ordered_replicas(key),
            at: 0,
            pending: None,
            acc: None,
            err: None,
            repaired: false,
            out: None,
        };
        let mut slots: Vec<Slot<Q>> = keys.iter().map(slot).collect();
        let multi = reqs.len() > 1;
        for round in 0.. {
            // The rare cascading-failure path of paper §4.2: "SAL recognizes
            // this situation and repairs data using Log Stores".
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.out.is_some() || slot.at < slot.order.len() {
                    continue;
                }
                // A recycled version was purged on purpose: no resend from
                // the Log Stores brings it back.
                let recycled = matches!(slot.err, Some(TaurusError::VersionRecycled { .. }));
                if !slot.repaired && !recycled && fe.repair(keys[i]) {
                    slot.repaired = true;
                    slot.order = self.ordered_replicas(keys[i]);
                    slot.at = 0;
                }
                if slot.at >= slot.order.len() {
                    let err = slot.err.take();
                    let err = err.unwrap_or(TaurusError::AllReplicasFailed(keys[i]));
                    slot.out = Some(reqs[i].fallback(self, fe, err));
                }
            }
            let mut groups: Vec<(NodeId, Vec<usize>)> = Vec::new();
            for (i, slot) in slots.iter().enumerate().filter(|(_, s)| s.out.is_none()) {
                let node = slot.order[slot.at];
                match groups.iter_mut().find(|(n, _)| *n == node) {
                    Some((_, idxs)) => idxs.push(i),
                    None => groups.push((node, vec![i])),
                }
            }
            if groups.is_empty() {
                break;
            }
            let riding = |i: usize| slots[i].pending.as_ref().unwrap_or(&reqs[i]);
            let envelopes: Vec<(NodeId, Vec<&Q>)> = groups
                .iter()
                .map(|(node, idxs)| (*node, idxs.iter().map(|&i| riding(i)).collect()))
                .collect();
            let start = self.clock.now_us();
            let replies = Q::call_grouped(self, &envelopes);
            // One EWMA sample per request per round, charged with the whole
            // round's elapsed time: envelopes are in flight together, so
            // this is the slowest one — an honest congestion signal for the
            // routing order. A refusal is charged 4×: a replica that errors
            // instantly must not keep the best (lowest) score and stay
            // first in the order, starving the healthy replicas.
            let elapsed = self.clock.now_us().saturating_sub(start);
            for ((node, idxs), replies) in groups.into_iter().zip(replies) {
                if multi {
                    self.stats.note_coalesced(idxs.len());
                }
                for (i, reply) in idxs.into_iter().zip(replies) {
                    let slot = &mut slots[i];
                    match reply {
                        Ok(resp) => {
                            self.note_latency(keys[i], node, elapsed);
                            slot.pending = slot.pending.as_ref().unwrap_or(&reqs[i]).next(&resp);
                            let acc = Q::absorb(self, slot.acc.take(), resp);
                            match slot.pending {
                                Some(_) => slot.acc = Some(acc),
                                None => slot.out = Some(Ok(acc)),
                            }
                        }
                        Err(e) => {
                            self.note_latency(keys[i], node, elapsed.max(1).saturating_mul(4));
                            (slot.err, slot.acc, slot.pending) = (Some(e), None, None);
                            slot.at += 1;
                        }
                    }
                }
            }
            if round == 0 && multi {
                let unfinished = slots.iter().filter(|s| s.out.is_none()).count();
                self.stats.grouped_fallback_slices.add(unfinished as u64);
            }
        }
        // The loop ended because no slot was open.
        slots.into_iter().filter_map(|slot| slot.out).collect()
    }

    /// Reads the version of `page` at `as_of` (see `Sal::read_page`).
    pub fn read_page(
        &self,
        fe: &dyn FrontEnd,
        page: PageId,
        as_of: Option<Lsn>,
    ) -> Result<PageBuf> {
        self.stats.page_reads.inc();
        let attempt = || {
            // Route by placement *and* snapshot: after an elastic cut-over
            // the version at `as_of` may live on a retired slice (`as_of` at
            // or below its fence) rather than the active successor.
            let pps = self.cfg.pages_per_slice;
            let key = self.pages.route_read(self.db, page, pps, as_of);
            let as_of = fe.snapshots(&[key], as_of)?[0];
            let one = self.run(fe, &[key], &[PageRead { key, page, as_of }]).pop();
            one.unwrap_or(Err(TaurusError::AllReplicasFailed(key)))
        };
        let out = match attempt() {
            Err(TaurusError::SliceFenced { .. })
            | Err(TaurusError::PlacementEpochMismatch { .. }) => {
                // Raced an elastic cut-over: the slice we routed to was
                // sealed (or our epoch went stale) between routing and the
                // RPC. Escalation already re-learned placement through the
                // repair hook; route once more.
                self.stats.read_retries.inc();
                attempt()
            }
            Err(TaurusError::VersionRecycled { .. }) if as_of.is_none() => {
                // A head read whose snapshot a recycle round overtook: the
                // slice moved on meanwhile, and its current head is what
                // the caller asked for.
                self.stats.read_retries.inc();
                attempt()
            }
            other => other,
        };
        if out.is_ok() {
            self.stats.slice_read_ops.inc();
            self.stats.slice_read_bytes.add(PAGE_SIZE as u64);
        }
        out
    }

    /// Reads many pages at one snapshot: the ids are grouped by slice and
    /// the per-slice `ReadPages` requests run through the pipeline. Pages a
    /// batch could not serve (per-page failures, or every replica refusing
    /// the slice) are retried individually through [`Self::read_page`] — so
    /// the call returns exactly what N sequential `read_page` calls at the
    /// same `as_of` would, in request order.
    pub fn read_pages(
        &self,
        fe: &dyn FrontEnd,
        ids: &[PageId],
        as_of: Option<Lsn>,
    ) -> Result<Vec<(PageId, PageBuf)>> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        self.read_batch_stats.batches.inc();
        self.read_batch_stats.pages_requested.add(ids.len() as u64);
        // Group by slice, keeping first-seen order and dropping duplicates.
        let mut reqs: Vec<ReadPagesRequest> = Vec::new();
        for &page in ids {
            let pps = self.cfg.pages_per_slice;
            let key = self.pages.route_read(self.db, page, pps, as_of);
            let i = reqs.iter().position(|q| q.key == key).unwrap_or_else(|| {
                reqs.push(ReadPagesRequest {
                    key,
                    as_of: Lsn::ZERO,
                    pages: Vec::new(),
                    max_pages: self.cfg.read_batch_max_pages,
                });
                reqs.len() - 1
            });
            if !reqs[i].pages.contains(&page) {
                reqs[i].pages.push(page);
            }
        }
        let keys: Vec<SliceKey> = reqs.iter().map(|q| q.key).collect();
        for (req, snapshot) in reqs.iter_mut().zip(fe.snapshots(&keys, as_of)?) {
            req.as_of = snapshot;
        }
        let mut got: HashMap<PageId, PageBuf> = HashMap::with_capacity(ids.len());
        for (req, outcomes) in reqs.iter().zip(self.run(fe, &keys, &reqs)) {
            // A slice no replica served contributes nothing: every page of
            // it is a straggler below.
            for (page, outcome) in outcomes.unwrap_or_default() {
                match outcome {
                    PageReadOutcome::Ok(buf, _) => {
                        self.read_batch_stats.pages_returned.inc();
                        got.insert(page, buf);
                    }
                    PageReadOutcome::Recycled { .. } | PageReadOutcome::Failed(_) => {
                        self.read_batch_stats.partial_failures.inc();
                    }
                }
            }
            for &page in &req.pages {
                if let Entry::Vacant(missing) = got.entry(page) {
                    // Straggler: the single-page path repairs if it can and
                    // surfaces the real per-page error (e.g.
                    // `VersionRecycled`) when nothing can serve it. A head
                    // read stays one, so it re-plans at the head as well.
                    self.read_batch_stats.straggler_retries.inc();
                    let at = as_of.map(|_| req.as_of);
                    missing.insert(self.read_page(fe, page, at)?);
                }
            }
        }
        // Request order, duplicates included (each gets its own copy).
        ids.iter()
            .map(|page| match got.get(page) {
                Some(buf) => Ok((*page, buf.clone())),
                None => Err(TaurusError::Internal("batched read lost a page".into())),
            })
            .collect()
    }

    /// Plans and executes a pushed-down table scan at snapshot `as_of`: one
    /// `ScanSlice` request per active slice of the database, run through the
    /// pipeline, merged and key-sorted. Retired cut-over parents are not
    /// scanned: their successors cover the key range at every scannable
    /// snapshot, and scanning both would double-count the ingest overlap.
    /// (Historical scans below a successor's base LSN are out of scope —
    /// point reads route by fence via `route_read`.)
    pub fn scan(&self, fe: &dyn FrontEnd, req: &ScanRequest, as_of: Lsn) -> Result<TableScan> {
        self.ndp_stats.pushdown_scans.inc();
        let mut keys = self.pages.slices();
        keys.retain(|k| k.db == self.db);
        let reqs: Vec<ScanSliceRequest> = keys
            .iter()
            .zip(fe.snapshots(&keys, Some(as_of))?)
            .map(|(&key, as_of)| ScanSliceRequest {
                key,
                as_of,
                req: req.clone(),
                resume_after: None,
                max_rows: self.cfg.ndp_scan_max_rows,
                max_bytes: self.cfg.ndp_scan_max_bytes,
            })
            .collect();
        let mut out = TableScan::default();
        for slice in self.run(fe, &keys, &reqs) {
            let slice = slice?;
            out.pushdown_slices += slice.pushdown_slices;
            out.fallback_slices += slice.fallback_slices;
            out.rows.extend(slice.rows);
            out.agg.merge(&slice.agg);
        }
        // At one snapshot LSN, leaf pages partition the key space across
        // slices, so keys are globally unique — a plain sort restores the
        // B-tree scan order.
        out.rows.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }
}
