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
//! 4. **Continue, close or fail over** per slot, on each reply: a finished
//!    one closes the slot; one that stopped at a budget keeps what it
//!    absorbed and rides the next round to the same replica; a version
//!    answered as recycled closes the slot with that error — every replica
//!    agrees on it, so it is an answer, not a refusal; a refusal drops the
//!    partial answer (a reply stays a pure function of one replica's
//!    directory), moves the slot to its next replica, and feeds the EWMA a
//!    4× penalty — answers feed it their round trip — so a failing replica
//!    sinks instead of being retried first on every read.
//! 5. **Escalate** a slot whose order ran out: the front end's repair hook
//!    (the master repairs from the Log Stores and refreshes placement), one
//!    more pass over the refreshed replicas, then the request kind's last
//!    resort (fetch-and-evaluate for a scan; none for pages).
//!
//! Steps 2–5 are one loop ([`SliceReader::run`]), generic over the two
//! request kinds: `ReadPages` (a single-page read is a one-page plan of
//! it) and `ScanSlice`. After a head-read page plan, the pages answered
//! recycled get one re-resolved plan ([`SliceReader::read_pages`]).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

use taurus_common::clock::ClockRef;
use taurus_common::scan::{evaluate_leaf_page, AggState, ScanAccumulator, ScanRequest};
use taurus_common::{
    DbId, Lsn, NodeId, PageBuf, PageId, Result, SliceKey, TaurusConfig, TaurusError, PAGE_SIZE,
};
use taurus_pagestore::{
    PageStoreCluster, ReadPagesRequest, ReadPagesResponse, ScanSliceRequest, ScanSliceResponse,
};

use crate::stats::{NdpStats, ReadBatchStats, SalStats};

/// Per-`ScanSlice`-call byte budget for pushdown result payloads, checked
/// together with `ndp_scan_max_rows` at page granularity: a Page Store
/// stops after the page that crosses either budget and returns a
/// continuation.
const NDP_SCAN_MAX_BYTES: usize = 256 << 10;

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
    /// Slices that fell back to `ReadPages`-and-evaluate-locally.
    pub fallback_slices: usize,
}

/// Read-routing state (§4.2): what the reader has learned about replicas.
#[derive(Debug, Default)]
struct Routing {
    /// EWMA read latency (µs) per slice replica.
    latency_us: HashMap<(SliceKey, NodeId), f64>,
    /// Replica nodes the write pipeline demoted (a send to them failed, or
    /// their send queue was abandoned at admission) and that have not
    /// proven themselves alive since. Read last.
    suspects: HashSet<NodeId>,
}

/// Per node, the requests riding that node's one envelope; and the replies,
/// demuxed per request in input order.
type Envelopes<'a, Q> = [(NodeId, Vec<&'a Q>)];
type Replies<R> = Vec<Vec<Result<R>>>;

/// Whether a reply is a refusal: anything but an answer. A recycled version
/// is an answer every replica would give (`PageStoreServer::read_gate`).
fn refused<R>(reply: &Result<R>) -> bool {
    matches!(reply, Err(e) if !matches!(e, TaurusError::VersionRecycled { .. }))
}

/// Which entry point a page plan serves, and so which counters it feeds:
/// `read_page` counts in [`SalStats`], `read_pages` in [`ReadBatchStats`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Caller {
    ReadPage,
    ReadPages,
}

/// One request kind of the planner, implemented by its wire request: how a
/// budget continuation follows, how replies fold, and what to do when no
/// replica can serve it.
trait Request: Sized {
    type Resp;
    /// One slice's finished answer.
    type Out;

    /// The request that continues this one when `resp` stopped at a budget.
    fn next(&self, resp: &Self::Resp) -> Option<Self>;

    /// Folds an accepted reply into the slice's answer.
    fn absorb(r: &SliceReader, acc: Option<Self::Out>, resp: Self::Resp) -> Self::Out;

    /// Last resort once escalation ran out; `err` is the last replica error.
    /// By default there is none and the caller sees the real error.
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

/// `ReadPages`: one slice's share of a page plan.
impl Request for ReadPagesRequest {
    type Resp = ReadPagesResponse;
    type Out = Vec<(PageId, PageBuf, Lsn)>;

    fn next(&self, resp: &Self::Resp) -> Option<Self> {
        let i = resp.resume_from.filter(|&i| i < self.pages.len())?;
        let pages = self.pages[i..].to_vec();
        Some(ReadPagesRequest { pages, ..*self })
    }

    fn absorb(_: &SliceReader, acc: Option<Self::Out>, resp: Self::Resp) -> Self::Out {
        match acc {
            Some(mut acc) => {
                acc.extend(resp.pages);
                acc
            }
            None => resp.pages,
        }
    }
}

/// `ScanSlice`: one slice's share of a pushed-down table scan. A slice's
/// answer is a one-slice [`TableScan`].
impl Request for ScanSliceRequest {
    type Resp = ScanSliceResponse;
    type Out = TableScan;

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

    /// Fetch every page of the slice in one page plan and run the *same*
    /// shared evaluator locally. The page inventory is the union across
    /// reachable replicas, so a replica missing directory entries cannot
    /// silently shrink the scan.
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
        let pages: Vec<PageId> = pages.into_iter().collect();
        let mut acc = ScanAccumulator::default();
        for (_, buf) in r.read_pages(fe, &pages, Some(self.as_of))? {
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

    /// Steps 2–5 for a plan (module docs): `reqs[i]` reads slice `keys[i]`
    /// and answers come back in that order; `send` sends one round's
    /// envelopes and counts them. Each pass of the loop escalates the slots
    /// whose replica order ran out, then sends one round.
    fn run<Q: Request>(
        &self,
        fe: &dyn FrontEnd,
        keys: &[SliceKey],
        reqs: &[Q],
        send: impl Fn(&Envelopes<'_, Q>) -> Replies<Q::Resp>,
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
                if !slot.repaired && fe.repair(keys[i]) {
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
            let replies = send(&envelopes);
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
                    let resp = match reply {
                        Ok(resp) => resp,
                        Err(e @ TaurusError::VersionRecycled { .. }) => {
                            self.note_latency(keys[i], node, elapsed);
                            slot.out = Some(Err(e));
                            continue;
                        }
                        Err(e) => {
                            self.note_latency(keys[i], node, elapsed.max(1).saturating_mul(4));
                            (slot.err, slot.acc, slot.pending) = (Some(e), None, None);
                            slot.at += 1;
                            continue;
                        }
                    };
                    self.note_latency(keys[i], node, elapsed);
                    slot.pending = slot.pending.as_ref().unwrap_or(&reqs[i]).next(&resp);
                    let acc = Q::absorb(self, slot.acc.take(), resp);
                    match slot.pending {
                        Some(_) => slot.acc = Some(acc),
                        None => slot.out = Some(Ok(acc)),
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

    /// One round of `ReadPages` envelopes, counted in `caller`'s family: a
    /// refused request is a retry, and for `read_pages` an envelope that
    /// came back is one miss-path round trip.
    fn pages_round(
        &self,
        groups: &Envelopes<'_, ReadPagesRequest>,
        caller: Caller,
    ) -> Replies<ReadPagesResponse> {
        let replies = self.pages.read_pages_grouped(self.me, groups);
        for slots in &replies {
            let failed = slots.iter().filter(|s| refused(s)).count() as u64;
            if caller == Caller::ReadPage {
                self.stats.read_retries.add(failed);
                continue;
            }
            if failed < slots.len() as u64 {
                let pages = slots.iter().flatten().map(|resp| resp.pages.len()).sum();
                self.read_batch_stats.note_rpc(pages);
            }
            self.read_batch_stats.batch_retries.add(failed);
        }
        replies
    }

    /// One round of `ScanSlice` envelopes: an envelope that came back is one
    /// `ScanSlice` round trip, a refused request a retry.
    fn scan_round(&self, groups: &Envelopes<'_, ScanSliceRequest>) -> Replies<ScanSliceResponse> {
        let replies = self.pages.scan_slices_grouped(self.me, groups);
        for slots in &replies {
            let failed = slots.iter().filter(|s| refused(s)).count();
            if failed < slots.len() {
                self.ndp_stats.slice_calls.inc();
            }
            self.ndp_stats.slice_retries.add(failed as u64);
        }
        replies
    }

    /// Reads the version of `page` at `as_of` (see `Sal::read_page`): a
    /// one-page plan of [`Self::read_pages`], counted in [`SalStats`].
    pub fn read_page(
        &self,
        fe: &dyn FrontEnd,
        page: PageId,
        as_of: Option<Lsn>,
    ) -> Result<PageBuf> {
        self.stats.page_reads.inc();
        let mut got = self.plan_pages(fe, &[page], as_of, Caller::ReadPage)?;
        got.remove(&page).ok_or_else(|| lost(page))
    }

    /// Reads many pages at one snapshot: the distinct ids are grouped by
    /// slice into one `ReadPages` request each, and the requests run as one
    /// plan. Returns exactly what N sequential [`Self::read_page`] calls at
    /// the same `as_of` would, in request order.
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
        let mut seen = HashSet::with_capacity(ids.len());
        let distinct: Vec<PageId> = ids.iter().copied().filter(|&p| seen.insert(p)).collect();
        let got = self.plan_pages(fe, &distinct, as_of, Caller::ReadPages)?;
        // Request order, duplicates included (each gets its own copy).
        ids.iter()
            .map(|&page| Ok((page, got.get(&page).ok_or_else(|| lost(page))?.clone())))
            .collect()
    }

    /// The plan behind [`Self::read_page`] and [`Self::read_pages`]: `pages`
    /// (distinct, in request order) grouped by slice, one `ReadPages`
    /// request per slice, run through [`Self::run`]. On a head read, the
    /// pages answered recycled get one re-resolved plan: a recycle round
    /// overtook the snapshot, and the slice's current head is what the
    /// caller asked for.
    /// Any other unserved page fails the call with its slice's error — the
    /// first such page in request order, where N sequential single-page
    /// reads would have stopped.
    fn plan_pages(
        &self,
        fe: &dyn FrontEnd,
        pages: &[PageId],
        as_of: Option<Lsn>,
        caller: Caller,
    ) -> Result<HashMap<PageId, PageBuf>> {
        let batch = caller == Caller::ReadPages;
        let mut got = HashMap::with_capacity(pages.len());
        let mut failed: Vec<(Vec<PageId>, TaurusError)> = Vec::new();
        let mut todo = Vec::new();
        for replan in [false, true] {
            let mut reqs: Vec<ReadPagesRequest> = Vec::new();
            for &page in if replan { &todo[..] } else { pages } {
                let key = SliceKey::new(self.db, page.slice(self.cfg.pages_per_slice));
                match reqs.iter_mut().find(|q| q.key == key) {
                    Some(q) => q.pages.push(page),
                    None => reqs.push(ReadPagesRequest {
                        key,
                        as_of: Lsn::ZERO,
                        pages: vec![page],
                        max_pages: self.cfg.read_batch_max_pages,
                    }),
                }
            }
            let keys: Vec<SliceKey> = reqs.iter().map(|q| q.key).collect();
            for (req, snapshot) in reqs.iter_mut().zip(fe.snapshots(&keys, as_of)?) {
                req.as_of = snapshot;
            }
            let outs = self.run(fe, &keys, &reqs, |groups| self.pages_round(groups, caller));
            let mut again = HashSet::new();
            for (req, out) in reqs.into_iter().zip(outs) {
                let err = match out {
                    Ok(read) => {
                        if batch {
                            self.read_batch_stats.pages_returned.add(read.len() as u64);
                        }
                        got.extend(read.into_iter().map(|(page, buf, _)| (page, buf)));
                        continue;
                    }
                    Err(err) => err,
                };
                let recycled = matches!(err, TaurusError::VersionRecycled { .. });
                if !replan && recycled && as_of.is_none() {
                    again.extend(req.pages);
                    continue;
                }
                if recycled && batch {
                    let pages = req.pages.len() as u64;
                    self.read_batch_stats.partial_failures.add(pages);
                }
                failed.push((req.pages, err));
            }
            if again.is_empty() {
                break;
            }
            todo = pages
                .iter()
                .copied()
                .filter(|p| again.contains(p))
                .collect();
            match caller {
                Caller::ReadPage => self.stats.read_retries.inc(),
                Caller::ReadPages => {
                    let n = todo.len() as u64;
                    self.read_batch_stats.straggler_retries.add(n);
                }
            }
        }
        let Some(&first) = pages.iter().find(|page| !got.contains_key(page)) else {
            return Ok(got);
        };
        let err = failed.into_iter().find(|(of, _)| of.contains(&first));
        Err(err.map_or_else(|| lost(first), |(_, err)| err))
    }

    /// Plans and executes a pushed-down table scan at snapshot `as_of`: one
    /// `ScanSlice` request per slice of the database, run through the
    /// pipeline, merged and key-sorted.
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
                max_bytes: NDP_SCAN_MAX_BYTES,
            })
            .collect();
        let mut out = TableScan::default();
        for slice in self.run(fe, &keys, &reqs, |groups| self.scan_round(groups)) {
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

/// What a page plan never does: leave a page with neither an image nor an
/// error (see [`SliceReader::plan_pages`]).
fn lost(page: PageId) -> TaurusError {
    TaurusError::Internal(format!("a page plan lost {page}"))
}
