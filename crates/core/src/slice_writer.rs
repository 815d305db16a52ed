//! The slice writer: the one way log records that are durable on the Log
//! Stores reach a Page Store slice replica.
//!
//! The paper has a single primitive for that job — "read them from the Log
//! Stores and resend; Page Stores disregard records they already have" —
//! and uses it for the steady-state write (§4.1 steps 4–6), for
//! persistent-LSN regression and stall repair (§5.2, Fig. 4(b)/(c)) and for
//! SAL restart redo (§5.3). This module is that primitive, written once as
//! two functions on [`Sal`]:
//!
//! * [`Sal::ship`] delivers a run of fragments to one replica node: one
//!   epoch-checked grouped envelope per attempt, failed slots re-sent as a
//!   shrinking run under a single backoff budget; a placement race refreshes
//!   and parks, an exhausted budget parks and demotes the replica to
//!   *suspect* (deprioritized for reads until it proves itself alive).
//! * [`Sal::redo`] brings the lagging replicas of a set of slices up to
//!   their flush LSN: one merged log read, one partition by ownership
//!   filter, one fragment per lagging replica chained at that replica's own
//!   persistent LSN, delivered through `ship`.
//!
//! Steady state feeds `ship` from one bounded queue **per Page Store replica
//! node**, drained by at most one detached job on the fabric's bounded
//! dispatcher (DESIGN.md §15). Repair, restart recovery and cut-over delta
//! replay call `redo`. Slices owed a repair sit in the *parked* set, emptied
//! by a **non-reentrant, bounded drain** ([`Sal::repair_parked`]): whoever
//! wants a repair while one runs leaves a "go round again" mark instead of
//! nesting a second one, so repair depth is 1 by construction.
//!
//! Locks: `pipes` and `parked` are leaves below `sal::state` — never held
//! across a fabric call, and never across each other.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::Rng;

use taurus_common::metrics::Gauge;
use taurus_common::{LogRecord, LogRecordGroup, Lsn, NodeId, Result, SliceKey, TaurusError};
use taurus_pagestore::{IngestFilter, SliceFragment};

use crate::sal::{Sal, SliceState};

/// One fragment awaiting shipment to one replica. The fragment is shared
/// (`Arc`) across all replica pipes — the send path performs one encode
/// and zero deep clones per flush.
struct PipeJob {
    key: SliceKey,
    frag: Arc<SliceFragment>,
}

/// Longest run of fragments one grouped `WriteLogs` envelope may carry.
/// Bounds the latency a late-queued fragment can hide behind while still
/// collapsing bursts into few round trips.
const GROUPED_SHIP_MAX: usize = 8;

/// Passes one repair drain may run before it hands its thread back. A
/// re-run means replicas came back (or placement moved) *during* a pass;
/// under sustained overload that never stops, and whatever is still parked
/// is picked up by the next tick, recovery round or resurrection.
const DRAIN_MAX_PASSES: usize = 4;

/// The send pipe to one Page Store replica node: a bounded queue drained by
/// at most one detached fabric-dispatcher job at a time (per-node FIFO). A
/// slow or dead replica fills its own queue and loses fragments to
/// shedding; it cannot stall other replicas, grow an unbounded backlog, or
/// pin an idle OS thread.
#[derive(Default)]
struct PipeState {
    queue: VecDeque<PipeJob>,
    /// Whether a drain job for this node is live (queued or running on the
    /// dispatcher). At most one at a time keeps shipment per-node FIFO.
    draining: bool,
    in_flight: Gauge,
}

/// Slices owed a repair from the Log Stores — a fragment of theirs was shed
/// or abandoned, or their placement moved under a send — and the claim on
/// the drain that empties the set.
#[derive(Default)]
struct Parked {
    keys: HashSet<SliceKey>,
    /// Some thread owns the drain (or a detached job that will is queued).
    draining: bool,
    /// Someone asked for a repair while the drain was claimed.
    again: bool,
}

/// Writer-side state of a [`Sal`], outside `SalState` so the ack path and
/// the flush path never contend on `sal::state` for it. `pipes` and
/// `parked` are leaf locks: nothing is taken while one is held.
pub(crate) struct SliceWriter {
    /// One send pipe per Page Store replica node, created on first use.
    pipes: Mutex<HashMap<NodeId, PipeState>>,
    parked: Mutex<Parked>,
    /// Signalled when the drain is released. Paired with `parked`.
    drained: Condvar,
}

impl SliceWriter {
    pub(crate) fn new() -> Self {
        SliceWriter {
            pipes: Mutex::new_leaf(HashMap::new()),
            parked: Mutex::new_leaf(Parked::default()),
            drained: Condvar::new(),
        }
    }

    /// Claims the drain for the caller. While it is claimed elsewhere a
    /// caller that will `wait` blocks until it is released (the drain's
    /// owner never waits on anything a repairer holds); one that will not
    /// leaves the mark that sends the owner round again.
    fn claim_drain(&self, wait: bool) -> bool {
        let mut p = self.parked.lock();
        while p.draining {
            if !wait {
                p.again = true;
                return false;
            }
            self.drained.wait(&mut p);
        }
        p.draining = true;
        true
    }
}

/// One slice `redo` is working on.
struct Target {
    key: SliceKey,
    filter: IngestFilter,
    flush_lsn: Lsn,
    /// Reachable replicas with the persistent LSN each just reported.
    replicas: Vec<(NodeId, Lsn)>,
    records: Vec<LogRecord>,
}

impl Sal {
    /// Queues `frag` for every replica in `nodes`; when no drain job is live
    /// for a node one is submitted to the dispatcher (it captures only a
    /// `Weak` SAL handle, so a queued drain never keeps a torn-down
    /// deployment alive). A replica whose queue is full loses the fragment
    /// (shedding): the slice is parked and the replica demoted, so one slow
    /// node cannot grow an unbounded backlog. Called under `state`; never
    /// blocks — the foreground write path must not wait on a slow replica —
    /// and starts no repair (the node's drainer is busy with a full queue).
    pub(crate) fn submit(&self, key: SliceKey, nodes: &[NodeId], frag: &Arc<SliceFragment>) {
        for &node in nodes {
            let (queued, start_drainer) = {
                let mut pipes = self.writer.pipes.lock();
                let pipe = pipes.entry(node).or_default();
                let queued = pipe.queue.len() < self.cfg.sal_send_queue_depth;
                if queued {
                    let frag = Arc::clone(frag);
                    pipe.queue.push_back(PipeJob { key, frag });
                }
                (
                    queued,
                    queued && !std::mem::replace(&mut pipe.draining, true),
                )
            };
            if start_drainer {
                let weak = self.myself.clone();
                self.pages.fabric.spawn_detached(move || {
                    if let Some(sal) = weak.upgrade() {
                        sal.drain_pipe(node);
                    }
                });
            }
            if !queued {
                self.stats.queue_full_drops.inc();
                self.abandon(node, key);
            }
        }
    }

    /// Drains one replica node's pipe on a dispatcher worker until the
    /// queue is empty, then clears `draining` and exits (the next enqueue
    /// submits a fresh job). One drainer per node keeps shipment per-node
    /// FIFO; a queued run rides one grouped envelope.
    fn drain_pipe(&self, node: NodeId) {
        let mut rng = self.jitter_rng(node);
        loop {
            let run: Vec<PipeJob> = {
                let mut pipes = self.writer.pipes.lock();
                let Some(pipe) = pipes.get_mut(&node) else {
                    return;
                };
                if pipe.queue.is_empty() {
                    pipe.draining = false;
                    return;
                }
                let take = pipe.queue.len().min(GROUPED_SHIP_MAX);
                pipe.in_flight.add(take as u64);
                pipe.queue.drain(..take).collect()
            };
            let n = run.len() as u64;
            self.ship(node, run, &mut rng);
            if let Some(pipe) = self.writer.pipes.lock().get(&node) {
                pipe.in_flight.sub(n);
            }
        }
    }

    /// Retry jitter for sends to `node`, derived from the fabric seed and
    /// the node id: draws never touch the shared placement stream, so retry
    /// storms do not perturb placement determinism.
    fn jitter_rng(&self, node: NodeId) -> StdRng {
        self.pages.fabric.derive_rng(0x5A4C_0000 ^ node.0)
    }

    /// Delivers `run` to `node`: one epoch-checked grouped envelope per
    /// attempt, the slots that failed re-sent as a shrinking run with
    /// exponential backoff + seeded jitter up to the configured budget.
    /// Safe to re-send: Page Stores disregard duplicate log records.
    /// Returns how many fragments the node acknowledged.
    fn ship(&self, node: NodeId, mut run: Vec<PipeJob>, rng: &mut StdRng) -> usize {
        let (mut delivered, mut raced, mut attempt) = (0usize, false, 0u32);
        loop {
            // Epochs are read at attempt time, so a refresh between attempts
            // is picked up (DESIGN.md §14).
            let frags = {
                let st = self.state.lock();
                let epoch = |j: &PipeJob| st.slices.get(&j.key).map_or(0, |s| s.epoch);
                run.iter()
                    .map(|j| (Arc::clone(&j.frag), epoch(j)))
                    .collect()
            };
            self.stats.note_coalesced(run.len());
            let groups = [(node, frags)];
            let mut slots = self.pages.write_logs_grouped(self.me, &groups).remove(0);
            // Demux in order; a short (impossible) response fails the tail.
            slots.resize_with(run.len(), || Err(TaurusError::NodeUnavailable(node)));
            let mut failed = Vec::new();
            for (job, slot) in run.into_iter().zip(slots) {
                match slot {
                    Ok(persistent) => {
                        self.on_write_ack(job.key, node, job.frag.last_lsn(), persistent);
                        delivered += 1;
                    }
                    // The slice moved (or was sealed) under this send — a
                    // placement race, not a replica-health problem: no
                    // suspect demotion, no backoff. The repair drain
                    // re-ships the records through the current owners.
                    Err(TaurusError::PlacementEpochMismatch { .. })
                    | Err(TaurusError::SliceFenced { .. }) => {
                        self.stats.fragments_parked.inc();
                        self.writer.parked.lock().keys.insert(job.key);
                        raced = true;
                    }
                    Err(_) => failed.push(job),
                }
            }
            run = failed;
            if run.is_empty() {
                break;
            }
            if attempt >= self.cfg.sal_write_retry_limit {
                // Budget spent. Durability is already guaranteed by the Log
                // Stores; the slices are parked for repair-from-log instead
                // of waiting for the stall detector to notice the gap.
                run.iter().for_each(|job| self.abandon(node, job.key));
                break;
            }
            attempt += 1;
            self.stats.write_retries.inc();
            self.stats.grouped_fallback_slices.add(run.len() as u64);
            let base = self.cfg.sal_write_backoff_us.max(1);
            let backoff = base.saturating_mul(1u64 << (attempt - 1).min(16));
            let jitter = rng.random_range(0..=(base / 2).max(1));
            self.clock.sleep_us(backoff.saturating_add(jitter));
        }
        if raced {
            self.refresh_placement();
            self.request_drain();
        }
        if delivered > 0 {
            self.note_replica_alive(node);
        }
        delivered
    }

    /// Resends to every lagging replica of `keys` exactly what it is
    /// missing, chained at that replica's own persistent LSN so the
    /// fragment connects (Fig. 4(b)/(c)). Returns the fragments delivered.
    ///
    /// A slice owes its replicas everything up to its flush LSN. With
    /// `window == None` that is read from the Log Stores — once, from the
    /// lowest persistent LSN a lagging replica reports, and not at all when
    /// nobody lags. Restart recovery passes the durable log above the
    /// anchor as `window`: its SAL remembers no flush, so whatever the
    /// window holds for a slice *is* what was flushed and first raises that
    /// slice's flush LSN; the window also names slices a crash between the
    /// log append and `CreateSlice` never created.
    pub(crate) fn redo(
        &self,
        keys: &[SliceKey],
        window: Option<Vec<LogRecordGroup>>,
    ) -> Result<usize> {
        let mut keys = keys.to_vec();
        if let Some(groups) = &window {
            keys.extend(self.homes_of(groups));
            keys.sort();
            keys.dedup();
            self.ensure_slices(&keys)?;
        }
        // What each slice *owns* on the (page, LSN) plane: its page range,
        // above its seed snapshot (already in the imported pages), at or
        // below its cut-over fence (the successor owns the rest). An
        // unreachable replica reports nothing and is skipped: nothing can
        // land on it now.
        let reports = self.probe(&keys);
        let mut targets: Vec<Target> = {
            let st = self.state.lock();
            let target = |&key: &SliceKey| {
                let of_key = reports.iter().filter(|r| r.0 == key);
                let replicas = of_key.map(|&(_, node, persistent, _)| (node, persistent));
                Some(Target {
                    key,
                    filter: self.pages.ingest_filter(key, self.cfg.pages_per_slice)?,
                    flush_lsn: st.slices.get(&key)?.flush_lsn,
                    replicas: replicas.collect(),
                    records: Vec::new(),
                })
            };
            keys.iter().filter_map(target).collect()
        };
        let recovering = window.is_some();
        let groups = match window {
            Some(groups) => groups,
            None => {
                let lagging = targets.iter().flat_map(|t| {
                    let reported = t.replicas.iter().map(|&(_, persistent)| persistent);
                    reported.filter(|p| *p < t.flush_lsn)
                });
                let Some(from) = lagging.min() else {
                    return Ok(0);
                };
                // The records are still there: truncation is gated on the
                // database persistent LSN, which the lagging replica holds
                // down.
                self.stats.redo_log_reads.inc();
                self.read_log_from(from.next())?
            }
        };
        // With elastic placement a record can be owed to *two* slices — a
        // retired cut-over parent (LSN at or below its fence) and its
        // successor (LSN above the seed base): the double-stored interval.
        for rec in groups.into_iter().flat_map(|g| g.records) {
            for t in &mut targets {
                if t.filter.admits(rec.page, rec.lsn) {
                    t.records.push(rec.clone());
                }
            }
        }
        let mut runs: BTreeMap<NodeId, Vec<PipeJob>> = BTreeMap::new();
        for t in &mut targets {
            t.records.sort_by_key(|r| r.lsn);
            t.records.dedup_by_key(|r| r.lsn);
            let tail = t.records.last().map_or(Lsn::ZERO, |r| r.lsn);
            if recovering && tail > t.flush_lsn {
                t.flush_lsn = tail;
                if let Some(s) = self.state.lock().slices.get_mut(&t.key) {
                    s.flush_lsn = s.flush_lsn.max(tail);
                }
            }
            for &(node, persistent) in &t.replicas {
                let owed = |r: &&LogRecord| r.lsn > persistent && r.lsn <= t.flush_lsn;
                let missing: Vec<LogRecord> = t.records.iter().filter(owed).cloned().collect();
                if !missing.is_empty() {
                    let frag = Arc::new(SliceFragment::new(t.key, persistent, missing));
                    runs.entry(node)
                        .or_default()
                        .push(PipeJob { key: t.key, frag });
                }
            }
        }
        let mut resent = 0usize;
        for (node, mut jobs) in runs {
            let mut rng = self.jitter_rng(node);
            while !jobs.is_empty() {
                let rest = jobs.split_off(jobs.len().min(GROUPED_SHIP_MAX));
                resent += self.ship(node, jobs, &mut rng);
                jobs = rest;
            }
        }
        self.stats.resends.add(resent as u64);
        Ok(resent)
    }

    /// Repairs one slice from the Log Stores (§5.2). Returns the number of
    /// fragments resent.
    pub fn repair_slice_from_logstores(&self, key: SliceKey) -> Result<usize> {
        self.redo(&[key], None)
    }

    /// Repairs every parked slice from the Log Stores and gossips; a slice
    /// is unparked once every replica has caught up to its flush LSN.
    /// Returns the number of slices unparked. Waits its turn when a drain
    /// is already running elsewhere.
    ///
    /// Must not be called while holding `state`.
    pub fn repair_parked(&self) -> usize {
        self.repair(&[])
    }

    /// [`Sal::repair_parked`] over the parked set plus `also` — slices the
    /// recovery service found regressed or stalled.
    pub(crate) fn repair(&self, also: &[SliceKey]) -> usize {
        self.writer.claim_drain(true);
        self.run_drain(also)
    }

    /// Asks for a repair without running one on this stack: the ack path
    /// and the shippers call this, so a resurrection observed during a
    /// repair can never nest another one.
    fn request_drain(&self) {
        if self.writer.claim_drain(false) {
            let weak = self.myself.clone();
            self.pages.fabric.spawn_detached(move || {
                if let Some(sal) = weak.upgrade() {
                    sal.run_drain(&[]);
                }
            });
        }
    }

    /// Runs the claimed drain: passes — each **one** redo and one gossip +
    /// poll round for the whole set, then unparking whatever caught up —
    /// until one ends with nobody having asked for another, at most
    /// [`DRAIN_MAX_PASSES`].
    fn run_drain(&self, also: &[SliceKey]) -> usize {
        let mut unparked = 0;
        for pass in 1.. {
            let mut keys = self.parked_slices();
            if pass == 1 {
                keys.extend(also);
                keys.sort();
                keys.dedup();
            }
            if !keys.is_empty() {
                let _ = self.redo(&keys, None);
                self.gossip_round(&keys);
            }
            let caught_up: Vec<SliceKey> = {
                let st = self.state.lock();
                let done = |s: &SliceState| s.min_replica_persistent() >= s.flush_lsn;
                keys.retain(|k| st.slices.get(k).is_none_or(done));
                keys
            };
            let mut p = self.writer.parked.lock();
            unparked += caught_up.iter().filter(|k| p.keys.remove(k)).count();
            if !std::mem::take(&mut p.again) || pass == DRAIN_MAX_PASSES {
                p.draining = false;
                self.writer.drained.notify_all();
                break;
            }
        }
        unparked
    }

    /// A fragment of `key` will not reach `node` through the pipe: park the
    /// slice and demote the replica.
    fn abandon(&self, node: NodeId, key: SliceKey) {
        self.stats.fragments_parked.inc();
        if self.reader.set_suspect(node, true) {
            self.stats.suspect_demotions.inc();
        }
        self.writer.parked.lock().keys.insert(key);
    }

    /// Resurrects a suspect replica after evidence it is serving again (a
    /// write ack or persistent-LSN progress). The suspect→healthy
    /// *transition* — and only that — asks for the parked set to be drained.
    pub(crate) fn note_replica_alive(&self, node: NodeId) {
        if self.reader.set_suspect(node, false) {
            self.stats.suspect_resurrections.inc();
            self.request_drain();
        }
    }

    /// Whether a replica is currently demoted to suspect.
    pub fn is_suspect(&self, node: NodeId) -> bool {
        self.reader.suspects().contains(&node)
    }

    /// Slices currently parked for repair, sorted.
    pub fn parked_slices(&self) -> Vec<SliceKey> {
        let mut v: Vec<SliceKey> = self.writer.parked.lock().keys.iter().copied().collect();
        v.sort();
        v
    }

    /// Per-replica pipeline gauges: `(node, queued fragments, in-flight
    /// fragments)`, sorted by node. Exposed to benches and tests.
    pub fn pipeline_gauges(&self) -> Vec<(NodeId, u64, u64)> {
        let pipes = self.writer.pipes.lock();
        let mut v: Vec<(NodeId, u64, u64)> = pipes
            .iter()
            .map(|(n, p)| (*n, p.queue.len() as u64, p.in_flight.get()))
            .collect();
        v.sort_by_key(|e| e.0);
        v
    }
}
