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
//! * [`Sal::ship`] delivers a run of fragments to one replica node in one
//!   grouped envelope, sent once. A failed slot is not retried in place:
//!   its slice is parked for `redo`, and the replica is demoted to
//!   *suspect* (deprioritized for reads until it proves itself alive) —
//!   unless the refusal came from a node a rebuild replaced, which
//!   refreshes placement instead.
//! * [`Sal::redo`] brings the lagging replicas of a set of slices up to
//!   their flush LSN: one merged log read, each record homed to its slice
//!   by page arithmetic, one fragment per lagging replica chained at that
//!   replica's own persistent LSN, delivered through `ship`.
//!
//! Steady state feeds `ship` from one queue **per Page Store replica
//! node**, drained by that node's sender thread: one per node per SAL,
//! started on first use, asleep while its queue is empty, stopped when the
//! SAL drops (DESIGN.md §15). No fragment is dropped on the way in: a
//! full queue holds the next log flush ([`Sal::admit_flush`]) instead.
//! Repair and restart recovery call `redo`.
//! Slices owed a repair sit in the *parked* set. A failed send, a refusal
//! from a rebuilt-away node or a queue abandoned at admission only marks
//! a slice there; the set is emptied by [`Sal::repair`], one
//! synchronous pass on the thread of whoever calls it — `Sal::tick` and
//! the recovery round, on the beat. Nothing inside a pass starts another,
//! so repair depth is 1 by construction.
//!
//! [`Sal::quiesce`] and a held flush wait on [`Shared::settled`], which
//! the pipes raise when a sender takes a run or goes idle, a shipped run
//! has had its acks taken or a repair ends — but only while somebody
//! waits, so the write path pays nothing otherwise.
//!
//! Locks: `pipes` and `parked` are leaves below `sal::state` — never held
//! across a fabric call, and never across each other.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use taurus_common::metrics::Gauge;
use taurus_common::{LogRecord, LogRecordGroup, Lsn, NodeId, Result, SliceKey, TaurusError};
use taurus_pagestore::SliceFragment;

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

/// Nodes whose last ack reported a backlog over the limit, with it (bytes).
type Backlogs = Vec<(NodeId, usize)>;

/// The send pipe to one Page Store replica node: a FIFO drained by the
/// node's sender thread. Bound: its depth plus one fragment per slice
/// written by the spans already past [`Sal::admit_flush`], which holds
/// flushes while a watched (up, not suspect) node's queue is full and
/// abandons a full queue of any other node.
#[derive(Default)]
struct PipeState {
    queue: VecDeque<PipeJob>,
    /// Raised when a fragment is queued on an idle pipe, cleared by the
    /// sender once the queue is shipped out: a busy pipe has fragments
    /// queued or in flight.
    busy: bool,
    in_flight: Gauge,
    /// When a flush first found the queue full since the node last drained
    /// it, on the SAL's clock: the node's failure window
    /// ([`Sal::admit_flush`]) runs from here. Cleared when the sender idles
    /// with nothing abandoned since it last idled: emptied by abandoning,
    /// a queue has not been drained.
    full_since: Option<u64>,
    /// The queue was abandoned since the sender last idled.
    abandoned: bool,
    /// The node's consolidation backlog as its last ack reported it,
    /// bytes: what [`Sal::admit_flush`] throttles on (§7).
    backlog: usize,
    /// Wakes the node's sender when the pipe turns busy.
    wake: Arc<Condvar>,
}

/// The send pipes, and what [`Sal::quiesce`] waits on besides them.
#[derive(Default)]
struct Pipes {
    /// One send pipe per Page Store replica node, created on first use.
    by_node: BTreeMap<NodeId, PipeState>,
    /// Repair passes and redos running: they ship on their caller's
    /// thread, outside every pipe, and are in flight all the same.
    repairs: usize,
    /// Quiesces and held flushes blocked on [`Shared::settled`].
    waiters: usize,
    /// One sender thread per pipe, joined when the SAL drops.
    senders: Vec<JoinHandle<()>>,
    /// Senders that have not exited.
    running: usize,
    /// Drain episodes so far: a pipe went from idle to busy.
    drains: u64,
    /// Runs the senders have taken off their queues so far.
    takes: u64,
    /// Deepest queue any pipe has held.
    max_queue_depth: u64,
    /// Raised when the SAL drops: every sender exits.
    stopped: bool,
}

impl Pipes {
    /// Nothing queued, nothing in flight, no repair running.
    fn idle(&self) -> bool {
        self.repairs == 0 && self.by_node.values().all(|p| !p.busy)
    }
}

/// What a SAL shares with its sender threads.
struct Shared {
    pipes: Mutex<Pipes>,
    /// Raised under `pipes`, while a quiesce or a held flush waits,
    /// whenever a queue shrank or the pipes may have come to rest.
    settled: Condvar,
}

impl Shared {
    /// Wakes the quiesces and held flushes waiting, if any; called under
    /// `pipes`, so a waiter that checked before this cannot miss it.
    fn signal(&self, pipes: &Pipes) {
        if pipes.waiters > 0 {
            self.settled.notify_all();
        }
    }
}

/// Writer-side state of a [`Sal`], outside `SalState` so the ack path and
/// the flush path never contend on `sal::state` for it. `pipes` and
/// `parked` are leaf locks: nothing is taken while one is held.
pub(crate) struct SliceWriter {
    shared: Arc<Shared>,
    /// Slices owed a repair from the Log Stores (at most every slice): a
    /// fragment of theirs was abandoned, or a rebuild replaced a replica.
    parked: Mutex<BTreeSet<SliceKey>>,
}

impl SliceWriter {
    pub(crate) fn new() -> Self {
        SliceWriter {
            shared: Arc::new(Shared {
                pipes: Mutex::new_leaf(Pipes::default()),
                settled: Condvar::new(),
            }),
            parked: Mutex::new_leaf(BTreeSet::new()),
        }
    }

    fn pipes(&self) -> MutexGuard<'_, Pipes> {
        self.shared.pipes.lock()
    }

    /// Marks a repair as running until the guard drops.
    fn repairing(&self) -> Repairing<'_> {
        self.pipes().repairs += 1;
        Repairing(self)
    }
}

impl Drop for SliceWriter {
    /// Stops the senders and joins them — all but the thread running this
    /// drop, if it is a sender that held the SAL's last strong handle: it
    /// exits once the drop returns to its loop.
    fn drop(&mut self) {
        let senders = {
            let mut pipes = self.pipes();
            pipes.stopped = true;
            for pipe in pipes.by_node.values() {
                pipe.wake.notify_one();
            }
            std::mem::take(&mut pipes.senders)
        };
        let me = std::thread::current().id();
        for sender in senders.into_iter().filter(|s| s.thread().id() != me) {
            let _ = sender.join();
        }
    }
}

/// A count of a SAL's sender threads that outlives the SAL, so a test can
/// see its senders stop when it drops.
pub struct SenderWatch(Arc<Shared>);

impl SenderWatch {
    /// `(started, running)`: sender threads started so far (one per pipe),
    /// and those that have not exited.
    pub fn senders(&self) -> (usize, usize) {
        let pipes = self.0.pipes.lock();
        (pipes.by_node.len(), pipes.running)
    }
}

/// The sender thread of `node`'s pipe: it sleeps until the pipe turns busy,
/// ships the queue out in runs of up to [`GROUPED_SHIP_MAX`] fragments, one
/// grouped envelope each, and clears `busy` once the queue is empty. It
/// holds the SAL only while it ships, so the SAL's last handle can drop
/// whenever the pipes are idle; then it exits.
fn run_sender(sal: &Weak<Sal>, shared: &Shared, node: NodeId, wake: &Condvar) {
    loop {
        let run: Vec<PipeJob> = {
            let mut guard = shared.pipes.lock();
            loop {
                let pipes = &mut *guard;
                let stopped = pipes.stopped;
                let Some(pipe) = pipes.by_node.get_mut(&node).filter(|_| !stopped) else {
                    return;
                };
                if !pipe.queue.is_empty() {
                    let take = pipe.queue.len().min(GROUPED_SHIP_MAX);
                    pipe.in_flight.add(take as u64);
                    let run = pipe.queue.drain(..take).collect();
                    // A flush held on this queue may go on.
                    pipes.takes += 1;
                    shared.signal(pipes);
                    break run;
                }
                if !std::mem::take(&mut pipe.abandoned) {
                    pipe.full_since = None;
                }
                if std::mem::take(&mut pipe.busy) {
                    shared.signal(pipes);
                }
                wake.wait(&mut guard);
            }
        };
        let n = run.len() as u64;
        let Some(sal) = sal.upgrade() else {
            return;
        };
        sal.ship(node, run);
        drop(sal);
        let pipes = shared.pipes.lock();
        if let Some(pipe) = pipes.by_node.get(&node) {
            pipe.in_flight.sub(n);
        }
        shared.signal(&pipes);
    }
}

/// A running repair pass or redo, in flight for [`Sal::quiesce`].
struct Repairing<'a>(&'a SliceWriter);

impl Drop for Repairing<'_> {
    fn drop(&mut self) {
        let mut pipes = self.0.pipes();
        pipes.repairs -= 1;
        self.0.shared.signal(&pipes);
    }
}

/// One slice `redo` is working on.
struct Target {
    key: SliceKey,
    flush_lsn: Lsn,
    /// Reachable replicas with the persistent LSN each just reported.
    replicas: Vec<(NodeId, Lsn)>,
    records: Vec<LogRecord>,
}

impl Sal {
    /// Queues `frag` for every replica in `nodes`, waking a node's sender
    /// when its pipe turns busy and starting it on the node's first
    /// fragment. Called under `state`, so a slice's fragments reach each
    /// node's queue in flush order; never blocks, never drops a fragment.
    pub(crate) fn submit(&self, key: SliceKey, nodes: &[NodeId], frag: &Arc<SliceFragment>) {
        for &node in nodes {
            let wake = {
                let mut guard = self.writer.pipes();
                let pipes = &mut *guard;
                let pipe = pipes.by_node.entry(node).or_insert_with(|| {
                    let pipe = PipeState::default();
                    let sender = self.start_sender(node, Arc::clone(&pipe.wake));
                    pipes.senders.push(sender);
                    pipes.running += 1;
                    pipe
                });
                let frag = Arc::clone(frag);
                pipe.queue.push_back(PipeJob { key, frag });
                let queued = pipe.queue.len();
                let turned_busy = !std::mem::replace(&mut pipe.busy, true);
                let wake = turned_busy.then(|| Arc::clone(&pipe.wake));
                pipes.max_queue_depth = pipes.max_queue_depth.max(queued as u64);
                pipes.drains += u64::from(wake.is_some());
                wake
            };
            // Woken after `pipes` is released, so the sender does not wake
            // into a lock this thread still holds.
            if let Some(wake) = wake {
                wake.notify_one();
            }
        }
    }

    /// Back-pressure (§7: "the SAL throttles log writes on the master"):
    /// the one hold before a log flush's Log Store append, with no lock
    /// held. It waits while the send queue of a Page Store node that is up
    /// and not suspect holds `sal_send_queue_depth` fragments, woken as
    /// senders take runs off their queues. The failure window,
    /// `short_term_failure_us` on the SAL's clock, runs from the first
    /// flush that found the queue full since the node last drained it, so
    /// a straggler that keeps its queue full fails even though each call
    /// lets one flush through. A node full past its window, or a full node
    /// that is suspect or down (nobody waits on it), is treated as failed:
    /// its queue is abandoned (park + suspect, `queue_full_drops`). Then
    /// the flush pays the consolidation throttle the same look found
    /// ([`Sal::current_throttle_us`]).
    pub(crate) fn admit_flush(&self) {
        let window = self.cfg.short_term_failure_us;
        let start = self.clock.now_us();
        let (mut now, mut held) = (start, false);
        let over = loop {
            let (full, takes, over) = self.full_pipes(now);
            if full.is_empty() {
                break over;
            }
            let suspects = self.reader.suspects();
            let mut until = u64::MAX;
            for (node, since) in full {
                let due = since.saturating_add(window);
                if now < due && !suspects.contains(&node) && self.pages.is_live(node) {
                    until = until.min(due);
                } else {
                    self.abandon_queue(node);
                }
            }
            if until == u64::MAX {
                break over;
            }
            if !std::mem::replace(&mut held, true) {
                self.stats.admission_waits.inc();
            }
            let mut pipes = self.writer.pipes();
            // A run taken since `full_pipes` looked shows in `takes`; one
            // taken later signals the wait.
            if pipes.takes == takes {
                pipes.waiters += 1;
                let left = Duration::from_micros(until - now);
                self.writer.shared.settled.wait_for(&mut pipes, left);
                pipes.waiters -= 1;
            }
            drop(pipes);
            now = self.clock.now_us();
        };
        if held {
            self.stats.admission_wait_us.add(now.saturating_sub(start));
        }
        if !over.is_empty() {
            let delay = self.throttle_of(over, &self.reader.suspects());
            if delay > 0 {
                self.clock.sleep_us(delay);
            }
        }
    }

    /// Each node whose send queue is full, with the time its window
    /// started (stamped `now` on the first look since it drained), the
    /// count of runs taken so far, and the backlogs over the limit.
    fn full_pipes(&self, now: u64) -> (Vec<(NodeId, u64)>, u64, Backlogs) {
        let depth = self.cfg.sal_send_queue_depth;
        let mut pipes = self.writer.pipes();
        let over = self.backlogs_over(&pipes);
        let full = pipes
            .by_node
            .iter_mut()
            .filter(|(_, p)| p.queue.len() >= depth);
        let full = full.map(|(node, p)| (*node, *p.full_since.get_or_insert(now)));
        (full.collect(), pipes.takes, over)
    }

    /// Each node whose last ack reported a backlog over
    /// `consolidation_backlog_limit`, with that backlog.
    fn backlogs_over(&self, pipes: &Pipes) -> Backlogs {
        let limit = self.cfg.consolidation_backlog_limit;
        let over = pipes.by_node.iter().filter(|(_, p)| p.backlog > limit);
        over.map(|(node, p)| (*node, p.backlog)).collect()
    }

    /// The §7 throttle: 1 µs per KiB over the limit, capped at 5 ms, of the
    /// worst backlog in `over` of a node that is up and not suspect.
    fn throttle_of(&self, over: Backlogs, suspects: &[NodeId]) -> u64 {
        let watched = over
            .into_iter()
            .filter(|(node, _)| !suspects.contains(node) && self.pages.is_live(*node));
        let worst = watched.map(|(_, backlog)| backlog).max();
        let limit = self.cfg.consolidation_backlog_limit;
        worst.map_or(0, |backlog| ((backlog - limit) as u64 / 1024).min(5_000))
    }

    /// The delay, µs, a log flush pays because Page Store consolidation is
    /// behind (§7), by the backlogs the nodes' last acks reported.
    pub fn current_throttle_us(&self) -> u64 {
        let over = self.backlogs_over(&self.writer.pipes());
        self.throttle_of(over, &self.reader.suspects())
    }

    /// `node` is treated as failed by [`Sal::admit_flush`]: what its queue
    /// holds is abandoned, as a failed send's run would be.
    fn abandon_queue(&self, node: NodeId) {
        let queue = self.writer.pipes().by_node.get_mut(&node).map(|p| {
            p.abandoned = true;
            std::mem::take(&mut p.queue)
        });
        for job in queue.unwrap_or_default() {
            self.stats.queue_full_drops.inc();
            self.abandon(node, job.key);
        }
    }

    /// Starts `node`'s sender. It holds a `Weak` SAL handle, so it never
    /// keeps a torn-down deployment alive.
    fn start_sender(&self, node: NodeId, wake: Arc<Condvar>) -> JoinHandle<()> {
        let (sal, shared) = (self.myself.clone(), Arc::clone(&self.writer.shared));
        let name = format!("taurus-send-{}", node.0);
        taurus_common::clock::spawn_background(name, move || {
            run_sender(&sal, &shared, node, &wake);
            shared.pipes.lock().running -= 1;
        })
    }

    /// The count of this SAL's sender threads, one per Page Store node it
    /// has sent to; it outlives the SAL.
    pub fn sender_watch(&self) -> SenderWatch {
        SenderWatch(Arc::clone(&self.writer.shared))
    }

    /// Where the work ran: fabric legs run inline by their submitters (the
    /// fabric's count, shared by every SAL on it), and this SAL's sender
    /// drain episodes (`pool_jobs`) and deepest send queue. Exposed to
    /// benches (fig7/fig9/conn_scale) and tests.
    pub fn dispatch_stats(&self) -> taurus_fabric::DispatchSnapshot {
        let pipes = self.writer.pipes();
        taurus_fabric::DispatchSnapshot {
            inline_jobs: self.pages.fabric.inline_jobs(),
            pool_jobs: pipes.drains,
            max_queue_depth: pipes.max_queue_depth,
        }
    }

    /// Delivers `run` to `node` in one grouped envelope, sent once. A slot
    /// that fails parks its slice: the next repair pass re-sends the records
    /// from the Log Stores (safe: Page Stores disregard duplicate log
    /// records). Returns how many fragments the node acknowledged.
    fn ship(&self, node: NodeId, run: Vec<PipeJob>) -> usize {
        let frags = run.iter().map(|j| Arc::clone(&j.frag)).collect();
        self.stats.note_coalesced(run.len());
        let groups = [(node, frags)];
        let mut slots = self.pages.write_logs_grouped(self.me, &groups).remove(0);
        // Demux in order; a short (impossible) response fails the tail.
        slots.resize_with(run.len(), || Err(TaurusError::NodeUnavailable(node)));
        let (mut delivered, mut raced, mut failed) = (0usize, false, false);
        let mut backlog = None;
        for (job, slot) in run.into_iter().zip(slots) {
            match slot {
                Ok(ack) => {
                    self.on_write_ack(job.key, node, job.frag.last_lsn(), ack.persistent);
                    backlog = Some(ack.backlog);
                    delivered += 1;
                }
                // A rebuild replaced this replica under the send — a
                // placement change, not a replica-health problem: no
                // suspect demotion. The next repair re-ships the records
                // through the current replicas.
                Err(TaurusError::NotAReplica { .. }) => {
                    self.stats.fragments_parked.inc();
                    self.writer.parked.lock().insert(job.key);
                    raced = true;
                }
                // Durability is already guaranteed by the Log Stores: the
                // slice is parked for repair-from-log.
                Err(_) => {
                    self.abandon(node, job.key);
                    failed = true;
                }
            }
        }
        if failed {
            self.stats.write_retries.inc();
        }
        if raced {
            self.refresh_placement();
        }
        if backlog.is_some_and(|backlog| self.note_ack(node, backlog)) {
            self.note_replica_alive(node);
        }
        delivered
    }

    /// Records the backlog `node`'s ack reported, and says whether the ack
    /// shows the node serves: not if its queue was abandoned since its
    /// sender last idled (a run in flight then proves nothing new).
    fn note_ack(&self, node: NodeId, backlog: usize) -> bool {
        let mut pipes = self.writer.pipes();
        pipes.by_node.get_mut(&node).is_none_or(|pipe| {
            pipe.backlog = backlog;
            !pipe.abandoned
        })
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
        let _repairing = self.writer.repairing();
        let mut keys = keys.to_vec();
        if let Some(groups) = &window {
            keys.extend(self.homes_of(groups));
            keys.sort();
            keys.dedup();
            self.ensure_slices(&keys)?;
        }
        // An unreachable replica reports nothing and is skipped: nothing
        // can land on it now.
        let reports = self.probe(&keys);
        let mut targets: Vec<Target> = {
            let st = self.state.lock();
            let target = |&key: &SliceKey| {
                let of_key = reports.iter().filter(|r| r.0 == key);
                let replicas = of_key.map(|&(_, node, persistent, _)| (node, persistent));
                Some(Target {
                    key,
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
                self.log.read_from(from.next())?
            }
        };
        // Each record belongs to exactly one slice: one lookup homes it.
        let index: HashMap<SliceKey, usize> = targets
            .iter()
            .enumerate()
            .map(|(i, t)| (t.key, i))
            .collect();
        for rec in groups.into_iter().flat_map(|g| g.records) {
            if let Some(&i) = index.get(&self.slice_of(rec.page)) {
                targets[i].records.push(rec);
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
            while !jobs.is_empty() {
                let rest = jobs.split_off(jobs.len().min(GROUPED_SHIP_MAX));
                resent += self.ship(node, jobs);
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
    /// Returns the number of slices unparked.
    ///
    /// Must not be called while holding `state`.
    pub fn repair_parked(&self) -> usize {
        self.repair(&[])
    }

    /// [`Sal::repair_parked`] over the parked set plus `also` — slices the
    /// recovery service found regressed or stalled: **one** redo and one
    /// gossip + poll round for the whole set, then every slice whose
    /// replicas all reached its flush LSN is unparked. It runs on the
    /// caller's thread and nothing inside it starts another repair.
    pub(crate) fn repair(&self, also: &[SliceKey]) -> usize {
        let mut keys = self.parked_slices();
        keys.extend(also);
        keys.sort();
        keys.dedup();
        if keys.is_empty() {
            return 0;
        }
        let _repairing = self.writer.repairing();
        let _ = self.redo(&keys, None);
        self.gossip_round(&keys);
        let caught_up: Vec<SliceKey> = {
            let st = self.state.lock();
            let done = |s: &SliceState| s.min_replica_persistent() >= s.flush_lsn;
            keys.retain(|k| st.slices.get(k).is_none_or(done));
            keys
        };
        let mut parked = self.writer.parked.lock();
        caught_up.iter().filter(|k| parked.remove(k)).count()
    }

    /// A fragment of `key` will not reach `node` through the pipe: park the
    /// slice and demote the replica.
    fn abandon(&self, node: NodeId, key: SliceKey) {
        self.stats.fragments_parked.inc();
        if self.reader.set_suspect(node, true) {
            self.stats.suspect_demotions.inc();
        }
        self.writer.parked.lock().insert(key);
    }

    /// Resurrects a suspect replica after evidence it is serving again (a
    /// write ack or persistent-LSN progress): clears the mark and counts the
    /// resurrection. What the replica missed stays parked until the next
    /// tick or recovery round repairs it.
    pub(crate) fn note_replica_alive(&self, node: NodeId) {
        if self.reader.set_suspect(node, false) {
            self.stats.suspect_resurrections.inc();
        }
    }

    /// Whether a replica is currently demoted to suspect.
    pub fn is_suspect(&self, node: NodeId) -> bool {
        self.reader.suspects().contains(&node)
    }

    /// Slices currently parked for repair, sorted.
    pub fn parked_slices(&self) -> Vec<SliceKey> {
        self.writer.parked.lock().iter().copied().collect()
    }

    /// Blocks until every send pipe is empty with nothing in flight and no
    /// repair is running, or fails once the SAL's clock reads
    /// `deadline_us`. It wakes when the pipes signal and, at the latest,
    /// when the time left to the deadline has passed on the wall: a pipe
    /// stuck in one long call cannot hold it past the deadline on a
    /// `SystemClock`, and on a `ManualClock` the timed wake is one more
    /// check.
    pub(crate) fn wait_until_pipes_idle(&self, deadline_us: u64) -> Result<()> {
        let mut pipes = self.writer.pipes();
        pipes.waiters += 1;
        let rest = loop {
            if pipes.idle() {
                break Ok(());
            }
            let now = self.clock.now_us();
            if now >= deadline_us {
                let busy = pipes.by_node.iter().filter(|(_, p)| p.busy);
                let busy: Vec<_> = busy.map(|(n, p)| (*n, p.queue.len())).collect();
                break Err(TaurusError::DeadlinePassed(format!(
                    "send pipes (node, queued) {busy:?} and {} repairs still busy",
                    pipes.repairs
                )));
            }
            let left = Duration::from_micros(deadline_us - now);
            self.writer.shared.settled.wait_for(&mut pipes, left);
        };
        pipes.waiters -= 1;
        rest
    }

    /// Whether every send pipe is idle and no repair runs right now.
    pub(crate) fn pipes_idle(&self) -> bool {
        self.writer.pipes().idle()
    }

    /// Per-replica pipeline gauges: `(node, queued fragments, in-flight
    /// fragments)`, sorted by node. Exposed to benches and tests.
    pub fn pipeline_gauges(&self) -> Vec<(NodeId, u64, u64)> {
        let pipes = self.writer.pipes();
        let gauges = pipes.by_node.iter();
        gauges
            .map(|(n, p)| (*n, p.queue.len() as u64, p.in_flight.get()))
            .collect()
    }
}
