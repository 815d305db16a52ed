//! Node registry, RPC latency model, and failure injection.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use taurus_common::clock::ClockRef;
use taurus_common::config::NetworkProfile;
use taurus_common::metrics::Counter;
use taurus_common::{NodeId, Result, TaurusError};

use crate::device::{model_now, run_handler};

/// Where a deployment's work ran, for the bench stat dumps: the fabric
/// counts the legs it runs inline ([`Fabric::inline_jobs`]), a SAL its
/// senders' drain episodes and deepest queue (`Sal::dispatch_stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchSnapshot {
    /// Fabric-leg handlers run by the thread that submitted them.
    pub inline_jobs: u64,
    /// Drain episodes of the SAL's per-node senders: a send pipe went
    /// from idle to busy (and back).
    pub pool_jobs: u64,
    /// Deepest per-node send queue seen.
    pub max_queue_depth: u64,
}

impl std::fmt::Display for DispatchSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (inline, pool, depth) = (self.inline_jobs, self.pool_jobs, self.max_queue_depth);
        write!(
            f,
            "inline_jobs={inline} pool_jobs={pool} max_queue_depth={depth}"
        )
    }
}

/// Input to [`Fabric::call_grouped`]: per target node, the handlers to run
/// inside that node's single envelope.
pub type GroupedCalls<'env, T> = Vec<(NodeId, Vec<Box<dyn FnOnce() -> T + Send + 'env>>)>;

/// The role a node plays in the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    LogStore,
    PageStore,
    Compute,
}

/// Liveness of a node as seen by the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeStatus {
    Up,
    /// Down since the given fabric time (µs). The failure detector uses the
    /// timestamp to distinguish short-term from long-term failures.
    Down {
        since_us: u64,
    },
    /// Removed from the cluster after a long-term failure; never comes back
    /// under the same id.
    Decommissioned,
}

#[derive(Debug)]
struct NodeState {
    kind: NodeKind,
    status: NodeStatus,
    /// Accumulated µs at which this node's NIC is next free (bandwidth model).
    nic_free_at_us: u64,
    /// Probability (per mille) that an RPC *to* this node fails even though
    /// the node is up — the "flaky replica" injection used by fault drills.
    fail_permille: u16,
    /// Extra latency charged per RPC to this node (slow-node injection).
    extra_call_delay_us: u64,
}

#[derive(Debug)]
struct Inner {
    nodes: RwLock<HashMap<NodeId, NodeState>>,
    rng: Mutex<StdRng>,
    next_node: Mutex<u64>,
    /// Fabric-leg handlers run inline ([`Fabric::inline_jobs`]).
    inline_jobs: Counter,
}

/// The cluster fabric: every RPC, failure, and placement decision flows
/// through one shared `Fabric` handle.
#[derive(Clone, Debug)]
pub struct Fabric {
    pub clock: ClockRef,
    pub profile: NetworkProfile,
    inner: Arc<Inner>,
}

impl Fabric {
    /// Creates a fabric with the given clock, network cost model, and RNG
    /// seed (all jitter and placement randomness derives from the seed).
    pub fn new(clock: ClockRef, profile: NetworkProfile, seed: u64) -> Self {
        Fabric {
            inner: Arc::new(Inner {
                nodes: RwLock::new(HashMap::new()),
                rng: Mutex::new(StdRng::seed_from_u64(seed)),
                next_node: Mutex::new(1),
                inline_jobs: Counter::default(),
            }),
            clock,
            profile,
        }
    }

    /// Fabric-leg handlers (`Fabric::call_all` / `call_grouped`) run so
    /// far, each by the thread that submitted it. A single `Fabric::call`
    /// is not counted.
    pub fn inline_jobs(&self) -> u64 {
        self.inner.inline_jobs.get()
    }

    /// Registers a new node of the given kind and returns its id.
    pub fn add_node(&self, kind: NodeKind) -> NodeId {
        let mut next = self.inner.next_node.lock();
        let id = NodeId(*next);
        *next += 1;
        drop(next);
        self.inner.nodes.write().insert(
            id,
            NodeState {
                kind,
                status: NodeStatus::Up,
                nic_free_at_us: 0,
                fail_permille: 0,
                extra_call_delay_us: 0,
            },
        );
        id
    }

    /// Registers `n` nodes of a kind, returning their ids.
    pub fn add_nodes(&self, kind: NodeKind, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node(kind)).collect()
    }

    /// Marks a node as failed. Idempotent; the original failure time is kept
    /// so long-term classification is not reset by repeated reports.
    pub fn set_down(&self, id: NodeId) {
        let now = self.clock.now_us();
        if let Some(n) = self.inner.nodes.write().get_mut(&id) {
            if matches!(n.status, NodeStatus::Up) {
                n.status = NodeStatus::Down { since_us: now };
            }
        }
    }

    /// Brings a node back online (short-term failure recovery). A
    /// decommissioned node stays gone.
    pub fn set_up(&self, id: NodeId) {
        if let Some(n) = self.inner.nodes.write().get_mut(&id) {
            if !matches!(n.status, NodeStatus::Decommissioned) {
                n.status = NodeStatus::Up;
            }
        }
    }

    /// Permanently removes a node (long-term failure handling).
    pub fn decommission(&self, id: NodeId) {
        if let Some(n) = self.inner.nodes.write().get_mut(&id) {
            n.status = NodeStatus::Decommissioned;
        }
    }

    /// Makes RPCs *to* a node fail with probability `permille`/1000 even
    /// while the node is up — the flaky-replica failure injection. Draws
    /// come from the fabric's seeded RNG, so drills replay with the seed.
    /// `0` clears the injection.
    pub fn set_flaky(&self, id: NodeId, permille: u16) {
        if let Some(n) = self.inner.nodes.write().get_mut(&id) {
            n.fail_permille = permille.min(1000);
        }
    }

    /// Charges `us` of extra latency on every RPC to a node (slow-node
    /// injection; lets tests pin a fan-out's completion at its slowest leg).
    /// A node that goes down mid-delay fails the call, like a real timeout.
    /// `0` clears the injection.
    pub fn set_call_delay(&self, id: NodeId, us: u64) {
        if let Some(n) = self.inner.nodes.write().get_mut(&id) {
            n.extra_call_delay_us = us;
        }
    }

    /// Current status of a node (`None` if never registered).
    pub fn status(&self, id: NodeId) -> Option<NodeStatus> {
        self.inner.nodes.read().get(&id).map(|n| n.status)
    }

    pub fn is_up(&self, id: NodeId) -> bool {
        matches!(self.status(id), Some(NodeStatus::Up))
    }

    /// All currently healthy nodes of a kind.
    pub fn healthy_nodes(&self, kind: NodeKind) -> Vec<NodeId> {
        let nodes = self.inner.nodes.read();
        let mut out: Vec<NodeId> = nodes
            .iter()
            .filter(|(_, s)| s.kind == kind && matches!(s.status, NodeStatus::Up))
            .map(|(id, _)| *id)
            .collect();
        out.sort_unstable();
        out
    }

    /// All registered (non-decommissioned) nodes of a kind, up or down.
    pub fn all_nodes(&self, kind: NodeKind) -> Vec<NodeId> {
        let nodes = self.inner.nodes.read();
        let mut out: Vec<NodeId> = nodes
            .iter()
            .filter(|(_, s)| s.kind == kind && !matches!(s.status, NodeStatus::Decommissioned))
            .map(|(id, _)| *id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Picks `n` distinct healthy nodes of a kind uniformly at random,
    /// excluding `exclude`. This is the cluster-manager placement primitive
    /// (PLog placement, slice placement, replacement-replica placement).
    pub fn pick_nodes(&self, kind: NodeKind, n: usize, exclude: &[NodeId]) -> Result<Vec<NodeId>> {
        let mut candidates: Vec<NodeId> = self
            .healthy_nodes(kind)
            .into_iter()
            .filter(|id| !exclude.contains(id))
            .collect();
        if candidates.len() < n {
            return Err(TaurusError::InsufficientHealthyNodes {
                needed: n,
                available: candidates.len(),
            });
        }
        let mut rng = self.inner.rng.lock();
        // Partial Fisher-Yates: choose n without replacement.
        for i in 0..n {
            let j = rng.random_range(i..candidates.len());
            candidates.swap(i, j);
        }
        candidates.truncate(n);
        Ok(candidates)
    }

    /// One-way hop latency sample for this call (mean + uniform jitter).
    fn hop_latency_us(&self) -> u64 {
        let base = self.profile.hop_us;
        if self.profile.jitter_us == 0 {
            base
        } else {
            base + self
                .inner
                .rng
                .lock()
                .random_range(0..=self.profile.jitter_us)
        }
    }

    /// Admission: what the sender learns about `to` before a request
    /// leaves — the target must be up — plus the injections in force for
    /// this request (flaky per-mille, extra delay in µs).
    fn admit(&self, to: NodeId) -> Result<(u16, u64)> {
        match self.inner.nodes.read().get(&to) {
            Some(n) if matches!(n.status, NodeStatus::Up) => {
                Ok((n.fail_permille, n.extra_call_delay_us))
            }
            _ => Err(TaurusError::NodeUnavailable(to)),
        }
    }

    /// Arrival: decides, once the request has reached `to`, whether its
    /// handler runs at all.
    fn arrive(&self, to: NodeId, fail_permille: u16) -> Result<()> {
        // The target may have died while the request was in flight (or
        // while an injected slow-node delay was being served).
        if !self.is_up(to) {
            return Err(TaurusError::NodeUnavailable(to));
        }
        // Flaky-node injection: the request is lost despite the node being
        // up; the caller sees it exactly like a crashed target.
        if fail_permille > 0
            && self.inner.rng.lock().random_range(0..1000u32) < fail_permille as u32
        {
            return Err(TaurusError::NodeUnavailable(to));
        }
        Ok(())
    }

    /// Performs a synchronous RPC from `from` to `to`: checks the target is
    /// up, charges one hop of latency for the request and one for the
    /// response, and runs `f` as the remote handler.
    ///
    /// The calling thread is blocked for the whole round trip anyway, so it
    /// does everything: it waits until the request arrives, runs the handler
    /// itself, and then waits **once** until the reply lands — the handler's
    /// device time (a deadline on its cursor, see [`crate::device`]) and the
    /// response hop in one sleep. Concurrency comes from the many
    /// front-end/flusher threads issuing calls in parallel.
    ///
    /// The caller holds no lock: under the lock witness, a call (or a
    /// fan-out) made while holding one fires, unless a
    /// `parking_lot::held_across_calls` scope covers it.
    pub fn call<T>(&self, _from: NodeId, to: NodeId, f: impl FnOnce() -> T) -> Result<T> {
        parking_lot::assert_no_lock_held();
        let (fail_permille, extra_delay_us) = self.admit(to)?;
        let arrives_at = model_now(&self.clock) + self.hop_latency_us() + extra_delay_us;
        self.clock.sleep_until(arrives_at);
        self.arrive(to, fail_permille)?;
        let (out, done_at) = run_handler(&self.clock, arrives_at, f);
        self.clock.sleep_until(done_at + self.hop_latency_us());
        Ok(out)
    }

    /// Issues several RPCs concurrently from `from`, one per `(target, handler)`
    /// pair, and returns their results in input order once **all** have
    /// finished — the fan-out/join primitive behind 3/3 log replication
    /// (paper §3.2: ack latency is the max of the three replica writes, not
    /// their sum), and the one leg runner [`Fabric::call_grouped`] rides too.
    ///
    /// Each leg costs what [`Fabric::call`] would charge it, but the legs'
    /// latencies overlap and the submitting thread — blocked for the whole
    /// fan-out anyway — is the only thread involved: a message in flight is
    /// data, and a handler someone is waiting on needs no hand-off. At
    /// submission each leg is admitted like a `call` (a target that is down
    /// fails its leg on the spot) and draws its request and response hop
    /// from the seeded RNG, in leg order; that fixes the leg's *arrival
    /// time* on the fabric clock (submission + request hop + injected
    /// delay). The submitting thread then takes the legs in arrival order:
    /// it waits until the leg's arrival, makes the arrival-time liveness
    /// re-check and flaky draw, and runs the handler, whose device charges
    /// advance a cursor from the arrival time instead of blocking (see
    /// [`crate::device`]). The leg's reply lands at `cursor + response hop`;
    /// when every handler has run the submitter waits once, until the last
    /// reply.
    ///
    /// So the fan-out returns no earlier than its longest leg,
    /// `max_i(request_i + delay_i + device queue_i + device_i + response_i)`,
    /// and exactly then on a manual clock; a handler never starts before its
    /// own arrival, nor later because a sibling's *message* is slow (only a
    /// sibling's handler CPU time, which is real and serial, can delay it);
    /// and failure stays per leg. Three legs need neither three cores nor
    /// three threads to overlap. A single call *is* a [`Fabric::call`]. A
    /// handler panic propagates to the caller after the other legs ran.
    pub fn call_all<'env, T: Send + 'env>(
        &'env self,
        from: NodeId,
        mut calls: Vec<(NodeId, Box<dyn FnOnce() -> T + Send + 'env>)>,
    ) -> Vec<Result<T>> {
        parking_lot::assert_no_lock_held();
        if calls.len() == 1 {
            // Nothing else in flight: this is exactly a `call`.
            let (to, f) = calls.remove(0);
            return vec![self.call(from, to, f)];
        }
        let sent_at = model_now(&self.clock);
        // A leg refused at admission has its answer already; each leg in
        // flight is (arrival, result slot, target, flaky per-mille,
        // response hop, handler).
        let mut results: Vec<Option<Result<T>>> = Vec::with_capacity(calls.len());
        let mut legs = Vec::with_capacity(calls.len());
        for (slot, (to, f)) in calls.into_iter().enumerate() {
            match self.admit(to) {
                Ok((fail_permille, extra_delay_us)) => {
                    let arrives_at = sent_at + self.hop_latency_us() + extra_delay_us;
                    let response_us = self.hop_latency_us();
                    legs.push((arrives_at, slot, to, fail_permille, response_us, f));
                    results.push(None);
                }
                Err(e) => results.push(Some(Err(e))),
            }
        }
        legs.sort_by_key(|leg| leg.0);
        self.inner.inline_jobs.add(legs.len() as u64);
        let mut last_reply_at = 0;
        let mut panic = None;
        for (arrives_at, slot, to, fail_permille, response_us, f) in legs {
            self.clock.sleep_until(arrives_at);
            results[slot] = Some(self.arrive(to, fail_permille).and_then(|()| {
                // A panicking handler must not take its siblings down with
                // it: they run first, then the panic resumes below.
                let ran =
                    catch_unwind(AssertUnwindSafe(|| run_handler(&self.clock, arrives_at, f)));
                let (out, done_at) = ran.map_err(|p| {
                    panic.get_or_insert(p);
                    TaurusError::Internal("fan-out handler panicked".into())
                })?;
                last_reply_at = last_reply_at.max(done_at + response_us);
                Ok(out)
            }));
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        self.clock.sleep_until(last_reply_at);
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(TaurusError::Internal("fan-out lost a leg".into()))))
            .collect()
    }

    /// Runs `jobs` one after another on the calling thread and returns their
    /// results in input order. Jobs are **not** fabric legs: each issues (and
    /// pays for) its own calls. The product has no caller left; the
    /// benchmark's `fabric.fan_out6_p50_us` rung times this loop.
    pub fn fan_out<'env, T: Send + 'env>(
        &'env self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        jobs.into_iter().map(|job| job()).collect()
    }

    /// Coalesced fan-out: issues **one RPC per group**, running every
    /// handler of a group inside a single envelope to its target node, and
    /// demuxes the results back per handler in input order.
    ///
    /// This is the per-node batching primitive behind the SAL hot paths:
    /// per-slice requests that route to the same Page Store node merge
    /// into one fabric round trip — one liveness check, one latency
    /// charge, one flaky draw — instead of one per slice. Envelopes are
    /// in flight concurrently, as [`Fabric::call_all`] legs.
    ///
    /// Failure is per-envelope: if the group's call fails (target down,
    /// flaky drop), every handler slot of that group reports
    /// `NodeUnavailable` and the caller fails over per slice. An empty
    /// group issues no RPC.
    pub fn call_grouped<'env, T: Send + 'env>(
        &'env self,
        from: NodeId,
        groups: GroupedCalls<'env, T>,
    ) -> Vec<Vec<Result<T>>> {
        let sizes: Vec<(NodeId, usize)> = groups.iter().map(|(n, fs)| (*n, fs.len())).collect();
        let envelopes = groups
            .into_iter()
            .filter(|(_, fs)| !fs.is_empty())
            .map(|(to, fs)| {
                let handler = move || fs.into_iter().map(|f| f()).collect::<Vec<T>>();
                (
                    to,
                    Box::new(handler) as Box<dyn FnOnce() -> Vec<T> + Send + 'env>,
                )
            })
            .collect();
        let mut replies = self.call_all(from, envelopes).into_iter();
        sizes
            .into_iter()
            .map(|(node, len)| {
                if len == 0 {
                    return Vec::new();
                }
                match replies.next() {
                    Some(Ok(vals)) => {
                        debug_assert_eq!(vals.len(), len);
                        vals.into_iter().map(Ok).collect()
                    }
                    _ => (0..len)
                        .map(|_| Err(TaurusError::NodeUnavailable(node)))
                        .collect(),
                }
            })
            .collect()
    }

    /// Charges outbound NIC time for `bytes` leaving `node`, modelling a
    /// bandwidth cap (`NetworkProfile::master_nic_bytes_per_sec`). Returns
    /// immediately if the profile is uncapped. The model is a serialization
    /// delay queue: each send occupies the NIC for `bytes / rate` and sends
    /// queue behind one another.
    pub fn charge_bandwidth(&self, node: NodeId, bytes: usize) {
        let rate = self.profile.master_nic_bytes_per_sec;
        if rate == 0 || bytes == 0 {
            return;
        }
        let tx_us = (bytes as u64).saturating_mul(1_000_000) / rate;
        let now = self.clock.now_us();
        let wait_until = {
            let mut nodes = self.inner.nodes.write();
            let Some(state) = nodes.get_mut(&node) else {
                return;
            };
            let start = state.nic_free_at_us.max(now);
            state.nic_free_at_us = start + tx_us;
            state.nic_free_at_us
        };
        if wait_until > now {
            self.clock.sleep_us(wait_until - now);
        }
    }

    /// Deterministic RNG draw in `0..n` from the fabric's seeded stream
    /// (for components that need placement-style randomness).
    pub fn rand_below(&self, n: usize) -> usize {
        self.inner.rng.lock().random_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StorageDevice;
    use taurus_common::clock::{Clock, ManualClock};
    use taurus_common::config::StorageProfile;

    /// A manual clock that records every wait (who asked, for how long) and
    /// lets a test act at the first one — i.e. while a fan-out's requests
    /// are in flight.
    #[derive(Default)]
    struct ProbeClock {
        time: ManualClock,
        waits: Mutex<Vec<(std::thread::ThreadId, u64)>>,
        on_first_wait: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl std::fmt::Debug for ProbeClock {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "ProbeClock({})", self.time.now_us())
        }
    }

    impl Clock for ProbeClock {
        fn now_us(&self) -> u64 {
            self.time.now_us()
        }

        fn sleep_us(&self, us: u64) {
            self.waits.lock().push((std::thread::current().id(), us));
            let hook = self.on_first_wait.lock().take();
            if let Some(hook) = hook {
                hook();
            }
            self.time.sleep_us(us);
        }
    }

    fn probe_fabric(profile: NetworkProfile, seed: u64) -> (Fabric, Arc<ProbeClock>) {
        let clock = Arc::new(ProbeClock::default());
        (Fabric::new(clock.clone(), profile, seed), clock)
    }

    const HOP_100: NetworkProfile = NetworkProfile {
        hop_us: 100,
        jitter_us: 0,
        master_nic_bytes_per_sec: 0,
    };

    fn noop_legs(targets: &[NodeId]) -> Vec<(NodeId, Box<dyn FnOnce() + Send>)> {
        targets
            .iter()
            .map(|&to| (to, Box::new(|| ()) as Box<dyn FnOnce() + Send>))
            .collect()
    }

    fn test_fabric() -> (Fabric, Arc<ManualClock>) {
        let clock = ManualClock::shared();
        (Fabric::new(clock.clone(), HOP_100, 42), clock)
    }

    #[test]
    fn register_and_query_nodes() {
        let (f, _) = test_fabric();
        let ls = f.add_nodes(NodeKind::LogStore, 3);
        let ps = f.add_nodes(NodeKind::PageStore, 2);
        assert_eq!(f.healthy_nodes(NodeKind::LogStore), ls);
        assert_eq!(f.healthy_nodes(NodeKind::PageStore), ps);
        assert!(f.is_up(ls[0]));
    }

    #[test]
    fn rpc_charges_two_hops() {
        let (f, clock) = test_fabric();
        let a = f.add_node(NodeKind::Compute);
        let b = f.add_node(NodeKind::LogStore);
        let before = clock.now_us();
        let v = f.call(a, b, || 7).unwrap();
        assert_eq!(v, 7);
        assert_eq!(clock.now_us() - before, 200);
    }

    #[test]
    fn rpc_to_down_node_fails_without_latency_refund() {
        let (f, _) = test_fabric();
        let a = f.add_node(NodeKind::Compute);
        let b = f.add_node(NodeKind::LogStore);
        f.set_down(b);
        assert!(matches!(
            f.call(a, b, || 7),
            Err(TaurusError::NodeUnavailable(_))
        ));
        f.set_up(b);
        assert_eq!(f.call(a, b, || 7).unwrap(), 7);
    }

    #[test]
    fn down_timestamp_is_preserved_across_repeated_reports() {
        let (f, clock) = test_fabric();
        let b = f.add_node(NodeKind::LogStore);
        clock.advance(1000);
        f.set_down(b);
        clock.advance(5000);
        f.set_down(b); // repeated report must not reset the failure time
        match f.status(b).unwrap() {
            NodeStatus::Down { since_us } => assert_eq!(since_us, 1000),
            s => panic!("unexpected status {s:?}"),
        }
    }

    #[test]
    fn decommissioned_nodes_never_return() {
        let (f, _) = test_fabric();
        let b = f.add_node(NodeKind::PageStore);
        f.decommission(b);
        f.set_up(b);
        assert!(!f.is_up(b));
        assert!(f.all_nodes(NodeKind::PageStore).is_empty());
    }

    #[test]
    fn pick_nodes_respects_count_exclusion_and_health() {
        let (f, _) = test_fabric();
        let nodes = f.add_nodes(NodeKind::LogStore, 10);
        f.set_down(nodes[0]);
        let picked = f
            .pick_nodes(NodeKind::LogStore, 3, &[nodes[1], nodes[2]])
            .unwrap();
        assert_eq!(picked.len(), 3);
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 3);
        for p in &picked {
            assert!(*p != nodes[0] && *p != nodes[1] && *p != nodes[2]);
        }
    }

    #[test]
    fn pick_nodes_fails_when_cluster_too_small() {
        let (f, _) = test_fabric();
        f.add_nodes(NodeKind::LogStore, 2);
        assert!(matches!(
            f.pick_nodes(NodeKind::LogStore, 3, &[]),
            Err(TaurusError::InsufficientHealthyNodes {
                needed: 3,
                available: 2
            })
        ));
    }

    #[test]
    fn placement_is_deterministic_for_a_seed() {
        let run = |seed| {
            let clock = ManualClock::shared();
            let f = Fabric::new(clock, NetworkProfile::instant(), seed);
            f.add_nodes(NodeKind::LogStore, 20);
            (0..5)
                .map(|_| f.pick_nodes(NodeKind::LogStore, 3, &[]).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn flaky_injection_fails_a_fraction_of_calls() {
        let (f, _) = test_fabric();
        let a = f.add_node(NodeKind::Compute);
        let b = f.add_node(NodeKind::PageStore);
        f.set_flaky(b, 500); // ~50%
        let mut failures = 0;
        for _ in 0..200 {
            if f.call(a, b, || ()).is_err() {
                failures += 1;
            }
        }
        assert!(
            (40..=160).contains(&failures),
            "expected ~100 failures at 50%, got {failures}"
        );
        f.set_flaky(b, 0);
        for _ in 0..50 {
            f.call(a, b, || ()).unwrap();
        }
    }

    #[test]
    fn call_delay_charges_extra_latency_and_loses_races_with_death() {
        let (f, clock) = test_fabric();
        let a = f.add_node(NodeKind::Compute);
        let b = f.add_node(NodeKind::PageStore);
        f.set_call_delay(b, 5_000);
        let before = clock.now_us();
        f.call(a, b, || ()).unwrap();
        assert_eq!(clock.now_us() - before, 5_200); // 2 hops + injected delay
        f.set_call_delay(b, 0);
        let before = clock.now_us();
        f.call(a, b, || ()).unwrap();
        assert_eq!(clock.now_us() - before, 200);
    }

    #[test]
    fn call_all_preserves_order_and_isolates_failures() {
        let (f, clock) = test_fabric();
        let a = f.add_node(NodeKind::Compute);
        let targets = f.add_nodes(NodeKind::LogStore, 3);
        f.set_down(targets[1]);
        let calls = || -> Vec<(NodeId, Box<dyn FnOnce() -> u64 + Send>)> {
            targets
                .iter()
                .enumerate()
                .map(|(i, &to)| {
                    let h: Box<dyn FnOnce() -> u64 + Send> = Box::new(move || i as u64 * 10);
                    (to, h)
                })
                .collect()
        };
        let results = f.call_all(a, calls());
        assert_eq!(results.len(), 3);
        assert_eq!(*results[0].as_ref().unwrap(), 0);
        assert!(matches!(
            results[1],
            Err(TaurusError::NodeUnavailable(n)) if n == targets[1]
        ));
        assert_eq!(*results[2].as_ref().unwrap(), 20);
        // A leg refused at submission draws nothing and waits nothing; the
        // one leg left in flight still waits out its own two hops.
        f.set_down(targets[0]);
        let before = clock.now_us();
        let results = f.call_all(a, calls());
        assert!(results[0].is_err() && results[1].is_err());
        assert_eq!(*results[2].as_ref().unwrap(), 20);
        assert_eq!(clock.now_us() - before, 200);
    }

    const DISK: StorageProfile = StorageProfile {
        append_us: 20,
        random_write_us: 70,
        read_us: 60,
    };

    #[test]
    fn fan_out_runs_every_handler_on_the_submitting_thread_at_its_arrival_and_returns_with_the_last_reply(
    ) {
        let (f, clock) = probe_fabric(HOP_100, 42);
        let a = f.add_node(NodeKind::Compute);
        let targets = f.add_nodes(NodeKind::LogStore, 3);
        f.set_call_delay(targets[0], 500);
        f.set_call_delay(targets[2], 200);
        let devices: Vec<StorageDevice> = (0..3)
            .map(|_| StorageDevice::in_memory(f.clock.clone(), DISK))
            .collect();
        for d in &devices {
            d.append(b"seed").unwrap();
        }
        clock.waits.lock().clear();
        let sent_at = clock.now_us();
        let ran = Mutex::new(Vec::new());
        // Leg 0: arrives +600, one append (20)          -> reply +720.
        // Leg 1: arrives +100, one read (60)            -> reply +260.
        // Leg 2: arrives +300, an append then a read    -> reply +480.
        let calls: Vec<(NodeId, Box<dyn FnOnce() + Send + '_>)> = (0..3)
            .map(|i| {
                let (ran, dev, clock) = (&ran, &devices[i], &clock);
                let h = move || {
                    ran.lock()
                        .push((i, std::thread::current().id(), clock.now_us() - sent_at));
                    if i != 1 {
                        dev.append(b"x").unwrap();
                    }
                    if i != 0 {
                        dev.read(0, 1).unwrap();
                    }
                };
                (targets[i], Box::new(h) as Box<dyn FnOnce() + Send + '_>)
            })
            .collect();
        assert!(f.call_all(a, calls).iter().all(|r| r.is_ok()));
        // max_i(request + delay + device queue + device + response), exactly.
        assert_eq!(clock.now_us() - sent_at, 720);
        // Every handler on this thread, in arrival order, at its arrival.
        let me = std::thread::current().id();
        assert_eq!(
            ran.into_inner(),
            vec![(1, me, 100), (2, me, 300), (0, me, 600)]
        );
        // One wait per arrival and one for the last reply (device time and
        // response hop merged) — no device charge blocked anybody.
        let waits = clock.waits.lock().clone();
        assert_eq!(waits, vec![(me, 100), (me, 200), (me, 300), (me, 120)]);
        // No hand-off: the three legs are counted as run inline.
        assert_eq!(f.inline_jobs(), 3);
    }

    #[test]
    fn charges_on_one_device_inside_one_fan_out_still_queue_behind_each_other() {
        let (f, clock) = test_fabric();
        let a = f.add_node(NodeKind::Compute);
        let targets = f.add_nodes(NodeKind::LogStore, 2);
        let shared = StorageDevice::in_memory(f.clock.clone(), DISK);
        let calls = targets
            .iter()
            .map(|&to| {
                let (shared, f) = (&shared, &f);
                let h = move || {
                    shared.append(b"x").unwrap();
                    model_now(&f.clock)
                };
                (to, Box::new(h) as Box<dyn FnOnce() -> u64 + Send + '_>)
            })
            .collect();
        // Both requests arrive at +100; the device serves them one after the
        // other, and the fan-out waits for the second.
        let done: Vec<u64> = f
            .call_all(a, calls)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(done, vec![120, 140]);
        assert_eq!(clock.now_us(), 240);
        // The same through single calls: device wait and response hop are
        // one deadline, and the cursor is gone once the call returns — a
        // direct charge blocks this thread for its full time.
        f.call(a, targets[0], || shared.append(b"x").unwrap())
            .unwrap();
        assert_eq!(clock.now_us(), 240 + 100 + 20 + 100);
        shared.append(b"x").unwrap();
        assert_eq!(clock.now_us(), 480);
    }

    #[test]
    fn a_panicking_handler_unwinds_only_after_its_siblings_ran() {
        let (f, clock) = test_fabric();
        let a = f.add_node(NodeKind::Compute);
        let targets = f.add_nodes(NodeKind::PageStore, 3);
        f.set_call_delay(targets[1], 50);
        f.set_call_delay(targets[2], 70);
        let ran = Mutex::new(Vec::new());
        let calls = targets
            .iter()
            .map(|&to| {
                let (ran, first) = (&ran, targets[0]);
                let h = move || {
                    if to == first {
                        panic!("first leg exploded");
                    }
                    ran.lock().push(to);
                };
                (to, Box::new(h) as Box<dyn FnOnce() + Send + '_>)
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| f.call_all(a, calls)))
            .expect_err("panic must propagate");
        assert!(err
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("exploded")));
        assert_eq!(ran.into_inner(), vec![targets[1], targets[2]]);
        // The unwound handler left no cursor behind: a direct device charge
        // on this thread blocks again.
        let before = clock.now_us();
        StorageDevice::in_memory(f.clock.clone(), DISK)
            .append(b"x")
            .unwrap();
        assert_eq!(clock.now_us() - before, 20);
    }

    #[test]
    fn node_dying_in_flight_fails_only_its_own_leg_and_envelope() {
        // `victim` is up when the fan-out is admitted and goes down while
        // the requests are in flight (at the submitter's first wait).
        let arm = |f: &Fabric, clock: &ProbeClock, victim: NodeId| {
            let f = f.clone();
            *clock.on_first_wait.lock() = Some(Box::new(move || f.set_down(victim)));
        };
        let (f, clock) = probe_fabric(HOP_100, 42);
        let a = f.add_node(NodeKind::Compute);
        let targets = f.add_nodes(NodeKind::PageStore, 3);
        let victim = targets[1];
        let ran = Mutex::new(Vec::new());
        let legs = |tag: u64| {
            let ran = &ran;
            targets
                .iter()
                .map(move |&to| {
                    let h = move || {
                        ran.lock().push((tag, to));
                        to
                    };
                    (to, Box::new(h) as Box<dyn FnOnce() -> NodeId + Send + '_>)
                })
                .collect::<Vec<_>>()
        };

        arm(&f, &clock, victim);
        let out = f.call_all(a, legs(1));
        assert_eq!(*out[0].as_ref().unwrap(), targets[0]);
        assert!(matches!(out[1], Err(TaurusError::NodeUnavailable(n)) if n == victim));
        assert_eq!(*out[2].as_ref().unwrap(), targets[2]);

        f.set_up(victim);
        arm(&f, &clock, victim);
        let groups = legs(2)
            .into_iter()
            .map(|(to, h)| {
                let again = move || to;
                let again = Box::new(again) as Box<dyn FnOnce() -> NodeId + Send + '_>;
                (to, vec![h, again])
            })
            .collect();
        let out = f.call_grouped(a, groups);
        for (slots, &to) in out.iter().zip(&targets) {
            assert_eq!(slots.len(), 2);
            for slot in slots {
                match slot {
                    Ok(n) => assert!(*n == to && to != victim),
                    Err(TaurusError::NodeUnavailable(n)) => assert!(*n == victim && to == victim),
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
        }
        // The dead node's handlers never ran; every other handler did.
        let mut ran = ran.into_inner();
        ran.sort_unstable();
        assert_eq!(
            ran,
            vec![
                (1, targets[0]),
                (1, targets[2]),
                (2, targets[0]),
                (2, targets[2])
            ]
        );
    }

    #[test]
    fn fan_out_jitter_is_drawn_in_leg_order_and_replays_from_the_seed() {
        // One thread, so virtual time is a pure function of the RNG stream:
        // every leg draws its request hop then its response hop, leg by
        // leg, at submission; each handler runs at its own arrival, so a
        // round costs its longest leg.
        let profile = NetworkProfile {
            hop_us: 50,
            jitter_us: 20,
            master_nic_bytes_per_sec: 0,
        };
        let run = |seed: u64| {
            let clock = ManualClock::shared();
            let f = Fabric::new(clock.clone(), profile, seed);
            let a = f.add_node(NodeKind::Compute);
            let targets = f.add_nodes(NodeKind::LogStore, 3);
            (0..20)
                .map(|_| {
                    let before = clock.now_us();
                    assert!(f.call_all(a, noop_legs(&targets)).iter().all(|r| r.is_ok()));
                    clock.now_us() - before
                })
                .collect::<Vec<u64>>()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let expected: Vec<u64> = (0..20)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let request = 50 + rng.random_range(0..=20u64);
                        request + 50 + rng.random_range(0..=20u64)
                    })
                    .max()
                    .unwrap()
            })
            .collect();
        assert_eq!(run(9), expected);
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn call_all_handles_empty_and_single_call_sets() {
        let (f, clock) = test_fabric();
        let a = f.add_node(NodeKind::Compute);
        let b = f.add_node(NodeKind::LogStore);
        assert!(f
            .call_all(a, Vec::<(NodeId, Box<dyn FnOnce() -> u64 + Send>)>::new())
            .is_empty());
        let before = clock.now_us();
        let results = f.call_all(
            a,
            vec![(b, Box::new(|| 7u64) as Box<dyn FnOnce() -> u64 + Send>)],
        );
        assert_eq!(*results[0].as_ref().unwrap(), 7);
        assert_eq!(clock.now_us() - before, 200);
    }

    #[test]
    fn call_grouped_charges_one_envelope_per_node_and_demuxes_in_order() {
        let (f, clock) = test_fabric();
        let a = f.add_node(NodeKind::Compute);
        let n1 = f.add_node(NodeKind::PageStore);
        let n2 = f.add_node(NodeKind::PageStore);
        let before = clock.now_us();
        let mk = |v: u64| Box::new(move || v) as Box<dyn FnOnce() -> u64 + Send>;
        let out = f.call_grouped(
            a,
            vec![(n1, vec![mk(1), mk(2), mk(3)]), (n2, vec![mk(4), mk(5)])],
        );
        assert_eq!(out.len(), 2);
        let g1: Vec<u64> = out[0].iter().map(|r| *r.as_ref().unwrap()).collect();
        let g2: Vec<u64> = out[1].iter().map(|r| *r.as_ref().unwrap()).collect();
        assert_eq!(g1, vec![1, 2, 3]);
        assert_eq!(g2, vec![4, 5]);
        // Five handlers but only two envelopes, in flight together: the
        // clock moves by one 2-hop round trip (the longest envelope), not
        // by one per handler and not by the envelopes laid end to end.
        assert_eq!(clock.now_us() - before, 200);
        // An envelope is one leg: a slow node delays its own envelope once.
        f.set_call_delay(n2, 1_000);
        let before = clock.now_us();
        let out = f.call_grouped(
            a,
            vec![(n1, vec![mk(1), mk(2), mk(3)]), (n2, vec![mk(4), mk(5)])],
        );
        assert!(out.iter().flatten().all(|r| r.is_ok()));
        assert_eq!(clock.now_us() - before, 1_200);
    }

    #[test]
    fn call_grouped_fails_a_dead_nodes_whole_envelope_per_slot() {
        let (f, _) = test_fabric();
        let a = f.add_node(NodeKind::Compute);
        let dead = f.add_node(NodeKind::PageStore);
        let live = f.add_node(NodeKind::PageStore);
        f.set_down(dead);
        let mk = |v: u64| Box::new(move || v) as Box<dyn FnOnce() -> u64 + Send>;
        let out = f.call_grouped(a, vec![(dead, vec![mk(1), mk(2)]), (live, vec![mk(3)])]);
        assert_eq!(out[0].len(), 2);
        for slot in &out[0] {
            assert!(matches!(slot, Err(TaurusError::NodeUnavailable(n)) if *n == dead));
        }
        assert_eq!(*out[1][0].as_ref().unwrap(), 3);
    }

    #[test]
    fn call_grouped_handles_empty_inputs_without_charging_latency() {
        let (f, clock) = test_fabric();
        let a = f.add_node(NodeKind::Compute);
        let b = f.add_node(NodeKind::PageStore);
        let none: GroupedCalls<'_, u64> = Vec::new();
        assert!(f.call_grouped(a, none).is_empty());
        // A group with no handlers issues no RPC at all.
        let before = clock.now_us();
        let out = f.call_grouped(a, vec![(b, Vec::<Box<dyn FnOnce() -> u64 + Send>>::new())]);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
        assert_eq!(clock.now_us() - before, 0);
    }

    #[test]
    fn bandwidth_cap_serializes_sends() {
        let clock = ManualClock::shared();
        let f = Fabric::new(
            clock.clone(),
            NetworkProfile {
                hop_us: 0,
                jitter_us: 0,
                master_nic_bytes_per_sec: 1_000_000, // 1 MB/s -> 1 µs/byte
            },
            1,
        );
        let m = f.add_node(NodeKind::Compute);
        f.charge_bandwidth(m, 500);
        assert_eq!(clock.now_us(), 500);
        f.charge_bandwidth(m, 500);
        assert_eq!(clock.now_us(), 1000);
    }

    #[test]
    fn uncapped_bandwidth_is_free() {
        let (f, clock) = test_fabric();
        let m = f.add_node(NodeKind::Compute);
        f.charge_bandwidth(m, 1 << 30);
        assert_eq!(clock.now_us(), 0);
    }
}
