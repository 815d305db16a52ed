//! The Page Store cluster: placement, gossip and replica rebuild.
//!
//! Unlike PLogs, slices cannot move freely: "a Page Store must have access
//! to all log records for the pages that it is responsible for. This
//! requirement prevents us from switching Page Stores in the same way as we
//! switch Log Stores" (paper §3.4). Placement is therefore static: a slice
//! is placed on three Page Stores when it is first written (page `p` is in
//! slice `p / pages_per_slice`), repairs between its replicas run through
//! the gossip protocol (§4.1 step 6), and the only placement change is a
//! rebuild, which replaces a replica lost to a long-term failure with a
//! fresh node (§5.2). A `WriteLogs` that reaches a node the map no longer
//! names for the slice is refused ([`TaurusError::NotAReplica`]), and the
//! gossip round drops a rebuilt-away copy whose node comes back up.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use taurus_common::config::StorageProfile;
use taurus_common::{Lsn, NodeId, PageBuf, PageId, Result, SliceKey, TaurusError};
use taurus_fabric::{Fabric, NodeKind, StorageDevice};

use crate::fragment::SliceFragment;
use crate::pool::EvictionPolicy;
use crate::pushdown::{ScanSliceRequest, ScanSliceResponse};
use crate::readpages::{ReadPagesRequest, ReadPagesResponse};
use crate::server::{
    ConsolidationPolicy, PageStoreServer, PageStoreStatsSnapshot, RecycleReport, WriteAck,
};

/// One `write_logs_grouped` envelope: a node and the fragments bound for it.
pub type FragmentGroup = (NodeId, Vec<Arc<SliceFragment>>);

/// Construction parameters for Page Store servers spawned by the cluster.
#[derive(Clone, Copy, Debug)]
pub struct PageStoreOptions {
    pub log_cache_bytes: usize,
    pub pool_pages: usize,
    pub pool_policy: EvictionPolicy,
    pub consolidation: ConsolidationPolicy,
}

impl Default for PageStoreOptions {
    fn default() -> Self {
        PageStoreOptions {
            log_cache_bytes: 16 << 20,
            pool_pages: 4096,
            pool_policy: EvictionPolicy::Lfu,
            consolidation: ConsolidationPolicy::layered_default(),
        }
    }
}

/// Cluster manager for the Page Store tier.
#[derive(Clone)]
pub struct PageStoreCluster {
    /// Shared cluster fabric (public for failure injection in tests).
    pub fabric: Fabric,
    servers: Arc<RwLock<HashMap<NodeId, Arc<PageStoreServer>>>>,
    /// Each slice's replica nodes. Pure data behind a leaf lock: never held
    /// across a fabric call or another lock.
    placement: Arc<RwLock<HashMap<SliceKey, Vec<NodeId>>>>,
    options: PageStoreOptions,
    replicas: usize,
}

impl PageStoreCluster {
    pub fn new(fabric: Fabric, replicas: usize, options: PageStoreOptions) -> Self {
        PageStoreCluster {
            fabric,
            servers: Arc::new(RwLock::new(HashMap::new())),
            placement: Arc::new(RwLock::new(HashMap::new())),
            options,
            replicas,
        }
    }

    /// Spawns a Page Store server node with its own device.
    pub fn spawn_server(&self, profile: StorageProfile) -> NodeId {
        let id = self.fabric.add_node(NodeKind::PageStore);
        let device = StorageDevice::in_memory(self.fabric.clock.clone(), profile);
        let server = PageStoreServer::new(
            device,
            self.options.log_cache_bytes,
            self.options.pool_pages,
            self.options.pool_policy,
            self.options.consolidation,
        );
        self.servers.write().insert(id, server);
        id
    }

    pub fn spawn_servers(&self, n: usize, profile: StorageProfile) -> Vec<NodeId> {
        (0..n).map(|_| self.spawn_server(profile)).collect()
    }

    fn server(&self, node: NodeId) -> Result<Arc<PageStoreServer>> {
        self.servers
            .read()
            .get(&node)
            .cloned()
            .ok_or(TaurusError::NodeUnavailable(node))
    }

    /// Direct handle to a server (tests / background drivers).
    pub fn server_handle(&self, node: NodeId) -> Option<Arc<PageStoreServer>> {
        self.servers.read().get(&node).cloned()
    }

    /// All registered server nodes.
    pub fn server_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.servers.read().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Whether `node` is a registered Page Store server that the fabric
    /// currently considers up. The SAL consults this when a fragment is
    /// parked: a live node can be repaired immediately, a dead one must
    /// wait for the recovery sweep.
    pub fn is_live(&self, node: NodeId) -> bool {
        self.servers.read().contains_key(&node) && self.fabric.is_up(node)
    }

    /// Current replica placement of a slice.
    pub fn replicas_of(&self, key: SliceKey) -> Vec<NodeId> {
        self.placement.read().get(&key).cloned().unwrap_or_default()
    }

    /// Every slice the cluster has placed, sorted.
    pub fn slices(&self) -> Vec<SliceKey> {
        let mut keys: Vec<SliceKey> = self.placement.read().keys().copied().collect();
        keys.sort();
        keys
    }

    /// Creates a slice on `replicas` healthy Page Stores. Idempotent and
    /// safe to race: the server-side create is `or_insert` and the
    /// placement entry is only written if still absent, so two concurrent
    /// creators converge on one authoritative replica set (the loser's
    /// extra server-side replicas are just re-created no-ops).
    pub fn create_slice(&self, key: SliceKey, from: NodeId) -> Result<Vec<NodeId>> {
        if let Some(nodes) = self.placement.read().get(&key) {
            return Ok(nodes.clone());
        }
        let nodes = self
            .fabric
            .pick_nodes(NodeKind::PageStore, self.replicas, &[])?;
        for &n in &nodes {
            let server = self.server(n)?;
            self.fabric.call(from, n, || server.create_slice(key))?;
        }
        Ok(self.placement.write().entry(key).or_insert(nodes).clone())
    }

    /// `WriteLogs` RPC to one specific replica, with no placement check: for
    /// the baseline systems and tests. The SAL ships through
    /// [`PageStoreCluster::write_logs_grouped`].
    pub fn write_logs_to(&self, node: NodeId, from: NodeId, frag: &SliceFragment) -> Result<Lsn> {
        let server = self.server(node)?;
        let ack = self.fabric.call(from, node, || server.write_logs(frag))??;
        Ok(ack.persistent)
    }

    /// `ReadPage` RPC to one specific replica.
    pub fn read_page_from(
        &self,
        node: NodeId,
        from: NodeId,
        key: SliceKey,
        page: PageId,
        as_of: Lsn,
    ) -> Result<(PageBuf, Lsn)> {
        let server = self.server(node)?;
        self.fabric
            .call(from, node, || server.read_page(key, page, as_of))?
    }

    /// Page-id inventory RPC: which pages a replica's Log Directory tracks
    /// for a slice. Used by the SAL's local scan fallback.
    pub fn page_ids_of(&self, node: NodeId, from: NodeId, key: SliceKey) -> Result<Vec<PageId>> {
        let server = self.server(node)?;
        self.fabric.call(from, node, || server.page_ids(key))?
    }

    /// `GetPersistentLSN` RPC to one specific replica.
    pub fn persistent_lsn_of(&self, node: NodeId, from: NodeId, key: SliceKey) -> Result<Lsn> {
        let server = self.server(node)?;
        self.fabric
            .call(from, node, || server.get_persistent_lsn(key))?
    }

    /// `SetRecycleLSN` broadcast of `(slice, recycle LSN)` pairs to every
    /// replica of each slice, in one grouped round: one envelope per Page
    /// Store node, carrying every pair whose slice it hosts (see
    /// [`PageStoreCluster::grouped`]). Returns the reclamation summed over
    /// the replicas that answered, so the SAL's recycle handshake can
    /// account what the broadcast actually freed.
    pub fn set_recycle_lsns(&self, from: NodeId, slices: &[(SliceKey, Lsn)]) -> RecycleReport {
        let mut by_node: BTreeMap<NodeId, Vec<(SliceKey, Lsn)>> = BTreeMap::new();
        {
            let placement = self.placement.read();
            for &(key, lsn) in slices {
                for &node in placement.get(&key).into_iter().flatten() {
                    by_node.entry(node).or_default().push((key, lsn));
                }
            }
        }
        let groups: Vec<(NodeId, Vec<(SliceKey, Lsn)>)> = by_node.into_iter().collect();
        let replies = self.grouped(from, &groups, |node, &(key, lsn)| {
            self.server(node)?.set_recycle_lsn(key, lsn)
        });
        let mut report = RecycleReport::default();
        for r in replies.into_iter().flatten().flatten() {
            report.absorb(r);
        }
        report
    }

    /// Aggregated Page Store stats across every server (bench reporting).
    pub fn store_stats(&self) -> PageStoreStatsSnapshot {
        let mut agg = PageStoreStatsSnapshot::default();
        for s in self.servers.read().values() {
            agg.absorb(s.stats.snapshot());
        }
        agg
    }

    /// One round of the gossip protocol for a slice: every pair of live
    /// replicas exchanges fragment inventories and copies what the other is
    /// missing (paper §5.2). Returns the number of fragments transferred.
    pub fn gossip(&self, key: SliceKey) -> usize {
        let nodes = self.replicas_of(key);
        let mut transferred = 0usize;
        // Gather fragment inventories and persistent LSNs from live replicas.
        type ReplicaInventory = (Lsn, Vec<(Lsn, Lsn, Lsn)>);
        let mut inventories: HashMap<NodeId, ReplicaInventory> = HashMap::new();
        for &n in &nodes {
            if !self.fabric.is_up(n) {
                continue;
            }
            let Ok(server) = self.server(n) else { continue };
            let inv = self.fabric.call(n, n, || -> Result<ReplicaInventory> {
                Ok((server.get_persistent_lsn(key)?, server.inventory(key)?))
            });
            if let Ok(Ok(inv)) = inv {
                inventories.insert(n, inv);
            }
        }
        for (&dst, (dst_persistent, have)) in &inventories {
            let mut have_set: std::collections::HashSet<(Lsn, Lsn)> =
                have.iter().map(|(f, l, _)| (*f, *l)).collect();
            for (&src, (_, src_have)) in &inventories {
                if src == dst {
                    continue;
                }
                for &(first, last, _prev) in src_have {
                    // Skip fragments the destination already covers.
                    if last <= *dst_persistent || have_set.contains(&(first, last)) {
                        continue;
                    }
                    // dst pulls the missing fragment from src.
                    let Ok(src_server) = self.server(src) else {
                        continue;
                    };
                    let frag = self
                        .fabric
                        .call(dst, src, || src_server.get_fragment(key, first, last));
                    if let Ok(Ok(frag)) = frag {
                        let Ok(dst_server) = self.server(dst) else {
                            continue;
                        };
                        if dst_server.write_logs(&frag).is_ok() {
                            have_set.insert((first, last));
                            transferred += 1;
                        }
                    }
                }
            }
        }
        transferred
    }

    /// One gossip round across every slice (the periodic 30-minute sweep).
    /// It starts by dropping the copies the placement no longer names
    /// ([`PageStoreCluster::drop_stray_replicas`]).
    pub fn gossip_all(&self) -> usize {
        self.drop_stray_replicas();
        self.slices().iter().map(|k| self.gossip(*k)).sum()
    }

    /// Drops every slice copy hosted by a live server that the placement
    /// map does not name as a replica: a rebuilt-away replica whose node
    /// came back up, or the extra copies of a creation race's loser. A
    /// hosted slice with no placement entry yet is left alone: the server
    /// create lands before the placement insert. Returns the copies dropped.
    pub fn drop_stray_replicas(&self) -> usize {
        let mut dropped = 0usize;
        for node in self.server_nodes() {
            if !self.fabric.is_up(node) {
                continue;
            }
            let Ok(server) = self.server(node) else {
                continue;
            };
            let Ok(hosted) = self.fabric.call(node, node, || server.slice_keys()) else {
                continue;
            };
            for key in hosted {
                let stray = self
                    .placement
                    .read()
                    .get(&key)
                    .is_some_and(|nodes| !nodes.contains(&node));
                if stray
                    && self
                        .fabric
                        .call(node, node, || server.drop_slice(key))
                        .is_ok()
                {
                    dropped += 1;
                }
            }
        }
        dropped
    }

    /// Rebuilds the replica of `key` lost with `failed` on a fresh node:
    /// picks a healthy node, copies the latest pages from a live donor, and
    /// swaps the placement entry (paper §5.2). The new replica accepts
    /// writes during the copy. Returns the new node.
    pub fn rebuild_replica(&self, key: SliceKey, failed: NodeId, from: NodeId) -> Result<NodeId> {
        let nodes = self.replicas_of(key);
        if !nodes.contains(&failed) {
            return Err(TaurusError::Internal(format!(
                "{failed} does not host {key}"
            )));
        }
        // Find a live donor.
        let donor = nodes
            .iter()
            .copied()
            .find(|&n| n != failed && self.fabric.is_up(n))
            .ok_or(TaurusError::AllReplicasFailed(key))?;
        let donor_server = self.server(donor)?;
        let export = self
            .fabric
            .call(from, donor, || donor_server.export_slice(key))??;
        let new_node = self
            .fabric
            .pick_nodes(NodeKind::PageStore, 1, &nodes)?
            .pop()
            .ok_or_else(|| TaurusError::Internal("pick_nodes(1) returned no node".into()))?;
        let new_server = self.server(new_node)?;
        let (plsn, rlsn) = (export.persistent_lsn, export.recycle_lsn);
        self.fabric.call(from, new_node, || {
            new_server.create_rebuilding_slice(key, plsn, rlsn)
        })?;
        // Swap placement first so new writes reach the rebuilding replica;
        // callers re-learn the replica set by refreshing.
        if let Some(nodes) = self.placement.write().get_mut(&key) {
            if let Some(slot) = nodes.iter_mut().find(|n| **n == failed) {
                *slot = new_node;
            }
        }
        let new_server = self.server(new_node)?;
        let pages = export.pages;
        self.fabric
            .call(from, new_node, move || new_server.import_pages(key, pages))??;
        Ok(new_node)
    }

    /// Refuses a write to `node` unless the placement names it as a replica
    /// of `key` (a rebuild may have replaced it under the caller).
    fn check_replica(&self, key: SliceKey, node: NodeId) -> Result<()> {
        match self.placement.read().get(&key) {
            None => Err(TaurusError::SliceNotFound(key)),
            Some(nodes) if nodes.contains(&node) => Ok(()),
            Some(_) => Err(TaurusError::NotAReplica { slice: key, node }),
        }
    }

    /// One fabric envelope per node: every request of a group rides a single
    /// round trip (one latency charge) to that group's node and is answered
    /// by `handle`, demuxed back per request in input order. A failed
    /// envelope fails all of its slots with `NodeUnavailable`; the caller
    /// fails over per slice.
    fn grouped<Q: Sync, R: Send>(
        &self,
        from: NodeId,
        groups: &[(NodeId, Vec<Q>)],
        handle: impl Fn(NodeId, &Q) -> Result<R> + Sync,
    ) -> Vec<Vec<Result<R>>> {
        // One request is one `Fabric::call` (every single-page read is one):
        // the same round trip without boxing and demuxing an envelope.
        if let [(node, reqs)] = groups {
            if let [req] = &reqs[..] {
                let node = *node;
                let reply = match self.fabric.call(from, node, || handle(node, req)) {
                    Ok(reply) => reply,
                    Err(_) => Err(TaurusError::NodeUnavailable(node)),
                };
                return vec![vec![reply]];
            }
        }
        type Handler<'a, R> = Box<dyn FnOnce() -> Result<R> + Send + 'a>;
        let handle = &handle;
        let calls: Vec<(NodeId, Vec<Handler<'_, R>>)> = groups
            .iter()
            .map(|(node, reqs)| {
                let node = *node;
                let handlers = reqs
                    .iter()
                    .map(|req| Box::new(move || handle(node, req)) as Handler<'_, R>)
                    .collect();
                (node, handlers)
            })
            .collect();
        self.fabric
            .call_grouped(from, calls)
            .into_iter()
            .map(|slots| slots.into_iter().map(|s| s.and_then(|r| r)).collect())
            .collect()
    }

    /// Grouped `ReadPages`: one envelope per node carrying every per-slice
    /// request bound for it (see [`PageStoreCluster::grouped`]; one round
    /// trip returns many versioned pages of each slice, see
    /// [`crate::readpages`]). Requests are unchecked, like
    /// [`PageStoreCluster::read_page_from`].
    pub fn read_pages_grouped(
        &self,
        from: NodeId,
        groups: &[(NodeId, Vec<&ReadPagesRequest>)],
    ) -> Vec<Vec<Result<ReadPagesResponse>>> {
        self.grouped(from, groups, |node, req| self.server(node)?.read_pages(req))
    }

    /// Grouped `ScanSlice`: one envelope per node carrying every slice's
    /// scan request (near-data scan pushdown, see [`crate::pushdown`]).
    pub fn scan_slices_grouped(
        &self,
        from: NodeId,
        groups: &[(NodeId, Vec<&ScanSliceRequest>)],
    ) -> Vec<Vec<Result<ScanSliceResponse>>> {
        self.grouped(from, groups, |node, req| self.server(node)?.scan_slice(req))
    }

    /// Grouped `WriteLogs`: ships a run of fragments to each node in one
    /// envelope. A slot whose node the placement no longer names for its
    /// slice is refused with [`TaurusError::NotAReplica`] (retryable after
    /// a refresh); every other slot returns its fragment's [`WriteAck`]:
    /// the piggybacked persistent LSN and the node's backlog. Safe to
    /// re-send on partial failure: Page Stores disregard duplicate log
    /// records.
    pub fn write_logs_grouped(
        &self,
        from: NodeId,
        groups: &[FragmentGroup],
    ) -> Vec<Vec<Result<WriteAck>>> {
        self.grouped(from, groups, |node, frag| {
            self.check_replica(frag.slice, node)?;
            self.server(node)?.write_logs(frag)
        })
    }

    /// The largest unconsolidated-log backlog across servers, in bytes,
    /// down nodes included, read with no fabric call: a gauge for benches.
    /// The SAL's throttle (paper §7) follows the backlog each `WriteLogs`
    /// reply carries instead ([`WriteAck::backlog`]).
    pub fn max_backlog_pressure(&self) -> usize {
        self.servers
            .read()
            .values()
            .map(|s| s.log_cache.pressure())
            .max()
            .unwrap_or(0)
    }

    /// Drains every server's consolidation queue (tests and single-threaded
    /// harnesses).
    pub fn consolidate_all(&self) {
        let servers: Vec<Arc<PageStoreServer>> = self.servers.read().values().cloned().collect();
        for s in servers {
            s.consolidate_all();
        }
    }

    /// Starts one background consolidation thread per server. Returns a
    /// guard; drop it (or call `stop`) to terminate the threads.
    ///
    /// A thread with nothing to consolidate **blocks** until its server
    /// ingests a fragment (`write_logs` signals it) — an idle Page Store
    /// costs the foreground no wake-ups. The one timed wake-up retries a
    /// step, which covers the state changes that arrive without an ingest
    /// (a rebuilt slice going live).
    pub fn start_background_consolidation(&self) -> ConsolidationGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let servers: Vec<Arc<PageStoreServer>> = self.servers.read().values().cloned().collect();
        let handles = servers
            .iter()
            .enumerate()
            .map(|(i, server)| {
                let server = Arc::clone(server);
                let stop = Arc::clone(&stop);
                taurus_common::clock::spawn_background(
                    format!("taurus-consolidate-{i}"),
                    move || {
                        while !stop.load(Ordering::Acquire) {
                            if !server.consolidate_step() {
                                server.wait_for_work(IDLE_RETRY_INTERVAL);
                            }
                        }
                    },
                )
            })
            .collect();
        ConsolidationGuard {
            stop,
            servers,
            handles,
        }
    }
}

/// How long an idle consolidation thread sleeps before it looks for work
/// nobody signalled.
const IDLE_RETRY_INTERVAL: std::time::Duration = std::time::Duration::from_millis(10);

/// Join guard for background consolidation threads.
pub struct ConsolidationGuard {
    stop: Arc<AtomicBool>,
    servers: Vec<Arc<PageStoreServer>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ConsolidationGuard {
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        // The flag first, then the wake-up through the same flag-under-mutex
        // the threads wait on: none can miss it and sleep out its interval.
        for server in &self.servers {
            server.signal_work();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ConsolidationGuard {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use taurus_common::clock::ManualClock;
    use taurus_common::config::NetworkProfile;
    use taurus_common::page::PageType;
    use taurus_common::record::{LogRecord, RecordBody};
    use taurus_common::{DbId, SliceId};

    fn setup(n: usize) -> (PageStoreCluster, NodeId) {
        let clock = ManualClock::shared();
        let fabric = Fabric::new(clock, NetworkProfile::instant(), 11);
        let me = fabric.add_node(NodeKind::Compute);
        let cluster = PageStoreCluster::new(
            fabric,
            3,
            PageStoreOptions {
                log_cache_bytes: 1 << 20,
                pool_pages: 128,
                ..PageStoreOptions::default()
            },
        );
        cluster.spawn_servers(n, StorageProfile::instant());
        (cluster, me)
    }

    fn key() -> SliceKey {
        SliceKey::new(DbId(1), SliceId(0))
    }

    /// One-record fragment at `lsn`, chained after `prev`.
    fn frag(prev: u64, lsn: u64, page: u64) -> SliceFragment {
        let body = if lsn % 2 == 1 {
            RecordBody::Format {
                ty: PageType::Leaf,
                level: 0,
            }
        } else {
            RecordBody::Insert {
                idx: 0,
                key: Bytes::from(format!("k{lsn}")),
                val: Bytes::from(format!("v{lsn}")),
            }
        };
        SliceFragment::new(
            key(),
            Lsn(prev),
            vec![LogRecord::new(Lsn(lsn), PageId(page), body)],
        )
    }

    #[test]
    fn create_slice_places_three_replicas() {
        let (c, me) = setup(5);
        let nodes = c.create_slice(key(), me).unwrap();
        assert_eq!(nodes.len(), 3);
        for n in &nodes {
            assert!(c.server_handle(*n).unwrap().has_slice(key()));
        }
        // Idempotent.
        assert_eq!(c.create_slice(key(), me).unwrap(), nodes);
    }

    /// Four slices of one page each, three replicas apiece over five nodes,
    /// behind a network of 100 µs hops. Each page took six one-record
    /// fragments, sealed and compacted: history a recycle can free.
    fn recyclable() -> (PageStoreCluster, NodeId, Vec<(SliceKey, Lsn)>) {
        let network = NetworkProfile {
            hop_us: 100,
            ..NetworkProfile::instant()
        };
        let fabric = Fabric::new(ManualClock::shared(), network, 11);
        let me = fabric.add_node(NodeKind::Compute);
        let options = PageStoreOptions {
            consolidation: ConsolidationPolicy::Layered {
                l0_target_bytes: 1,
                compaction_threshold: 2,
            },
            ..PageStoreOptions::default()
        };
        let c = PageStoreCluster::new(fabric, 3, options);
        c.spawn_servers(5, StorageProfile::instant());
        let last = 6;
        let slices: Vec<(SliceKey, Lsn)> = (0..4)
            .map(|s| (SliceKey::new(DbId(1), SliceId(s)), Lsn(last)))
            .collect();
        for &(key, _) in &slices {
            let page = PageId(100 * key.slice.0 + 1);
            let nodes = c.create_slice(key, me).unwrap();
            for lsn in 1..=last {
                let body = match lsn {
                    1 => RecordBody::Format {
                        ty: PageType::Leaf,
                        level: 0,
                    },
                    _ => RecordBody::Insert {
                        idx: 0,
                        key: Bytes::from(format!("k{lsn}")),
                        val: Bytes::from_static(b"v"),
                    },
                };
                let record = LogRecord::new(Lsn(lsn), page, body);
                let fragment = SliceFragment::new(key, Lsn(lsn - 1), vec![record]);
                for &node in &nodes {
                    c.write_logs_to(node, me, &fragment).unwrap();
                }
            }
        }
        for node in c.server_nodes() {
            c.server_handle(node).unwrap().consolidate_all();
        }
        (c, me, slices)
    }

    #[test]
    fn a_recycle_broadcast_is_one_grouped_round_to_every_replica() {
        let (c, me, slices) = recyclable();
        // Twelve replicas on five nodes: one envelope per node, all in
        // flight at once — one round trip, not twelve.
        let sent = c.fabric.clock.now_us();
        let report = c.set_recycle_lsns(me, &slices);
        assert_eq!(c.fabric.clock.now_us() - sent, 200);
        for &(key, lsn) in &slices {
            for node in c.replicas_of(key) {
                let server = c.server_handle(node).unwrap();
                assert_eq!(server.export_slice(key).unwrap().recycle_lsn, lsn);
            }
        }
        // The report sums what every replica freed: the same as recycling
        // each replica of a twin cluster directly.
        let (twin, _, _) = recyclable();
        let mut want = RecycleReport::default();
        for &(key, lsn) in &slices {
            for node in twin.replicas_of(key) {
                let server = twin.server_handle(node).unwrap();
                want.absorb(server.set_recycle_lsn(key, lsn).unwrap());
            }
        }
        assert!(want.purged_ptrs > 0, "{want:?}");
        assert_eq!(report, want);
    }

    #[test]
    fn idle_consolidation_threads_block_until_an_ingest_wakes_them() {
        use std::time::{Duration, Instant};
        let (c, me) = setup(6);
        let nodes = c.create_slice(key(), me).unwrap();
        let servers: Vec<Arc<PageStoreServer>> = c.servers.read().values().cloned().collect();
        let idle_steps = || -> u64 { servers.iter().map(|s| s.stats.idle_steps.get()).sum() };
        let guard = c.start_background_consolidation();
        // Idle: six threads, nothing to do. A polling loop (one step per
        // 50 µs sleep) makes thousands of calls here; blocked threads make
        // their timed retry wake-ups and nothing else.
        let before = idle_steps();
        #[expect(
            clippy::disallowed_methods,
            reason = "an idle window of real time: what the consolidation threads do in it is the test"
        )]
        std::thread::sleep(Duration::from_millis(200));
        let polled = idle_steps() - before;
        assert!(polled <= 200, "{polled} consolidate_step calls while idle");
        // An ingest wakes its server's thread at once — not at the next
        // timed wake-up: the fragment is staged into the open L0 promptly.
        #[expect(
            clippy::disallowed_methods,
            reason = "bounds a real-thread wake-up in wall-clock time"
        )]
        let written = Instant::now();
        for &n in &nodes {
            c.write_logs_to(n, me, &frag(0, 1, 7)).unwrap();
        }
        let staged = |n: &NodeId| {
            let layers = c.server_handle(*n).unwrap().layers(key()).unwrap();
            layers.census().0 == 1
        };
        while !nodes.iter().all(staged) {
            assert!(
                written.elapsed() < Duration::from_millis(50),
                "fragment not staged within 50 ms of its ingest"
            );
            std::thread::yield_now();
        }
        // Stopping wakes every thread instead of waiting out its interval.
        #[expect(
            clippy::disallowed_methods,
            reason = "bounds a real-thread wake-up in wall-clock time"
        )]
        let stopping = Instant::now();
        drop(guard);
        let took = stopping.elapsed();
        assert!(took < Duration::from_millis(50), "stop took {took:?}");
        // The wake-up is the ingest's own signal, not the timer: an accepted
        // fragment raises it, a duplicate delivery does not.
        let server = c.server_handle(nodes[0]).unwrap();
        server.wait_for_work(Duration::ZERO);
        c.write_logs_to(nodes[0], me, &frag(1, 2, 7)).unwrap();
        assert!(server.wait_for_work(Duration::ZERO));
        c.write_logs_to(nodes[0], me, &frag(1, 2, 7)).unwrap();
        assert!(!server.wait_for_work(Duration::ZERO));
    }

    #[test]
    fn gossip_repairs_a_lagging_replica() {
        let (c, me) = setup(4);
        let nodes = c.create_slice(key(), me).unwrap();
        // Replicas 0 and 1 get both fragments; replica 2 misses fragment 1
        // (as if it was down during the wait-for-one write).
        for &n in &nodes {
            c.write_logs_to(n, me, &frag(0, 1, 7)).unwrap();
        }
        for &n in &nodes[..2] {
            c.write_logs_to(n, me, &frag(1, 2, 7)).unwrap();
        }
        assert_eq!(c.persistent_lsn_of(nodes[2], me, key()).unwrap(), Lsn(1));
        let moved = c.gossip(key());
        assert_eq!(moved, 1);
        assert_eq!(c.persistent_lsn_of(nodes[2], me, key()).unwrap(), Lsn(2));
    }

    #[test]
    fn gossip_skips_down_replicas_and_recovers_them_later() {
        let (c, me) = setup(4);
        let nodes = c.create_slice(key(), me).unwrap();
        for &n in &nodes {
            c.write_logs_to(n, me, &frag(0, 1, 7)).unwrap();
        }
        c.fabric.set_down(nodes[2]);
        for &n in &nodes[..2] {
            c.write_logs_to(n, me, &frag(1, 2, 7)).unwrap();
        }
        // Down replica: gossip moves nothing to it.
        assert_eq!(c.gossip(key()), 0);
        // It comes back (short-term failure) and gossip catches it up —
        // exactly the paper's Fig. 4(a) scenario.
        c.fabric.set_up(nodes[2]);
        assert_eq!(c.gossip(key()), 1);
        assert_eq!(c.persistent_lsn_of(nodes[2], me, key()).unwrap(), Lsn(2));
    }

    #[test]
    fn rebuild_replaces_failed_replica_with_full_content() {
        let (c, me) = setup(5);
        let nodes = c.create_slice(key(), me).unwrap();
        for &n in &nodes {
            c.write_logs_to(n, me, &frag(0, 1, 7)).unwrap();
            c.write_logs_to(n, me, &frag(1, 2, 7)).unwrap();
        }
        c.consolidate_all();
        let failed = nodes[0];
        c.fabric.set_down(failed);
        c.fabric.decommission(failed);
        let new_node = c.rebuild_replica(key(), failed, me).unwrap();
        assert!(!c.replicas_of(key()).contains(&failed));
        assert!(c.replicas_of(key()).contains(&new_node));
        // The rebuilt replica serves reads at the donor's persistent LSN.
        let (page, lsn) = c
            .read_page_from(new_node, me, key(), PageId(7), Lsn(2))
            .unwrap();
        assert_eq!(lsn, Lsn(2));
        assert_eq!(page.nslots(), 1);
    }

    #[test]
    fn rebuild_fails_if_all_other_replicas_are_down() {
        let (c, me) = setup(5);
        let nodes = c.create_slice(key(), me).unwrap();
        for &n in &nodes {
            c.fabric.set_down(n);
        }
        assert!(matches!(
            c.rebuild_replica(key(), nodes[0], me),
            Err(TaurusError::AllReplicasFailed(_))
        ));
    }

    #[test]
    fn writes_during_rebuild_reach_the_new_replica() {
        let (c, me) = setup(5);
        let nodes = c.create_slice(key(), me).unwrap();
        for &n in &nodes {
            c.write_logs_to(n, me, &frag(0, 1, 7)).unwrap();
        }
        let failed = nodes[0];
        c.fabric.set_down(failed);
        c.fabric.decommission(failed);
        let new_node = c.rebuild_replica(key(), failed, me).unwrap();
        // A write arriving after the placement swap lands on the new node.
        c.write_logs_to(new_node, me, &frag(1, 2, 7)).unwrap();
        assert_eq!(c.persistent_lsn_of(new_node, me, key()).unwrap(), Lsn(2));
    }

    #[test]
    fn a_rebuilt_away_replica_is_refused_writes_and_dropped_when_it_returns() {
        let (c, me) = setup(5);
        let nodes = c.create_slice(key(), me).unwrap();
        for &n in &nodes {
            c.write_logs_to(n, me, &frag(0, 1, 7)).unwrap();
        }
        let failed = nodes[0];
        c.fabric.set_down(failed);
        let new_node = c.rebuild_replica(key(), failed, me).unwrap();
        // It comes back up. A write sent from the old replica list is
        // refused there and lands on the newcomer.
        c.fabric.set_up(failed);
        let f2 = Arc::new(frag(1, 2, 7));
        let groups: Vec<FragmentGroup> = [failed, new_node]
            .iter()
            .map(|&n| (n, vec![Arc::clone(&f2)]))
            .collect();
        let slots: Vec<Result<WriteAck>> = c
            .write_logs_grouped(me, &groups)
            .into_iter()
            .flatten()
            .collect();
        assert!(matches!(slots[0], Err(TaurusError::NotAReplica { node, .. }) if node == failed));
        assert!(matches!(&slots[1], Ok(ack) if ack.persistent == Lsn(2)));
        assert_eq!(c.persistent_lsn_of(failed, me, key()).unwrap(), Lsn(1));
        // The gossip round drops the stray copy and keeps the newcomer's.
        assert_eq!(c.drop_stray_replicas(), 1);
        assert!(!c.server_handle(failed).unwrap().has_slice(key()));
        assert!(c.server_handle(new_node).unwrap().has_slice(key()));
    }
}
