//! The Page Store cluster: placement, gossip, elastic cut-over storage ops,
//! and replica rebuild.
//!
//! Unlike PLogs, slices cannot move freely: "a Page Store must have access
//! to all log records for the pages that it is responsible for. This
//! requirement prevents us from switching Page Stores in the same way as we
//! switch Log Stores" (paper §3.4). The cluster manager therefore tracks an
//! epoch-stamped placement per slice (the [`PlacementMap`], DESIGN.md §14),
//! repairs divergence between replicas with the gossip protocol (§4.1 step
//! 6), rebuilds replicas on fresh nodes after long-term failures (§5.2),
//! and provides the storage half of online split/merge/move: seeding a new
//! placement from a donor's layer snapshot and fencing the old one at the
//! cut-over LSN. The gossip sweep also carries the placement epoch, so a
//! replica that missed a cut-over (down at the time) learns its fence — or
//! that its copy is orphaned — in the next round instead of serving fenced
//! reads until repair notices.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use taurus_common::config::StorageProfile;
use taurus_common::{DbId, Lsn, NodeId, PageBuf, PageId, Result, SliceKey, TaurusError};
use taurus_fabric::{Fabric, NodeKind, StorageDevice};

use crate::fragment::SliceFragment;
use crate::placement::{IngestFilter, PlacementMap, DYNAMIC_SLICE_BASE};
use crate::pool::EvictionPolicy;
use crate::pushdown::{ScanSliceRequest, ScanSliceResponse};
use crate::readpages::{ReadPagesRequest, ReadPagesResponse};
use crate::server::{
    ConsolidationPolicy, PageStoreServer, PageStoreStatsSnapshot, RecycleReport, SliceExport,
    SliceHeatSnapshot,
};

/// One `write_logs_grouped` envelope: a node and its `(fragment, epoch)` pairs.
pub type FragmentGroup = (NodeId, Vec<(Arc<SliceFragment>, u64)>);

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

/// A caller-facing copy of one slice's placement (what the SAL caches).
#[derive(Clone, Debug)]
pub struct PlacementView {
    pub nodes: Vec<NodeId>,
    pub epoch: u64,
    pub base_lsn: Lsn,
    pub fence_lsn: Option<Lsn>,
}

/// Cluster manager for the Page Store tier.
#[derive(Clone)]
pub struct PageStoreCluster {
    /// Shared cluster fabric (public for failure injection in tests).
    pub fabric: Fabric,
    servers: Arc<RwLock<HashMap<NodeId, Arc<PageStoreServer>>>>,
    /// The versioned placement map. Pure data: the lock is a leaf (never
    /// held across fabric calls or other locks), so placement reads are
    /// safe from under the SAL state lock.
    placement: Arc<RwLock<PlacementMap>>,
    options: PageStoreOptions,
    replicas: usize,
}

impl PageStoreCluster {
    pub fn new(fabric: Fabric, replicas: usize, options: PageStoreOptions) -> Self {
        PageStoreCluster {
            fabric,
            servers: Arc::new(RwLock::new(HashMap::new())),
            placement: Arc::new(RwLock::new(PlacementMap::new())),
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

    /// Current replica placement of a slice (active or retired).
    pub fn replicas_of(&self, key: SliceKey) -> Vec<NodeId> {
        self.placement
            .read()
            .get(key)
            .map(|e| e.nodes.clone())
            .unwrap_or_default()
    }

    /// All **active** slices the cluster knows about (retired cut-over
    /// parents excluded), sorted.
    pub fn slices(&self) -> Vec<SliceKey> {
        self.placement.read().active_slices()
    }

    /// Every slice with a placement entry, retired history included.
    pub fn all_slices(&self) -> Vec<SliceKey> {
        self.placement.read().all_slices()
    }

    /// Creates a slice on `replicas` healthy Page Stores. Idempotent and
    /// safe to race: the server-side create is `or_insert` and the
    /// placement entry is only written if still absent, so two concurrent
    /// creators converge on one authoritative replica set (the loser's
    /// extra server-side replicas are just re-created no-ops).
    pub fn create_slice(&self, key: SliceKey, from: NodeId) -> Result<Vec<NodeId>> {
        if let Some(entry) = self.placement.read().get(key) {
            return Ok(entry.nodes.clone());
        }
        let nodes = self
            .fabric
            .pick_nodes(NodeKind::PageStore, self.replicas, &[])?;
        for &n in &nodes {
            let server = self.server(n)?;
            self.fabric.call(from, n, || server.create_slice(key))?;
        }
        Ok(self.placement.write().insert_root(key, nodes))
    }

    /// `WriteLogs` RPC to one specific replica, with no placement check: for
    /// the baseline systems and tests. The SAL ships through
    /// [`PageStoreCluster::write_logs_grouped`].
    pub fn write_logs_to(&self, node: NodeId, from: NodeId, frag: &SliceFragment) -> Result<Lsn> {
        let server = self.server(node)?;
        self.fabric.call(from, node, || server.write_logs(frag))?
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
                for &node in placement.get(key).map_or(&[][..], |e| &e.nodes) {
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
    /// Covers retired cut-over parents too — their replicas must converge
    /// on the full history below the fence so versioned reads keep working
    /// until GC reclaims them — and starts with the placement sweep, so the
    /// round also carries the placement epoch to every hosted replica.
    pub fn gossip_all(&self) -> usize {
        let _ = self.placement_sweep();
        self.all_slices().iter().map(|k| self.gossip(*k)).sum()
    }

    /// The placement half of a gossip round: for every replica hosted by a
    /// live server, compare against the placement map and push what the
    /// replica is missing — the fence and epoch of a cut-over it slept
    /// through, or the news that its copy is orphaned (GC'd retired slice,
    /// moved-away ex-replica, crashed mid-cut-over child) and should be
    /// dropped. This is what lets a stale replica learn a move in the next
    /// gossip round instead of serving fenced reads forever. Returns
    /// `(fences_pushed, orphans_dropped)`.
    pub fn placement_sweep(&self) -> (usize, usize) {
        enum Act {
            Fence(Lsn, u64),
            Drop,
            Keep,
        }
        let mut pushed = 0usize;
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
                // Decide under the placement read lock, act outside it.
                let act = {
                    let p = self.placement.read();
                    match p.get(key) {
                        None => {
                            // No placement entry. A dynamic slice here is a
                            // GC'd or crashed-mid-cut-over orphan; a root
                            // slice may be racing its own creation (server
                            // create lands before the placement insert), so
                            // leave those alone.
                            if key.slice.0 >= DYNAMIC_SLICE_BASE {
                                Act::Drop
                            } else {
                                Act::Keep
                            }
                        }
                        Some(e) => {
                            if let Some((_, f)) = e.retired_nodes.iter().find(|(n, _)| *n == node) {
                                Act::Fence(*f, e.epoch)
                            } else if !e.nodes.contains(&node) {
                                // A copy on a node the placement no longer
                                // names: a rebuilt-away replica that came
                                // back up, or a moved-away one already GC'd
                                // from `retired_nodes`.
                                Act::Drop
                            } else if let Some(f) = e.fence_lsn {
                                Act::Fence(f, e.epoch)
                            } else {
                                Act::Keep
                            }
                        }
                    }
                };
                match act {
                    Act::Fence(f, ep) => {
                        if let Ok(Ok(true)) = self
                            .fabric
                            .call(node, node, || server.fence_slice(key, f, ep))
                        {
                            pushed += 1;
                        }
                    }
                    Act::Drop => {
                        if self
                            .fabric
                            .call(node, node, || server.drop_slice(key))
                            .is_ok()
                        {
                            dropped += 1;
                        }
                    }
                    Act::Keep => {}
                }
            }
        }
        (pushed, dropped)
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
        // Swap placement first so new writes reach the rebuilding replica.
        // Deliberately no epoch bump: rebuild keeps the placement
        // generation, callers just refresh the replica set as before.
        self.placement.write().replace_node(key, failed, new_node);
        let new_server = self.server(new_node)?;
        let pages = export.pages;
        self.fabric
            .call(from, new_node, move || new_server.import_pages(key, pages))??;
        Ok(new_node)
    }

    // ------------------------------------------------------------------
    // Elastic placement (DESIGN.md §14): epoch-checked RPCs, cut-over
    // storage primitives, heat, and retired-state GC.
    // ------------------------------------------------------------------

    /// Current global placement epoch.
    pub fn placement_epoch(&self) -> u64 {
        self.placement.read().epoch()
    }

    /// Caller-facing view of one slice's placement entry (what the SAL
    /// seeds its per-slice state from).
    pub fn placement_view(&self, key: SliceKey) -> Option<PlacementView> {
        self.placement.read().get(key).map(|e| PlacementView {
            nodes: e.nodes.clone(),
            epoch: e.epoch,
            base_lsn: e.base_lsn,
            fence_lsn: e.fence_lsn,
        })
    }

    /// Active owner of a page for writes (see [`PlacementMap::route_write`]).
    pub fn route_write(&self, db: DbId, page: PageId, pps: u64) -> SliceKey {
        self.placement.read().route_write(db, page, pps)
    }

    /// Owner of a page version for reads (see [`PlacementMap::route_read`]).
    pub fn route_read(&self, db: DbId, page: PageId, pps: u64, as_of: Option<Lsn>) -> SliceKey {
        self.placement.read().route_read(db, page, pps, as_of)
    }

    /// Which log records belong to `key` (see [`IngestFilter`]).
    pub fn ingest_filter(&self, key: SliceKey, pps: u64) -> Option<IngestFilter> {
        self.placement.read().ingest_filter(key, pps)
    }

    /// Whether `key` is a retired cut-over parent (fenced).
    pub fn is_retired(&self, key: SliceKey) -> bool {
        self.placement.read().is_retired(key)
    }

    /// The page range `[start, end)` a slice owns.
    pub fn slice_range(&self, key: SliceKey, pps: u64) -> Option<(u64, u64)> {
        self.placement.read().get(key).map(|e| e.range_of(key, pps))
    }

    /// Allocates a fresh dynamic slice key for `db` (split/merge children).
    pub fn allocate_dynamic(&self, db: DbId) -> SliceKey {
        self.placement.write().allocate_dynamic(db)
    }

    fn check_rpc(
        &self,
        key: SliceKey,
        node: NodeId,
        epoch: u64,
        write_last: Option<Lsn>,
    ) -> Result<()> {
        self.placement
            .read()
            .check_rpc(key, node, epoch, write_last)
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

    /// Grouped epoch-checked `WriteLogs`: ships a run of fragments to each
    /// node in one envelope. Each slot carries the caller's cached placement
    /// epoch — refused with `PlacementEpochMismatch` (retryable after a
    /// refresh) when the placement moved under the caller — and returns that
    /// fragment's piggybacked persistent LSN. Safe to re-send on partial
    /// failure: Page Stores disregard duplicate log records.
    pub fn write_logs_grouped(
        &self,
        from: NodeId,
        groups: &[FragmentGroup],
    ) -> Vec<Vec<Result<Lsn>>> {
        self.grouped(from, groups, |node, (frag, epoch)| {
            self.check_rpc(frag.slice, node, *epoch, Some(frag.last_lsn()))?;
            self.server(node)?.write_logs(frag)
        })
    }

    /// Exports a seed snapshot from a live replica of `donor_key`: its
    /// latest page versions materialized at its persistent LSN, optionally
    /// restricted to a page range (the split case). The returned
    /// `persistent_lsn` is the base LSN `E` of the snapshot — the horizon
    /// the delta replay starts above.
    pub fn export_snapshot(
        &self,
        donor_key: SliceKey,
        range: Option<(u64, u64)>,
        from: NodeId,
    ) -> Result<SliceExport> {
        let donors = self.replicas_of(donor_key);
        let donor = donors
            .iter()
            .copied()
            .find(|&n| self.is_live(n))
            .ok_or(TaurusError::AllReplicasFailed(donor_key))?;
        let donor_server = self.server(donor)?;
        let mut export = self
            .fabric
            .call(from, donor, || donor_server.export_slice(donor_key))??;
        if let Some((start, end)) = range {
            export
                .pages
                .retain(|(page, _, _)| page.0 >= start && page.0 < end);
        }
        Ok(export)
    }

    /// Installs seed snapshots as a new slice `child` on `targets`. The
    /// child is created `rebuilding` at the **minimum** base across the
    /// snapshots (the merge case seeds from two donors with different
    /// horizons; the fragment chain must start at the lower one so the
    /// delta replay can cover both) and accepts new writes immediately.
    /// Returns that base LSN.
    pub fn install_seed(
        &self,
        child: SliceKey,
        targets: &[NodeId],
        snapshots: Vec<SliceExport>,
        from: NodeId,
    ) -> Result<Lsn> {
        let base = snapshots
            .iter()
            .map(|s| s.persistent_lsn)
            .min()
            .unwrap_or(Lsn::ZERO);
        let recycle = snapshots
            .iter()
            .map(|s| s.recycle_lsn)
            .min()
            .unwrap_or(Lsn::ZERO);
        for &n in targets {
            let server = self.server(n)?;
            self.fabric.call(from, n, || {
                server.create_rebuilding_slice(child, base, recycle)
            })?;
            for snap in &snapshots {
                let server = self.server(n)?;
                let pages = snap.pages.clone();
                self.fabric
                    .call(from, n, move || server.import_pages(child, pages))??;
            }
        }
        Ok(base)
    }

    /// Pushes a cut-over fence to the given replicas of `key`. Best-effort:
    /// down nodes are skipped — the gossip placement sweep re-pushes the
    /// fence every round until they learn it. Returns how many acked.
    pub fn fence_replicas(
        &self,
        key: SliceKey,
        nodes: &[NodeId],
        fence: Lsn,
        epoch: u64,
        from: NodeId,
    ) -> usize {
        let mut acked = 0usize;
        for &n in nodes {
            if !self.is_live(n) {
                continue;
            }
            let Ok(server) = self.server(n) else { continue };
            if let Ok(Ok(_)) = self
                .fabric
                .call(from, n, || server.fence_slice(key, fence, epoch))
            {
                acked += 1;
            }
        }
        acked
    }

    /// Commits a split in the placement map (pure memory; see
    /// [`PlacementMap::commit_split`]). Returns the new global epoch.
    #[allow(clippy::too_many_arguments)]
    pub fn commit_split(
        &self,
        parent: SliceKey,
        pps: u64,
        at_page: u64,
        left: (SliceKey, Vec<NodeId>),
        right: (SliceKey, Vec<NodeId>),
        base: Lsn,
        fence: Lsn,
    ) -> Result<u64> {
        self.placement
            .write()
            .commit_split(parent, pps, at_page, left, right, base, fence)
    }

    /// Commits a merge in the placement map. Returns the new global epoch.
    pub fn commit_merge(
        &self,
        left: SliceKey,
        right: SliceKey,
        pps: u64,
        merged: (SliceKey, Vec<NodeId>),
        base: Lsn,
        fence: Lsn,
    ) -> Result<u64> {
        self.placement
            .write()
            .commit_merge(left, right, pps, merged, base, fence)
    }

    /// Commits a replica move in the placement map. Returns the new epoch.
    pub fn commit_move(
        &self,
        key: SliceKey,
        from_node: NodeId,
        to_node: NodeId,
        fence: Lsn,
    ) -> Result<u64> {
        self.placement
            .write()
            .commit_move(key, from_node, to_node, fence)
    }

    /// Drops retired placement state no versioned read can reach any more
    /// (fence below the recycle LSN) along with the server-side replicas
    /// backing it. Called from the SAL's recycle handshake. Returns how
    /// many replica copies were dropped.
    pub fn gc_retired(&self, recycle: Lsn, from: NodeId) -> usize {
        let drops = self.placement.write().gc_below(recycle);
        let mut dropped = 0usize;
        for (key, nodes) in drops {
            for n in nodes {
                let Ok(server) = self.server(n) else { continue };
                if self.fabric.call(from, n, || server.drop_slice(key)).is_ok() {
                    dropped += 1;
                }
            }
        }
        dropped
    }

    /// Per-node heat (slice ops/bytes served) across every registered
    /// server, sorted by node id. Bench reporting and the rebalancer's
    /// spread metric.
    pub fn heat_by_node(&self) -> Vec<(NodeId, SliceHeatSnapshot)> {
        let mut out: Vec<(NodeId, SliceHeatSnapshot)> = self
            .servers
            .read()
            .iter()
            .map(|(&n, s)| {
                let mut agg = SliceHeatSnapshot::default();
                for (_, h) in s.heat_snapshot() {
                    agg.absorb(h);
                }
                (n, agg)
            })
            .collect();
        out.sort_by_key(|(n, _)| *n);
        out
    }

    /// Per-slice heat aggregated across replicas, hottest first (ties by
    /// key, so the order is deterministic).
    pub fn heat_by_slice(&self) -> Vec<(SliceKey, SliceHeatSnapshot)> {
        let mut agg: HashMap<SliceKey, SliceHeatSnapshot> = HashMap::new();
        for s in self.servers.read().values() {
            for (k, h) in s.heat_snapshot() {
                agg.entry(k).or_default().absorb(h);
            }
        }
        let mut out: Vec<(SliceKey, SliceHeatSnapshot)> = agg.into_iter().collect();
        out.sort_by(|a, b| b.1.ops().cmp(&a.1.ops()).then(a.0.cmp(&b.0)));
        out
    }

    /// The `n` least-loaded live Page Store nodes by total heat (ties by
    /// node id), excluding `exclude`. Deterministic — no RNG draw, unlike
    /// `pick_nodes` — so elastic placement decisions don't perturb the
    /// fabric's random stream.
    pub fn least_loaded_nodes(&self, n: usize, exclude: &[NodeId]) -> Result<Vec<NodeId>> {
        let mut heat: Vec<(u64, NodeId)> = self
            .heat_by_node()
            .into_iter()
            .filter(|(node, _)| self.fabric.is_up(*node) && !exclude.contains(node))
            .map(|(node, h)| (h.ops(), node))
            .collect();
        heat.sort_unstable();
        if heat.len() < n {
            return Err(TaurusError::Internal(format!(
                "need {n} page store nodes, only {} live outside the exclusion set",
                heat.len()
            )));
        }
        Ok(heat.into_iter().take(n).map(|(_, node)| node).collect())
    }

    /// The largest unconsolidated-log backlog across servers, in bytes.
    /// The SAL consults this to throttle master writes when consolidation
    /// falls behind (paper §7).
    pub fn max_backlog_pressure(&self) -> usize {
        self.servers
            .read()
            .values()
            .map(|s| s.backlog_pressure())
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
        std::thread::sleep(Duration::from_millis(200));
        let polled = idle_steps() - before;
        assert!(polled <= 200, "{polled} consolidate_step calls while idle");
        // An ingest wakes its server's thread at once — not at the next
        // timed wake-up: the fragment is staged into the open L0 promptly.
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
    fn split_cutover_routes_fences_and_accepts_checked_writes() {
        let (c, me) = setup(6);
        let parent = key();
        let pps = 64u64;
        let nodes = c.create_slice(parent, me).unwrap();
        for &n in &nodes {
            c.write_logs_to(n, me, &frag(0, 1, 7)).unwrap();
            c.write_logs_to(n, me, &frag(1, 2, 7)).unwrap();
            c.write_logs_to(n, me, &frag(2, 3, 40)).unwrap();
            c.write_logs_to(n, me, &frag(3, 4, 40)).unwrap();
        }
        // Seed two children from range-filtered snapshots of the parent.
        let l = c.allocate_dynamic(DbId(1));
        let r = c.allocate_dynamic(DbId(1));
        let snap_l = c.export_snapshot(parent, Some((0, 32)), me).unwrap();
        let snap_r = c.export_snapshot(parent, Some((32, 64)), me).unwrap();
        assert_eq!(snap_l.persistent_lsn, Lsn(4));
        assert!(snap_l.pages.iter().all(|(p, _, _)| p.0 < 32));
        let rt = c.least_loaded_nodes(3, &nodes).unwrap();
        let base = c.install_seed(l, &nodes, vec![snap_l], me).unwrap();
        c.install_seed(r, &rt, vec![snap_r], me).unwrap();
        let epoch = c
            .commit_split(
                parent,
                pps,
                32,
                (l, nodes.clone()),
                (r, rt.clone()),
                base,
                Lsn(4),
            )
            .unwrap();
        assert_eq!(c.fence_replicas(parent, &nodes, Lsn(4), epoch, me), 3);
        // Routing: writes go to the children, history to the parent.
        assert!(c.is_retired(parent));
        assert_eq!(c.route_write(DbId(1), PageId(7), pps), l);
        assert_eq!(c.route_write(DbId(1), PageId(40), pps), r);
        assert_eq!(c.route_read(DbId(1), PageId(40), pps, Some(Lsn(4))), parent);
        assert_eq!(c.route_read(DbId(1), PageId(40), pps, Some(Lsn(5))), r);
        // The fenced parent still serves history but refuses the future.
        let (page, lsn) = c
            .read_page_from(nodes[0], me, parent, PageId(40), Lsn(4))
            .unwrap();
        assert_eq!((page.nslots(), lsn), (1, Lsn(4)));
        assert!(matches!(
            c.read_page_from(nodes[0], me, parent, PageId(40), Lsn(5)),
            Err(TaurusError::SliceFenced { .. })
        ));
        // Epoch-checked writes: stale epoch refused, fresh epoch lands.
        let f5 = Arc::new(SliceFragment::new(
            r,
            Lsn(4),
            vec![LogRecord::new(
                Lsn(5),
                PageId(40),
                RecordBody::Insert {
                    idx: 1,
                    key: Bytes::from("k5"),
                    val: Bytes::from("v5"),
                },
            )],
        ));
        let ship = |epoch| {
            let groups: Vec<FragmentGroup> = rt
                .iter()
                .map(|&n| (n, vec![(Arc::clone(&f5), epoch)]))
                .collect();
            c.write_logs_grouped(me, &groups).into_iter().flatten()
        };
        assert!(ship(0).all(|slot| matches!(slot, Err(TaurusError::PlacementEpochMismatch { .. }))));
        assert!(ship(epoch).all(|slot| matches!(slot, Ok(Lsn(5)))));
        let (page, lsn) = c.read_page_from(rt[0], me, r, PageId(40), Lsn(5)).unwrap();
        assert_eq!((page.nslots(), lsn), (2, Lsn(5)));
    }

    #[test]
    fn placement_sweep_fences_replica_that_slept_through_a_move() {
        let (c, me) = setup(5);
        let parent = key();
        let nodes = c.create_slice(parent, me).unwrap();
        for &n in &nodes {
            c.write_logs_to(n, me, &frag(0, 1, 7)).unwrap();
        }
        // nodes[2] sleeps through the whole move.
        c.fabric.set_down(nodes[2]);
        let to = c.least_loaded_nodes(1, &nodes).unwrap()[0];
        let snap = c.export_snapshot(parent, None, me).unwrap();
        c.install_seed(parent, &[to], vec![snap], me).unwrap();
        let epoch = c.commit_move(parent, nodes[2], to, Lsn(1)).unwrap();
        assert_eq!(c.fence_replicas(parent, &[nodes[2]], Lsn(1), epoch, me), 0);
        assert!(c.replicas_of(parent).contains(&to));
        // It comes back: the next gossip round pushes the fence it missed.
        c.fabric.set_up(nodes[2]);
        let (pushed, dropped) = c.placement_sweep();
        assert_eq!((pushed, dropped), (1, 0));
        assert!(matches!(
            c.read_page_from(nodes[2], me, parent, PageId(7), Lsn(2)),
            Err(TaurusError::SliceFenced { .. })
        ));
        // Once the recycle LSN passes the fence, GC drops the ex-replica.
        assert_eq!(c.gc_retired(Lsn(2), me), 1);
        assert!(!c.server_handle(nodes[2]).unwrap().has_slice(parent));
        assert!(c.server_handle(to).unwrap().has_slice(parent));
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
}
