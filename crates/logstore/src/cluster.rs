//! The Log Store cluster manager.
//!
//! Owns the server registry and the authoritative *PLog directory* mapping
//! each PLog to the three servers holding its replicas. Provides the
//! replicated operations the SAL uses:
//!
//! * [`LogStoreCluster::create_plog`] — pick three healthy servers
//!   (paper §3.3: "the cluster manager chooses three Log Store servers");
//! * [`LogStoreCluster::append`] — synchronous 3/3 write with the replica
//!   writes issued in parallel (ack latency = max of three, paper §3.2):
//!   acknowledged only when **all** replicas report success; any failure
//!   seals the PLog so the writer allocates a fresh one elsewhere (writes
//!   are never retried to the old location — paper §3.3). A PLog has one
//!   writer with at most one append in flight, so every replica applies
//!   its appends in the order they arrive, the same order everywhere;
//! * [`LogStoreCluster::read_from`] and [`LogStoreCluster::read_append`] —
//!   succeed as long as *one* replica is alive;
//! * [`LogStoreCluster::rereplicate_from`] — long-term failure repair:
//!   re-creates the lost replicas on healthy nodes from a survivor
//!   (paper §5.1).

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use taurus_common::{DbId, NodeId, PLogId, Result, TaurusError};
use taurus_fabric::{Fabric, NodeKind, StorageDevice};

use crate::server::{LogStoreReadsSnapshot, LogStoreServer};

/// Directory entry for one PLog: its replica placement and the number of
/// bytes whose 3/3 replication has been acknowledged. Readers are served
/// only up to `committed_len`, so a half-replicated append that failed (and
/// sealed the PLog) can never become visible — the paper's "writes are
/// acknowledged only when all three Log Store replicas report a successful
/// write" invariant, enforced on the read side.
#[derive(Clone, Debug)]
struct PLogMeta {
    nodes: Vec<NodeId>,
    committed_len: u64,
    /// Appends started. One more than `committed` while an append is in
    /// flight — and for good once one failed: the PLog is dead.
    started: u64,
    /// Appends committed: the first `committed` appends, `committed_len`
    /// bytes.
    committed: u64,
}

impl PLogMeta {
    fn new(nodes: Vec<NodeId>) -> Self {
        PLogMeta {
            nodes,
            committed_len: 0,
            started: 0,
            committed: 0,
        }
    }
}

/// Cluster manager for the Log Store tier.
#[derive(Clone)]
pub struct LogStoreCluster {
    /// Shared cluster fabric (public so orchestration and tests can inject
    /// failures).
    pub fabric: Fabric,
    servers: Arc<RwLock<HashMap<NodeId, Arc<LogStoreServer>>>>,
    directory: Arc<RwLock<HashMap<PLogId, PLogMeta>>>,
    /// Control-plane registry: the metadata PLog of each database's log
    /// (paper: metadata PLog discovery is a control-plane lookup).
    meta_registry: Arc<RwLock<HashMap<DbId, PLogId>>>,
    cache_bytes: usize,
    replicas: usize,
}

impl LogStoreCluster {
    pub fn new(fabric: Fabric, replicas: usize, cache_bytes: usize) -> Self {
        LogStoreCluster {
            fabric,
            servers: Arc::new(RwLock::new(HashMap::new())),
            directory: Arc::new(RwLock::new(HashMap::new())),
            meta_registry: Arc::new(RwLock::new(HashMap::new())),
            cache_bytes,
            replicas,
        }
    }

    /// Spawns a new Log Store server node with its own device.
    pub fn spawn_server(&self, profile: taurus_common::config::StorageProfile) -> NodeId {
        let id = self.fabric.add_node(NodeKind::LogStore);
        let device = StorageDevice::in_memory(self.fabric.clock.clone(), profile);
        self.servers
            .write()
            .insert(id, LogStoreServer::new(device, self.cache_bytes));
        id
    }

    /// Spawns `n` servers.
    pub fn spawn_servers(
        &self,
        n: usize,
        profile: taurus_common::config::StorageProfile,
    ) -> Vec<NodeId> {
        (0..n).map(|_| self.spawn_server(profile)).collect()
    }

    fn server(&self, node: NodeId) -> Result<Arc<LogStoreServer>> {
        self.servers
            .read()
            .get(&node)
            .cloned()
            .ok_or(TaurusError::NodeUnavailable(node))
    }

    /// Direct handle to a server, for tests that need to inspect node state.
    pub fn server_handle(&self, node: NodeId) -> Option<Arc<LogStoreServer>> {
        self.servers.read().get(&node).cloned()
    }

    /// Current replica placement of a PLog.
    pub fn replicas_of(&self, id: PLogId) -> Vec<NodeId> {
        self.directory
            .read()
            .get(&id)
            .map(|m| m.nodes.clone())
            .unwrap_or_default()
    }

    /// Acknowledged (3/3-replicated) length of a PLog.
    pub fn committed_len(&self, id: PLogId) -> u64 {
        self.directory
            .read()
            .get(&id)
            .map(|m| m.committed_len)
            .unwrap_or(0)
    }

    /// Creates a PLog replicated on `self.replicas` healthy servers chosen by
    /// the cluster manager.
    pub fn create_plog(&self, id: PLogId, from: NodeId) -> Result<Vec<NodeId>> {
        let nodes = self
            .fabric
            .pick_nodes(NodeKind::LogStore, self.replicas, &[])?;
        for &n in &nodes {
            let server = self.server(n)?;
            self.fabric.call(from, n, || server.create_plog(id))?;
        }
        self.directory
            .write()
            .insert(id, PLogMeta::new(nodes.clone()));
        Ok(nodes)
    }

    /// Appends committed to a PLog.
    pub fn committed_appends(&self, id: PLogId) -> u64 {
        self.directory
            .read()
            .get(&id)
            .map(|m| m.committed)
            .unwrap_or(0)
    }

    /// Synchronously replicated append, for the PLog's one writer: the
    /// three replica writes are in flight **concurrently** (one
    /// [`Fabric::call_all`]: this thread runs each server append at its
    /// request's arrival and waits the three legs' hops and device times
    /// at once) and the append is acknowledged when all of them report
    /// success at the committed length, so ack latency is the max of the
    /// three writes rather than their sum (paper §3.2).
    ///
    /// On any failure the PLog is sealed on every reachable replica and
    /// `PLogSealed` is returned — the writer must allocate a new PLog and
    /// write there instead (never retry to the old location). A PLog whose
    /// last append started and never committed (it failed, or another is
    /// still in flight) is refused at once, without a round trip.
    pub fn append(&self, id: PLogId, from: NodeId, data: Bytes) -> Result<()> {
        let (nodes, offset) = {
            let mut dir = self.directory.write();
            let meta = dir.get_mut(&id).ok_or(TaurusError::PLogNotFound(id))?;
            if meta.started != meta.committed {
                return Err(TaurusError::PLogSealed(id));
            }
            meta.started += 1;
            (meta.nodes.clone(), meta.committed_len)
        };
        let mut servers = Vec::with_capacity(nodes.len());
        for &n in &nodes {
            match self.server(n) {
                Ok(s) => servers.push((n, s)),
                Err(_) => {
                    self.seal(id, from);
                    return Err(TaurusError::PLogSealed(id));
                }
            }
        }
        let calls: Vec<_> = servers
            .into_iter()
            .map(|(n, server)| {
                let data = data.clone();
                let f: Box<dyn FnOnce() -> Result<u64> + Send> =
                    Box::new(move || server.append(id, data));
                (n, f)
            })
            .collect();
        let results = self.fabric.call_all(from, calls);
        // Every replica must have put the append where the directory's
        // committed length says it goes: replicas stay byte-identical.
        if results
            .into_iter()
            .all(|r| matches!(r, Ok(Ok(at)) if at == offset))
        {
            let mut dir = self.directory.write();
            if let Some(meta) = dir.get_mut(&id) {
                meta.committed_len += data.len() as u64;
                meta.committed += 1;
            }
            return Ok(());
        }
        // Partial failure: seal everywhere reachable so the failed write can
        // never be half-visible, then tell the writer to move on.
        self.seal(id, from);
        Err(TaurusError::PLogSealed(id))
    }

    /// Whether a PLog is sealed, as recorded server-side. Best effort: asks
    /// replicas in order and takes the first answer; an unreachable cluster
    /// reads as "not sealed" (callers treat the answer as advisory — e.g. a
    /// tail reader simply retries on its next poll).
    pub fn is_sealed(&self, id: PLogId, from: NodeId) -> bool {
        for n in self.replicas_of(id) {
            let Ok(server) = self.server(n) else { continue };
            if let Ok(Ok(sealed)) = self.fabric.call(from, n, || server.is_sealed(id)) {
                return sealed;
            }
        }
        false
    }

    /// Whether a PLog's last append started and has not committed: it
    /// failed (or is still in flight, for the writer itself to know).
    /// After a failure the PLog is permanently dead for writing — a replica
    /// that missed the seal may still take bytes, but the directory
    /// refuses every further append.
    pub fn has_sequence_gap(&self, id: PLogId) -> bool {
        self.directory
            .read()
            .get(&id)
            .map(|m| m.started != m.committed)
            .unwrap_or(false)
    }

    /// Seals a PLog on every reachable replica (best effort).
    pub fn seal(&self, id: PLogId, from: NodeId) {
        for n in self.replicas_of(id) {
            if let Ok(server) = self.server(n) {
                let _ = self.fabric.call(from, n, || server.seal(id));
            }
        }
    }

    /// Reads everything from `offset` onward; succeeds if at least one
    /// replica is reachable (paper §3.3: "reads from the Log Store will
    /// succeed as long as there is at least one PLog replica available").
    pub fn read_from(&self, id: PLogId, from: NodeId, offset: u64) -> Result<Bytes> {
        let acked = |m: &PLogMeta| offset < m.committed_len;
        let read = |s: &LogStoreServer| Ok((offset, s.read_from(id, offset)?));
        Ok(self.read_replica(id, from, u64::MAX, acked, read)?.1)
    }

    /// Reads from the start of append `k` (0-based) of a PLog, at most
    /// `max_len` bytes: the append's logical offset, and the bytes. Bounded
    /// the way [`LogStoreCluster::read_from`] is: an append at or past the
    /// committed ones reads as no bytes, and none past the committed
    /// length are served. A frame-header probe passes the header's length,
    /// a read of the rest of the PLog `u64::MAX`.
    pub fn read_append(
        &self,
        id: PLogId,
        from: NodeId,
        k: u64,
        max_len: u64,
    ) -> Result<(u64, Bytes)> {
        let acked = |m: &PLogMeta| k < m.committed;
        self.read_replica(id, from, max_len, acked, |s| s.read_append(id, k, max_len))
    }

    /// Runs `read` on the first replica that answers, keeping at most
    /// `max_len` bytes and none past the committed length — unless the
    /// directory says nothing `acked` is there to read.
    fn read_replica(
        &self,
        id: PLogId,
        from: NodeId,
        max_len: u64,
        acked: impl Fn(&PLogMeta) -> bool,
        read: impl Fn(&LogStoreServer) -> Result<(u64, Bytes)>,
    ) -> Result<(u64, Bytes)> {
        let (nodes, committed) = {
            let dir = self.directory.read();
            let meta = dir.get(&id).ok_or(TaurusError::PLogNotFound(id))?;
            if !acked(meta) {
                return Ok((meta.committed_len, Bytes::new()));
            }
            (meta.nodes.clone(), meta.committed_len)
        };
        let mut last_err = TaurusError::PLogNotFound(id);
        for n in nodes {
            let Ok(server) = self.server(n) else { continue };
            match self.fabric.call(from, n, || read(&server)) {
                Ok(Ok((offset, data))) => {
                    // Never expose bytes past the acknowledged length: a
                    // replica may carry the tail of a failed (unacked) write.
                    let visible = committed.saturating_sub(offset).min(max_len) as usize;
                    if data.len() >= visible {
                        return Ok((offset, data.slice(0..visible)));
                    }
                    // Replica is missing acknowledged data (should not
                    // happen); fall through to the next replica.
                    last_err = TaurusError::Codec("replica shorter than committed length");
                }
                Ok(Err(e)) | Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Every read the cluster's Log Store servers served, summed.
    pub fn read_stats(&self) -> LogStoreReadsSnapshot {
        let mut sum = LogStoreReadsSnapshot::default();
        for server in self.servers.read().values() {
            sum.absorb(server.reads.snapshot());
        }
        sum
    }

    /// Deletes a PLog from all reachable replicas and the directory (log
    /// truncation).
    pub fn delete_plog(&self, id: PLogId, from: NodeId) {
        for n in self.replicas_of(id) {
            if let Ok(server) = self.server(n) {
                let _ = self.fabric.call(from, n, || server.delete_plog(id));
            }
        }
        self.directory.write().remove(&id);
    }

    /// Long-term failure repair: for every PLog with a replica on `failed`,
    /// copy the data from a surviving replica to a freshly chosen healthy
    /// server and update the directory. Returns the number of PLog replicas
    /// re-created.
    ///
    /// Only the **committed** prefix is copied: a survivor may still carry
    /// the tail of a failed (never-acknowledged) 3/3 append, and installing
    /// those bytes on the replacement would resurrect a write the client was
    /// told did not happen. The same unacknowledged tail is clipped off the
    /// survivors (best effort), so after repair all three replicas are
    /// byte-identical.
    pub fn rereplicate_from(&self, failed: NodeId, from: NodeId) -> Result<usize> {
        let affected: Vec<(PLogId, Vec<NodeId>, u64, u64)> = self
            .directory
            .read()
            .iter()
            .filter(|(_, meta)| meta.nodes.contains(&failed))
            .map(|(id, meta)| (*id, meta.nodes.clone(), meta.committed_len, meta.committed))
            .collect();
        let mut repaired = 0usize;
        for (id, nodes, committed_len, committed) in affected {
            let survivors: Vec<NodeId> = nodes.iter().copied().filter(|&n| n != failed).collect();
            // Read the committed prefix from any survivor that has all of
            // it, with its append boundaries.
            let mut content = None;
            for &s in &survivors {
                let Ok(server) = self.server(s) else { continue };
                let read = self.fabric.call(from, s, || -> Result<_> {
                    let lens = server.append_lens(id)?;
                    Ok((server.read_from(id, 0)?, lens, server.is_sealed(id)?))
                });
                if let Ok(Ok((data, mut lens, sealed))) = read {
                    if (data.len() as u64) < committed_len {
                        // Missing acknowledged bytes (should not happen);
                        // try the next survivor.
                        continue;
                    }
                    lens.truncate(committed as usize);
                    content = Some((data.slice(0..committed_len as usize), lens, sealed));
                    break;
                }
            }
            let Some((data, lens, sealed)) = content else {
                // No survivor readable right now; the plog stays
                // under-replicated until a later repair pass.
                continue;
            };
            let new_node = self
                .fabric
                .pick_nodes(NodeKind::LogStore, 1, &nodes)?
                .pop()
                .ok_or_else(|| TaurusError::Internal("pick_nodes(1) returned no node".into()))?;
            let server = self.server(new_node)?;
            let install = data.clone();
            self.fabric.call(from, new_node, || {
                server.install_replica(id, install, &lens, sealed)
            })??;
            // Clip the unacknowledged tail off the survivors so all replicas
            // are byte-identical after repair. Best effort: an unreachable
            // survivor keeps its (invisible, read-side-capped) tail.
            for &s in &survivors {
                let Ok(server) = self.server(s) else { continue };
                let _ = self
                    .fabric
                    .call(from, s, || server.truncate_to(id, committed_len));
            }
            let mut dir = self.directory.write();
            if let Some(meta) = dir.get_mut(&id) {
                if let Some(slot) = meta.nodes.iter_mut().find(|n| **n == failed) {
                    *slot = new_node;
                }
            }
            repaired += 1;
        }
        Ok(repaired)
    }

    /// Registers the metadata PLog of a database's log.
    pub fn set_meta_plog(&self, db: DbId, id: PLogId) {
        self.meta_registry.write().insert(db, id);
    }

    /// Looks up the metadata PLog of a database's log.
    pub fn meta_plog(&self, db: DbId) -> Option<PLogId> {
        self.meta_registry.read().get(&db).copied()
    }

    /// Recovery-only: retracts a PLog's acknowledged length to `len` (with
    /// `appends` appends committed), physically truncating every reachable
    /// replica. Used to discard *orphaned* flush frames after a crash — spans
    /// that a stream made durable while an earlier span on a sibling stream
    /// did not, leaving a log hole. Those bytes were 3/3-acked at the PLog
    /// level but their transactions were never acknowledged (`durable_lsn`
    /// never covered them), so dropping them is the only consistent choice.
    ///
    /// The directory is the source of truth for visibility (`read_from` caps
    /// at `committed_len`), so an unreachable replica that keeps the orphan
    /// bytes can never serve them.
    pub fn truncate_plog_to(&self, id: PLogId, from: NodeId, len: u64, appends: u64) -> Result<()> {
        {
            let mut dir = self.directory.write();
            let meta = dir.get_mut(&id).ok_or(TaurusError::PLogNotFound(id))?;
            if len > meta.committed_len {
                return Err(TaurusError::Internal(
                    "truncate_plog_to beyond committed length".into(),
                ));
            }
            meta.committed_len = len;
            meta.committed = appends;
            meta.started = appends;
        }
        for n in self.replicas_of(id) {
            if let Ok(server) = self.server(n) {
                let _ = self.fabric.call(from, n, || server.truncate_to(id, len));
            }
        }
        Ok(())
    }

    /// Total PLogs tracked in the directory.
    pub fn plog_count(&self) -> usize {
        self.directory.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::clock::ManualClock;
    use taurus_common::config::{NetworkProfile, StorageProfile};
    use taurus_common::DbId;

    fn cluster(n: usize) -> (LogStoreCluster, Vec<NodeId>, NodeId) {
        let clock = ManualClock::shared();
        let fabric = Fabric::new(clock, NetworkProfile::instant(), 99);
        let compute = fabric.add_node(NodeKind::Compute);
        let cluster = LogStoreCluster::new(fabric, 3, 1 << 20);
        let nodes = cluster.spawn_servers(n, StorageProfile::instant());
        (cluster, nodes, compute)
    }

    fn id(seq: u64) -> PLogId {
        PLogId::new(DbId(1), seq, 0)
    }

    #[test]
    fn create_append_read() {
        let (c, _, me) = cluster(5);
        let nodes = c.create_plog(id(1), me).unwrap();
        assert_eq!(nodes.len(), 3);
        c.append(id(1), me, Bytes::from_static(b"hello")).unwrap();
        c.append(id(1), me, Bytes::from_static(b" world")).unwrap();
        assert_eq!(
            c.read_from(id(1), me, 0).unwrap(),
            Bytes::from_static(b"hello world")
        );
    }

    #[test]
    fn all_replicas_hold_identical_content() {
        let (c, _, me) = cluster(4);
        c.create_plog(id(1), me).unwrap();
        c.append(id(1), me, Bytes::from_static(b"abc")).unwrap();
        for n in c.replicas_of(id(1)) {
            let s = c.server_handle(n).unwrap();
            assert_eq!(s.read_from(id(1), 0).unwrap(), Bytes::from_static(b"abc"));
        }
    }

    #[test]
    fn append_with_down_replica_seals_the_plog() {
        let (c, _, me) = cluster(6);
        c.create_plog(id(1), me).unwrap();
        c.append(id(1), me, Bytes::from_static(b"ok")).unwrap();
        let victim = c.replicas_of(id(1))[0];
        // Take one replica down: the 3/3 write must fail and seal.
        let fabric = c.fabric.clone();
        fabric.set_down(victim);
        assert!(matches!(
            c.append(id(1), me, Bytes::from_static(b"fails")),
            Err(TaurusError::PLogSealed(_))
        ));
        // Survivors are sealed; even after the victim recovers, appends fail.
        fabric.set_up(victim);
        assert!(c
            .append(id(1), me, Bytes::from_static(b"still fails"))
            .is_err());
        // Reads still work and show only the acknowledged data.
        assert_eq!(
            c.read_from(id(1), me, 0).unwrap(),
            Bytes::from_static(b"ok")
        );
    }

    #[test]
    fn reads_survive_two_replica_failures() {
        let (c, _, me) = cluster(5);
        c.create_plog(id(1), me).unwrap();
        c.append(id(1), me, Bytes::from_static(b"durable")).unwrap();
        let replicas = c.replicas_of(id(1));
        c.fabric.set_down(replicas[0]);
        c.fabric.set_down(replicas[1]);
        assert_eq!(
            c.read_from(id(1), me, 0).unwrap(),
            Bytes::from_static(b"durable")
        );
        // Third one down: reads fail.
        c.fabric.set_down(replicas[2]);
        assert!(c.read_from(id(1), me, 0).is_err());
    }

    #[test]
    fn delete_plog_removes_everywhere() {
        let (c, _, me) = cluster(4);
        c.create_plog(id(1), me).unwrap();
        c.append(id(1), me, Bytes::from_static(b"x")).unwrap();
        let replicas = c.replicas_of(id(1));
        c.delete_plog(id(1), me);
        assert_eq!(c.plog_count(), 0);
        for n in replicas {
            assert_eq!(c.server_handle(n).unwrap().plog_count(), 0);
        }
    }

    #[test]
    fn rereplication_restores_replica_count_and_content() {
        let (c, _, me) = cluster(6);
        c.create_plog(id(1), me).unwrap();
        c.append(id(1), me, Bytes::from_static(b"precious"))
            .unwrap();
        c.seal(id(1), me);
        let old = c.replicas_of(id(1));
        let failed = old[1];
        c.fabric.set_down(failed);
        c.fabric.decommission(failed);
        let repaired = c.rereplicate_from(failed, me).unwrap();
        assert_eq!(repaired, 1);
        let new = c.replicas_of(id(1));
        assert_eq!(new.len(), 3);
        assert!(!new.contains(&failed));
        // The replacement holds the full content and the sealed flag.
        let added: Vec<_> = new.iter().filter(|n| !old.contains(n)).collect();
        assert_eq!(added.len(), 1);
        let s = c.server_handle(*added[0]).unwrap();
        assert_eq!(
            s.read_from(id(1), 0).unwrap(),
            Bytes::from_static(b"precious")
        );
        assert!(s.is_sealed(id(1)).unwrap());
    }

    #[test]
    fn rereplication_does_not_resurrect_unacknowledged_tail() {
        let (c, _, me) = cluster(6);
        c.create_plog(id(1), me).unwrap();
        c.append(id(1), me, Bytes::from_static(b"acked")).unwrap();
        let victim = c.replicas_of(id(1))[0];
        // The victim dies; the failed 3/3 append still lands its bytes on
        // the two survivors before sealing.
        c.fabric.set_down(victim);
        assert!(c
            .append(id(1), me, Bytes::from_static(b"never-acked"))
            .is_err());
        for &n in &c.replicas_of(id(1)) {
            if n != victim {
                let s = c.server_handle(n).unwrap();
                assert_eq!(
                    s.read_from(id(1), 0).unwrap(),
                    Bytes::from_static(b"ackednever-acked"),
                    "survivors carry the unacknowledged tail before repair"
                );
            }
        }
        c.fabric.decommission(victim);
        assert_eq!(c.rereplicate_from(victim, me).unwrap(), 1);
        // After repair all three replicas hold exactly the committed bytes:
        // the replacement was installed from the committed prefix and the
        // survivors' unacknowledged tails were clipped.
        let replicas = c.replicas_of(id(1));
        assert_eq!(replicas.len(), 3);
        assert!(!replicas.contains(&victim));
        for n in replicas {
            let s = c.server_handle(n).unwrap();
            assert_eq!(
                s.read_from(id(1), 0).unwrap(),
                Bytes::from_static(b"acked"),
                "replica on {n} diverges after repair"
            );
            assert!(s.is_sealed(id(1)).unwrap());
        }
        assert_eq!(
            c.read_from(id(1), me, 0).unwrap(),
            Bytes::from_static(b"acked")
        );
    }

    #[test]
    fn writes_keep_succeeding_while_three_healthy_nodes_exist() {
        // The availability claim: a failed write seals and moves on; as long
        // as any 3 healthy servers exist, a *new* PLog write succeeds.
        let (c, nodes, me) = cluster(10);
        c.create_plog(id(1), me).unwrap();
        // Kill 7 of 10 nodes.
        for &n in &nodes[..7] {
            c.fabric.set_down(n);
        }
        // The old plog may or may not be writable; a fresh plog must be.
        let fresh = id(2);
        c.create_plog(fresh, me).unwrap();
        c.append(fresh, me, Bytes::from_static(b"still writable"))
            .unwrap();
        // With only 2 healthy nodes, creation fails.
        c.fabric.set_down(nodes[7]);
        assert!(c.create_plog(id(3), me).is_err());
    }
}
