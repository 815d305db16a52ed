//! A Log Store server: hosts PLog replicas on one storage node.
//!
//! Each server owns a [`StorageDevice`] onto which all hosted PLog replicas
//! append (interleaved, as on a real log-structured device), plus a FIFO
//! write-through cache serving tail reads. Sealed PLogs are read-only
//! forever; this is what makes short-term Log Store failures recovery-free
//! (paper §5.1: "as soon as a Log Store becomes unavailable, all PLogs
//! located on the Log Store stop accepting new writes").

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use taurus_common::metrics::Counter;
use taurus_common::{PLogId, Result, TaurusError};
use taurus_fabric::StorageDevice;

use crate::cache::FifoLogCache;

taurus_common::counters! {
    /// Reads one Log Store server served, from its cache or its device
    /// ([`crate::LogStoreCluster::read_stats`] sums them over the cluster).
    pub struct LogStoreReads => LogStoreReadsSnapshot {
        /// Read calls served (`read_from` and `read_append`).
        pub reads: Counter,
        /// Bytes those reads returned.
        pub bytes: Counter,
    }
}

/// Per-replica state of a PLog hosted on this server.
#[derive(Debug, Default)]
struct PLogReplica {
    /// (device offset, length) of each append, in order: entry `k` is
    /// append `k`. Logical PLog offset is the running sum of lengths.
    segments: Vec<(u64, u32)>,
    logical_len: u64,
    sealed: bool,
}

#[derive(Debug)]
struct State {
    plogs: HashMap<PLogId, PLogReplica>,
    cache: FifoLogCache,
}

/// One Log Store server process.
#[derive(Debug)]
pub struct LogStoreServer {
    device: StorageDevice,
    state: Mutex<State>,
    /// Every read served.
    pub reads: LogStoreReads,
}

impl LogStoreServer {
    pub fn new(device: StorageDevice, cache_bytes: usize) -> Arc<Self> {
        Arc::new(LogStoreServer {
            device,
            state: Mutex::new(State {
                plogs: HashMap::new(),
                cache: FifoLogCache::new(cache_bytes),
            }),
            reads: LogStoreReads::default(),
        })
    }

    /// Creates an empty PLog replica. Idempotent.
    pub fn create_plog(&self, id: PLogId) {
        self.state.lock().plogs.entry(id).or_default();
    }

    /// Appends `data` to a PLog replica, returning the logical offset the
    /// data landed at. Fails if the PLog is sealed or unknown. A PLog's one
    /// writer has at most one append in flight, so appends apply in the
    /// order they arrive — the same order on every replica.
    pub fn append(&self, id: PLogId, data: Bytes) -> Result<u64> {
        // Device I/O happens outside the state lock; the offset the segment
        // lands at is whatever the device returns, so interleaving with other
        // PLogs is harmless.
        let dev_off = self.device.append_shared(data.clone())?;
        let mut st = self.state.lock();
        let replica = st.plogs.get_mut(&id).ok_or(TaurusError::PLogNotFound(id))?;
        if replica.sealed {
            return Err(TaurusError::PLogSealed(id));
        }
        let logical = replica.logical_len;
        replica.segments.push((dev_off, data.len() as u32));
        replica.logical_len += data.len() as u64;
        st.cache.insert(id, logical, data);
        Ok(logical)
    }

    /// Replaces (or creates) a PLog replica wholesale with `data`, the
    /// appends of lengths `lens` back to back — the re-replication
    /// installer.
    pub fn install_replica(
        &self,
        id: PLogId,
        data: Bytes,
        lens: &[u32],
        sealed: bool,
    ) -> Result<()> {
        let mut dev_off = if data.is_empty() {
            0
        } else {
            self.device.append_shared(data.clone())?
        };
        let mut st = self.state.lock();
        let segments = lens
            .iter()
            .map(|&len| {
                dev_off += len as u64;
                (dev_off - len as u64, len)
            })
            .collect();
        st.plogs.insert(
            id,
            PLogReplica {
                segments,
                logical_len: data.len() as u64,
                sealed,
            },
        );
        st.cache.evict_plog(id);
        if !data.is_empty() {
            st.cache.insert(id, 0, data);
        }
        Ok(())
    }

    /// Discards everything past logical offset `len` (segments are
    /// clipped). Used by re-replication to erase the unacknowledged tail of
    /// a failed 3/3 append from survivors so all replicas stay
    /// byte-identical, and by the recovery cut.
    pub fn truncate_to(&self, id: PLogId, len: u64) -> Result<()> {
        let mut st = self.state.lock();
        let replica = st.plogs.get_mut(&id).ok_or(TaurusError::PLogNotFound(id))?;
        if replica.logical_len <= len {
            return Ok(());
        }
        let mut logical = 0u64;
        let mut kept: Vec<(u64, u32)> = Vec::new();
        for (dev_off, seg_len) in replica.segments.drain(..) {
            if logical >= len {
                break;
            }
            let keep = (seg_len as u64).min(len - logical);
            kept.push((dev_off, keep as u32));
            logical += keep;
        }
        replica.segments = kept;
        replica.logical_len = logical;
        // Cached ranges past the new end would resurrect the dropped tail.
        st.cache.evict_plog(id);
        Ok(())
    }

    /// Seals a PLog replica: no further appends are accepted.
    pub fn seal(&self, id: PLogId) -> Result<()> {
        let mut st = self.state.lock();
        let replica = st.plogs.get_mut(&id).ok_or(TaurusError::PLogNotFound(id))?;
        replica.sealed = true;
        Ok(())
    }

    /// Whether the replica is sealed.
    pub fn is_sealed(&self, id: PLogId) -> Result<bool> {
        let st = self.state.lock();
        st.plogs
            .get(&id)
            .map(|r| r.sealed)
            .ok_or(TaurusError::PLogNotFound(id))
    }

    /// Logical length of a PLog replica in bytes.
    pub fn plog_len(&self, id: PLogId) -> Result<u64> {
        let st = self.state.lock();
        st.plogs
            .get(&id)
            .map(|r| r.logical_len)
            .ok_or(TaurusError::PLogNotFound(id))
    }

    /// Byte length of each append applied to a PLog replica, in order.
    pub fn append_lens(&self, id: PLogId) -> Result<Vec<u32>> {
        let st = self.state.lock();
        let replica = st.plogs.get(&id).ok_or(TaurusError::PLogNotFound(id))?;
        Ok(replica.segments.iter().map(|&(_, len)| len).collect())
    }

    /// Reads everything from logical `offset` to the end of the PLog.
    pub fn read_from(&self, id: PLogId, offset: u64) -> Result<Bytes> {
        self.read_range(id, offset, u64::MAX)
    }

    /// Reads from the start of append `k` (0-based), at most `max_len`
    /// bytes: the append's logical offset, and the bytes.
    pub fn read_append(&self, id: PLogId, k: u64, max_len: u64) -> Result<(u64, Bytes)> {
        let offset = {
            let st = self.state.lock();
            let replica = st.plogs.get(&id).ok_or(TaurusError::PLogNotFound(id))?;
            let before = replica.segments.get(..k as usize);
            let before = before.ok_or(TaurusError::Codec("plog append past end"))?;
            before.iter().map(|&(_, len)| len as u64).sum()
        };
        Ok((offset, self.read_range(id, offset, max_len)?))
    }

    /// Reads at most `max_len` bytes from logical `offset`. Served from the
    /// FIFO cache when possible, otherwise from the device.
    fn read_range(&self, id: PLogId, offset: u64, max_len: u64) -> Result<Bytes> {
        let (segments, end) = {
            let st = self.state.lock();
            let replica = st.plogs.get(&id).ok_or(TaurusError::PLogNotFound(id))?;
            if offset > replica.logical_len {
                return Err(TaurusError::Codec("plog read offset past end"));
            }
            let end = replica.logical_len.min(offset.saturating_add(max_len));
            if let Some(hit) = st.cache.read_range(id, offset, end) {
                return Ok(self.served(Bytes::from(hit)));
            }
            (replica.segments.clone(), end)
        };
        // Cache miss: walk the segment list on the device.
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut logical = 0u64;
        for (dev_off, len) in segments {
            let seg_end = logical + len as u64;
            if seg_end > offset && logical < end {
                let skip = offset.saturating_sub(logical);
                let take = seg_end.min(end) - logical - skip;
                out.extend_from_slice(&self.device.read(dev_off + skip, take as usize)?);
            }
            logical = seg_end;
        }
        Ok(self.served(Bytes::from(out)))
    }

    fn served(&self, data: Bytes) -> Bytes {
        self.reads.reads.inc();
        self.reads.bytes.add(data.len() as u64);
        data
    }

    /// Drops a PLog replica and its cached segments (log truncation, step 8
    /// of the paper's Fig. 3).
    pub fn delete_plog(&self, id: PLogId) {
        let mut st = self.state.lock();
        st.plogs.remove(&id);
        st.cache.evict_plog(id);
    }

    /// Number of PLog replicas hosted (used for load-aware placement and by
    /// tests asserting truncation).
    pub fn plog_count(&self) -> usize {
        self.state.lock().plogs.len()
    }

    /// Cache hit ratio of the FIFO write-through cache.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.state.lock().cache.stats.ratio()
    }

    /// The server's device I/O statistics (append, random write, read, bytes).
    pub fn device_stats(&self) -> (u64, u64, u64, u64) {
        self.device.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::clock::ManualClock;
    use taurus_common::config::StorageProfile;
    use taurus_common::DbId;

    fn server() -> Arc<LogStoreServer> {
        let clock = ManualClock::shared();
        LogStoreServer::new(
            StorageDevice::in_memory(clock, StorageProfile::instant()),
            1 << 20,
        )
    }

    fn id(seq: u64) -> PLogId {
        PLogId::new(DbId(1), seq, 0)
    }

    #[test]
    fn append_and_read_back() {
        let s = server();
        s.create_plog(id(1));
        assert_eq!(s.append(id(1), Bytes::from_static(b"aaa")).unwrap(), 0);
        assert_eq!(s.append(id(1), Bytes::from_static(b"bbbb")).unwrap(), 3);
        assert_eq!(
            s.read_from(id(1), 0).unwrap(),
            Bytes::from_static(b"aaabbbb")
        );
        assert_eq!(s.read_from(id(1), 3).unwrap(), Bytes::from_static(b"bbbb"));
        assert_eq!(s.plog_len(id(1)).unwrap(), 7);
    }

    #[test]
    fn read_append_starts_at_an_append_and_every_read_is_counted() {
        let s = server();
        s.create_plog(id(1));
        s.append(id(1), Bytes::from_static(b"aaa")).unwrap();
        s.append(id(1), Bytes::from_static(b"bbbb")).unwrap();
        let whole = (3, Bytes::from_static(b"bbbb"));
        assert_eq!(s.read_append(id(1), 1, u64::MAX).unwrap(), whole);
        assert_eq!(s.read_append(id(1), 0, 5).unwrap().1, &b"aaabb"[..]);
        assert!(s.read_append(id(1), 3, 1).is_err());
        assert_eq!(s.read_from(id(1), 2).unwrap(), &b"abbbb"[..]);
        let reads = s.reads.snapshot();
        assert_eq!((reads.reads, reads.bytes), (3, 4 + 5 + 5));
    }

    #[test]
    fn interleaved_plogs_stay_separate() {
        let s = server();
        s.create_plog(id(1));
        s.create_plog(id(2));
        s.append(id(1), Bytes::from_static(b"one")).unwrap();
        s.append(id(2), Bytes::from_static(b"TWO")).unwrap();
        s.append(id(1), Bytes::from_static(b"three")).unwrap();
        assert_eq!(
            s.read_from(id(1), 0).unwrap(),
            Bytes::from_static(b"onethree")
        );
        assert_eq!(s.read_from(id(2), 0).unwrap(), Bytes::from_static(b"TWO"));
    }

    #[test]
    fn sealed_plog_rejects_appends_but_serves_reads() {
        let s = server();
        s.create_plog(id(1));
        s.append(id(1), Bytes::from_static(b"data")).unwrap();
        s.seal(id(1)).unwrap();
        assert!(matches!(
            s.append(id(1), Bytes::from_static(b"more")),
            Err(TaurusError::PLogSealed(_))
        ));
        assert_eq!(s.read_from(id(1), 0).unwrap(), Bytes::from_static(b"data"));
        assert!(s.is_sealed(id(1)).unwrap());
    }

    #[test]
    fn unknown_plog_errors() {
        let s = server();
        assert!(matches!(
            s.append(id(9), Bytes::from_static(b"x")),
            Err(TaurusError::PLogNotFound(_))
        ));
        assert!(s.read_from(id(9), 0).is_err());
        assert!(s.seal(id(9)).is_err());
    }

    #[test]
    fn delete_removes_replica() {
        let s = server();
        s.create_plog(id(1));
        s.append(id(1), Bytes::from_static(b"x")).unwrap();
        assert_eq!(s.plog_count(), 1);
        s.delete_plog(id(1));
        assert_eq!(s.plog_count(), 0);
        assert!(s.read_from(id(1), 0).is_err());
    }

    #[test]
    fn tail_reads_are_served_from_cache() {
        let clock = ManualClock::shared();
        // Non-zero read latency: cache hits are visible as zero elapsed time.
        let profile = StorageProfile {
            append_us: 0,
            random_write_us: 0,
            read_us: 100,
        };
        let s = LogStoreServer::new(StorageDevice::in_memory(clock, profile), 1 << 20);
        s.create_plog(id(1));
        s.append(id(1), Bytes::from_static(b"recently written"))
            .unwrap();
        let (_, _, reads_before, _) = s.device_stats();
        let data = s.read_from(id(1), 0).unwrap();
        assert_eq!(data, Bytes::from_static(b"recently written"));
        let (_, _, reads_after, _) = s.device_stats();
        assert_eq!(reads_before, reads_after, "tail read must not touch disk");
        assert!(s.cache_hit_ratio() > 0.99);
    }

    #[test]
    fn evicted_tail_falls_back_to_device() {
        let clock = ManualClock::shared();
        let s = LogStoreServer::new(
            StorageDevice::in_memory(clock, StorageProfile::instant()),
            8, // tiny cache: everything evicts
        );
        s.create_plog(id(1));
        s.append(id(1), Bytes::from(vec![b'a'; 64])).unwrap();
        s.append(id(1), Bytes::from(vec![b'b'; 64])).unwrap();
        let data = s.read_from(id(1), 0).unwrap();
        assert_eq!(data.len(), 128);
        assert_eq!(&data[..64], &[b'a'; 64][..]);
        assert_eq!(&data[64..], &[b'b'; 64][..]);
    }

    #[test]
    fn install_replica_replaces_content_wholesale() {
        let s = server();
        s.create_plog(id(1));
        s.append(id(1), Bytes::from_static(b"stale-divergent-tail"))
            .unwrap();
        s.install_replica(id(1), Bytes::from_static(b"committed"), &[4, 5], true)
            .unwrap();
        assert_eq!(
            s.read_from(id(1), 0).unwrap(),
            Bytes::from_static(b"committed")
        );
        assert!(s.is_sealed(id(1)).unwrap());
        // The installed appends keep their boundaries.
        let second = (4, Bytes::from_static(b"it"));
        assert_eq!(s.read_append(id(1), 1, 2).unwrap(), second);
        // Installing onto a node that never hosted the plog also works.
        s.install_replica(id(2), Bytes::from_static(b"fresh"), &[5], false)
            .unwrap();
        assert_eq!(s.read_from(id(2), 0).unwrap(), Bytes::from_static(b"fresh"));
    }

    #[test]
    fn truncate_to_clips_segments() {
        let s = server();
        s.create_plog(id(1));
        s.append(id(1), Bytes::from_static(b"aaaa")).unwrap();
        s.append(id(1), Bytes::from_static(b"bbbb")).unwrap();
        // Truncate mid-segment: 6 keeps "aaaa" + "bb".
        s.truncate_to(id(1), 6).unwrap();
        assert_eq!(s.plog_len(id(1)).unwrap(), 6);
        assert_eq!(s.append_lens(id(1)).unwrap(), vec![4, 2]);
        assert_eq!(
            s.read_from(id(1), 0).unwrap(),
            Bytes::from_static(b"aaaabb")
        );
        // The next append lands right behind the cut.
        assert_eq!(s.append(id(1), Bytes::from_static(b"cc")).unwrap(), 6);
        assert_eq!(
            s.read_from(id(1), 0).unwrap(),
            Bytes::from_static(b"aaaabbcc")
        );
    }

    #[test]
    fn read_past_end_is_rejected() {
        let s = server();
        s.create_plog(id(1));
        s.append(id(1), Bytes::from_static(b"abc")).unwrap();
        assert!(s.read_from(id(1), 4).is_err());
        // Reading exactly at the end yields empty bytes.
        assert_eq!(s.read_from(id(1), 3).unwrap().len(), 0);
    }
}
