//! A Log Store server: hosts PLog replicas on one storage node.
//!
//! Each server owns a [`StorageDevice`] onto which all hosted PLog replicas
//! append (interleaved, as on a real log-structured device), plus a FIFO
//! write-through cache serving tail reads. Sealed PLogs are read-only
//! forever; this is what makes short-term Log Store failures recovery-free
//! (paper §5.1: "as soon as a Log Store becomes unavailable, all PLogs
//! located on the Log Store stop accepting new writes").

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use taurus_common::{PLogId, Result, TaurusError};
use taurus_fabric::StorageDevice;

use crate::cache::FifoLogCache;

/// Per-replica state of a PLog hosted on this server.
#[derive(Debug, Default)]
struct PLogReplica {
    /// (device offset, length) of each append, in order. Logical PLog offset
    /// is the running sum of lengths.
    segments: Vec<(u64, u32)>,
    logical_len: u64,
    sealed: bool,
    /// Next sequenced append this replica expects to apply.
    next_seq: u64,
    /// Sequenced appends that arrived out of order (the cluster fans writes
    /// out in parallel, so a later sequence can land first): seq → (device
    /// offset, length, data). Already durable on the device; applied to the
    /// logical log as soon as the sequence becomes contiguous.
    pending: BTreeMap<u64, (u64, u32, Bytes)>,
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
}

impl LogStoreServer {
    pub fn new(device: StorageDevice, cache_bytes: usize) -> Arc<Self> {
        Arc::new(LogStoreServer {
            device,
            state: Mutex::new(State {
                plogs: HashMap::new(),
                cache: FifoLogCache::new(cache_bytes),
            }),
        })
    }

    /// Creates an empty PLog replica. Idempotent.
    pub fn create_plog(&self, id: PLogId) {
        self.state.lock().plogs.entry(id).or_default();
    }

    /// Appends `data` to a PLog replica, returning the logical offset the
    /// data landed at. Fails if the PLog is sealed or unknown.
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
        replica.next_seq += 1;
        st.cache.insert(id, logical, data);
        Ok(logical)
    }

    /// Appends `data` at per-plog sequence number `seq`. The cluster reserves
    /// sequence numbers centrally and fans the three replica writes out in
    /// parallel, so appends can arrive here out of order; the data is made
    /// durable on the device immediately, buffered if a predecessor is still
    /// in flight, and applied to the logical log in sequence order. A `seq`
    /// below `next_seq` is a duplicate retry and succeeds idempotently.
    pub fn append_at(&self, id: PLogId, seq: u64, data: Bytes) -> Result<()> {
        let dev_off = self.device.append_shared(data.clone())?;
        let mut st = self.state.lock();
        let replica = st.plogs.get_mut(&id).ok_or(TaurusError::PLogNotFound(id))?;
        if replica.sealed {
            return Err(TaurusError::PLogSealed(id));
        }
        if seq < replica.next_seq {
            return Ok(());
        }
        replica
            .pending
            .insert(seq, (dev_off, data.len() as u32, data));
        let mut applied: Vec<(u64, Bytes)> = Vec::new();
        loop {
            let want = replica.next_seq;
            let Some((dev_off, len, data)) = replica.pending.remove(&want) else {
                break;
            };
            let logical = replica.logical_len;
            replica.segments.push((dev_off, len));
            replica.logical_len += len as u64;
            replica.next_seq += 1;
            applied.push((logical, data));
        }
        for (logical, data) in applied {
            st.cache.insert(id, logical, data);
        }
        Ok(())
    }

    /// Replaces (or creates) a PLog replica wholesale with `data` — the
    /// re-replication installer. `next_seq` is where sequenced appends would
    /// resume; for a sealed plog it is never used again.
    pub fn install_replica(
        &self,
        id: PLogId,
        data: Bytes,
        next_seq: u64,
        sealed: bool,
    ) -> Result<()> {
        let dev_off = if data.is_empty() {
            0
        } else {
            self.device.append_shared(data.clone())?
        };
        let mut st = self.state.lock();
        let segments = if data.is_empty() {
            Vec::new()
        } else {
            vec![(dev_off, data.len() as u32)]
        };
        st.plogs.insert(
            id,
            PLogReplica {
                segments,
                logical_len: data.len() as u64,
                sealed,
                next_seq,
                pending: BTreeMap::new(),
            },
        );
        st.cache.evict_plog(id);
        if !data.is_empty() {
            st.cache.insert(id, 0, data);
        }
        Ok(())
    }

    /// Discards everything past logical offset `len` (segments are clipped,
    /// buffered out-of-order appends dropped) and rewinds the sequence
    /// counter. Used by re-replication to erase the unacknowledged tail of a
    /// failed 3/3 append from survivors so all replicas stay byte-identical.
    pub fn truncate_to(&self, id: PLogId, len: u64, next_seq: u64) -> Result<()> {
        let mut st = self.state.lock();
        let replica = st.plogs.get_mut(&id).ok_or(TaurusError::PLogNotFound(id))?;
        replica.pending.clear();
        replica.next_seq = next_seq;
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

    /// Reads everything from logical `offset` to the end of the PLog. Served
    /// from the FIFO cache when possible, otherwise from the device.
    pub fn read_from(&self, id: PLogId, offset: u64) -> Result<Bytes> {
        let (segments, end) = {
            let st = self.state.lock();
            let replica = st.plogs.get(&id).ok_or(TaurusError::PLogNotFound(id))?;
            if offset > replica.logical_len {
                return Err(TaurusError::Codec("plog read offset past end"));
            }
            if let Some(hit) = st.cache.read_range(id, offset, replica.logical_len) {
                return Ok(Bytes::from(hit));
            }
            (replica.segments.clone(), replica.logical_len)
        };
        // Cache miss: walk the segment list on the device.
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut logical = 0u64;
        for (dev_off, len) in segments {
            let seg_end = logical + len as u64;
            if seg_end > offset {
                let skip = offset.saturating_sub(logical);
                let data = self
                    .device
                    .read(dev_off + skip, (len as u64 - skip) as usize)?;
                out.extend_from_slice(&data);
            }
            logical = seg_end;
        }
        Ok(Bytes::from(out))
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
    fn out_of_order_sequenced_appends_apply_in_sequence() {
        let s = server();
        s.create_plog(id(1));
        // seq 1 and 2 land before seq 0: buffered, not yet readable.
        s.append_at(id(1), 1, Bytes::from_static(b"bb")).unwrap();
        s.append_at(id(1), 2, Bytes::from_static(b"cc")).unwrap();
        assert_eq!(s.plog_len(id(1)).unwrap(), 0);
        // seq 0 arrives: the whole contiguous prefix applies at once, in
        // sequence order regardless of arrival order.
        s.append_at(id(1), 0, Bytes::from_static(b"aa")).unwrap();
        assert_eq!(s.plog_len(id(1)).unwrap(), 6);
        assert_eq!(
            s.read_from(id(1), 0).unwrap(),
            Bytes::from_static(b"aabbcc")
        );
    }

    #[test]
    fn duplicate_sequenced_append_is_idempotent() {
        let s = server();
        s.create_plog(id(1));
        s.append_at(id(1), 0, Bytes::from_static(b"xx")).unwrap();
        s.append_at(id(1), 0, Bytes::from_static(b"xx")).unwrap();
        assert_eq!(s.plog_len(id(1)).unwrap(), 2);
        assert_eq!(s.read_from(id(1), 0).unwrap(), Bytes::from_static(b"xx"));
    }

    #[test]
    fn install_replica_replaces_content_wholesale() {
        let s = server();
        s.create_plog(id(1));
        s.append(id(1), Bytes::from_static(b"stale-divergent-tail"))
            .unwrap();
        s.install_replica(id(1), Bytes::from_static(b"committed"), 3, true)
            .unwrap();
        assert_eq!(
            s.read_from(id(1), 0).unwrap(),
            Bytes::from_static(b"committed")
        );
        assert!(s.is_sealed(id(1)).unwrap());
        // Installing onto a node that never hosted the plog also works.
        s.install_replica(id(2), Bytes::from_static(b"fresh"), 1, false)
            .unwrap();
        assert_eq!(s.read_from(id(2), 0).unwrap(), Bytes::from_static(b"fresh"));
    }

    #[test]
    fn truncate_to_clips_segments_and_drops_pending() {
        let s = server();
        s.create_plog(id(1));
        s.append_at(id(1), 0, Bytes::from_static(b"aaaa")).unwrap();
        s.append_at(id(1), 1, Bytes::from_static(b"bbbb")).unwrap();
        // seq 3 buffered (seq 2 missing) — the unacknowledged tail.
        s.append_at(id(1), 3, Bytes::from_static(b"dddd")).unwrap();
        // Truncate mid-segment: 6 keeps "aaaa" + "bb".
        s.truncate_to(id(1), 6, 2).unwrap();
        assert_eq!(s.plog_len(id(1)).unwrap(), 6);
        assert_eq!(
            s.read_from(id(1), 0).unwrap(),
            Bytes::from_static(b"aaaabb")
        );
        // The dropped pending entry must not resurrect when seq 2 arrives.
        s.append_at(id(1), 2, Bytes::from_static(b"cc")).unwrap();
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
