//! A database log's manifest: the one metadata PLog (paper §3.3, quoted
//! in `log.rs`) that lists the data PLogs of every stream.
//!
//! A rollover, a truncation or a recovery cut on any stream appends one
//! snapshot of every stream's chain, so a restart reads one append: the
//! metadata PLog's last. A full or dead metadata PLog is replaced by a
//! fresh one holding the latest snapshot.
//!
//! A stream changes its chain under the manifest's [`Claim`], taken before
//! it reads its chain and dropped after it adopts the new one. Claims
//! serialize every chain change of every stream, so a later snapshot can
//! never re-list a PLog that an earlier one dropped. The claim is a flag,
//! not a lock held across the snapshot's round trips.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::{Condvar, Mutex};

use taurus_common::{DbId, Lsn, NodeId, PLogId, Result, TaurusError};

use crate::cluster::LogStoreCluster;
use crate::stream::PLogEntry;

/// Seq-number namespace bit marking metadata PLogs.
const META_SEQ_BIT: u64 = 1 << 63;
const SNAPSHOT_MAGIC: u32 = 0x4d45_5441; // "META"
/// Encoded bytes of one [`PLogEntry`]: id, first, last, sealed, bytes.
const ENTRY_LEN: usize = PLogId::WIDTH + 8 + 8 + 1 + 8;

pub(crate) struct Manifest {
    pub(crate) cluster: LogStoreCluster,
    pub(crate) db: DbId,
    /// Compute node on whose behalf RPCs are issued.
    pub(crate) me: NodeId,
    /// Size at which a PLog rolls over, data and metadata PLogs alike.
    pub(crate) plog_size_limit: usize,
    state: Mutex<ManifestState>,
    cond: Condvar,
}

#[derive(Debug)]
struct ManifestState {
    /// The metadata PLog, and the appends and bytes of it this handle has
    /// written or adopted.
    plog: PLogId,
    appends: u64,
    bytes: u64,
    /// An append to `plog` failed: the cluster refuses it any further
    /// append, so the next snapshot goes to a fresh metadata PLog.
    dead: bool,
    /// Next PLog sequence number, data and metadata PLogs alike.
    next_seq: u64,
    /// One more than the last handle's: a PLog created after the last
    /// snapshot, before a crash, is never minted again.
    incarnation: u64,
    /// Every stream's chain as last published.
    chains: Vec<Vec<PLogEntry>>,
    /// A [`Claim`] is out.
    busy: bool,
}

/// The right to change a stream's chain and publish it (see the module
/// docs); dropping it lets the next claimant in.
pub(crate) struct Claim<'a>(&'a Manifest);

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.0.state.lock().busy = false;
        self.0.cond.notify_all();
    }
}

impl Manifest {
    /// Opens the registered manifest of a log of `streams` streams at its
    /// newest snapshot — after creating and registering it, for a new log
    /// (`create`).
    pub(crate) fn open(
        cluster: LogStoreCluster,
        db: DbId,
        me: NodeId,
        plog_size_limit: usize,
        streams: usize,
        create: bool,
    ) -> Result<Manifest> {
        if create {
            let plog = PLogId::new(db, META_SEQ_BIT, 0);
            cluster.create_plog(plog, me)?;
            cluster.set_meta_plog(db, plog);
        }
        let plog = cluster
            .meta_plog(db)
            .ok_or_else(|| TaurusError::Internal(format!("no manifest registered for {db}")))?;
        let (next_seq, incarnation, chains, appends) = load(&cluster, me, plog, streams)?;
        let state = ManifestState {
            plog,
            appends,
            bytes: cluster.committed_len(plog),
            dead: cluster.has_sequence_gap(plog),
            next_seq,
            incarnation: incarnation + 1,
            chains,
            busy: false,
        };
        Ok(Manifest {
            cluster,
            db,
            me,
            plog_size_limit,
            state: Mutex::new(state),
            cond: Condvar::new(),
        })
    }

    /// Every stream's chain as last published or adopted.
    pub(crate) fn chains(&self) -> Vec<Vec<PLogEntry>> {
        self.state.lock().chains.clone()
    }

    /// Waits until no other claim is out, then takes it.
    pub(crate) fn claim(&self) -> Claim<'_> {
        let mut st = self.state.lock();
        while st.busy {
            self.cond.wait(&mut st);
        }
        st.busy = true;
        Claim(self)
    }

    /// The id of a new data PLog.
    pub(crate) fn mint(&self, _claim: &Claim<'_>) -> PLogId {
        mint(&mut self.state.lock(), self.db, 0)
    }

    /// Publishes `chain` as stream `stream`'s: one atomic append of every
    /// stream's chain, to a fresh metadata PLog when the current one is
    /// dead or full. On failure nothing is published.
    pub(crate) fn publish(
        &self,
        _claim: &Claim<'_>,
        stream: usize,
        chain: Vec<PLogEntry>,
    ) -> Result<()> {
        let (snapshot, plog, fresh) = {
            let st = self.state.lock();
            let full = st.bytes >= self.plog_size_limit as u64;
            (encode(&st, stream, &chain), st.plog, st.dead || full)
        };
        if !fresh {
            match self.cluster.append(plog, self.me, snapshot.clone()) {
                Ok(()) => {
                    let mut st = self.state.lock();
                    st.appends += 1;
                    st.bytes += snapshot.len() as u64;
                    st.chains[stream] = chain;
                    return Ok(());
                }
                Err(_) => self.state.lock().dead = true,
            }
        }
        // The registry points at the new metadata PLog only once it holds
        // the snapshot, and the old one goes only after: a reopen always
        // finds a complete snapshot.
        let new = mint(&mut self.state.lock(), self.db, META_SEQ_BIT);
        self.cluster.create_plog(new, self.me)?;
        if let Err(e) = self.cluster.append(new, self.me, snapshot.clone()) {
            self.cluster.delete_plog(new, self.me);
            return Err(e);
        }
        self.cluster.set_meta_plog(self.db, new);
        self.cluster.delete_plog(plog, self.me);
        let mut st = self.state.lock();
        st.plog = new;
        st.appends = 1;
        st.bytes = snapshot.len() as u64;
        st.dead = false;
        st.chains[stream] = chain;
        Ok(())
    }

    /// Adopts the newest snapshot if the writer published one since this
    /// handle last looked, and returns its chains. When nothing is new the
    /// cluster answers from its directory and no round trip is made.
    pub(crate) fn refresh(&self) -> Result<Option<Vec<Vec<PLogEntry>>>> {
        let plog = self.cluster.meta_plog(self.db).ok_or_else(|| {
            TaurusError::Internal(format!("no manifest registered for {}", self.db))
        })?;
        let seen = |st: &ManifestState, appends| st.plog == plog && st.appends >= appends;
        let appends = self.cluster.committed_appends(plog);
        if seen(&self.state.lock(), appends) {
            return Ok(None);
        }
        let streams = self.state.lock().chains.len();
        let (_, _, chains, appends) = load(&self.cluster, self.me, plog, streams)?;
        let mut st = self.state.lock();
        if seen(&st, appends) {
            // A concurrent refresh adopted this snapshot or a later one.
            return Ok(None);
        }
        st.plog = plog;
        st.appends = appends;
        st.chains = chains.clone();
        Ok(Some(chains))
    }

    #[cfg(test)]
    pub(crate) fn plog(&self) -> PLogId {
        self.state.lock().plog
    }
}

fn mint(st: &mut ManifestState, db: DbId, namespace: u64) -> PLogId {
    st.next_seq += 1;
    PLogId::new(db, namespace | (st.next_seq - 1), st.incarnation)
}

/// The snapshot in the metadata PLog's last append, with the append count
/// it was read at: `(next_seq, incarnation, chains, appends)`. A manifest
/// with no snapshot yet lists `streams` empty chains.
fn load(
    cluster: &LogStoreCluster,
    me: NodeId,
    plog: PLogId,
    streams: usize,
) -> Result<(u64, u64, Vec<Vec<PLogEntry>>, u64)> {
    let appends = cluster.committed_appends(plog);
    let Some(last) = appends.checked_sub(1) else {
        return Ok((1, 0, vec![Vec::new(); streams], 0));
    };
    let (_, raw) = cluster.read_append(plog, me, last, u64::MAX)?;
    let (next_seq, incarnation, mut chains) = decode(raw)?;
    if chains.len() > streams {
        return Err(TaurusError::Internal(format!(
            "manifest of {plog} lists {} streams, the log has {streams}",
            chains.len()
        )));
    }
    chains.resize(streams, Vec::new());
    Ok((next_seq, incarnation, chains, appends))
}

/// One snapshot: the manifest's counters and every stream's chain, with
/// `chain` in place of stream `stream`'s.
fn encode(st: &ManifestState, stream: usize, chain: &[PLogEntry]) -> Bytes {
    let entries: usize = st.chains.iter().map(Vec::len).sum::<usize>() + chain.len();
    let mut out = BytesMut::with_capacity(24 + 4 * st.chains.len() + entries * ENTRY_LEN);
    out.put_u32_le(SNAPSHOT_MAGIC);
    out.put_u64_le(st.next_seq);
    out.put_u64_le(st.incarnation);
    out.put_u32_le(st.chains.len() as u32);
    for (i, published) in st.chains.iter().enumerate() {
        let chain = if i == stream { chain } else { published };
        out.put_u32_le(chain.len() as u32);
        for e in chain {
            out.put_slice(&e.id.to_bytes());
            out.put_u64_le(e.first_lsn.0);
            out.put_u64_le(e.last_lsn.0);
            out.put_u8(e.sealed as u8);
            out.put_u64_le(e.bytes);
        }
    }
    out.freeze()
}

fn decode(mut raw: Bytes) -> Result<(u64, u64, Vec<Vec<PLogEntry>>)> {
    let short = || TaurusError::Codec("metadata snapshot truncated");
    let need = |raw: &Bytes, n: usize| (raw.remaining() >= n).then_some(()).ok_or_else(short);
    need(&raw, 24)?;
    if raw.get_u32_le() != SNAPSHOT_MAGIC {
        return Err(TaurusError::Codec("bad metadata snapshot magic"));
    }
    let next_seq = raw.get_u64_le();
    let incarnation = raw.get_u64_le();
    let streams = raw.get_u32_le() as usize;
    need(&raw, 4 * streams)?;
    let mut chains = vec![Vec::new(); streams];
    for chain in chains.iter_mut() {
        need(&raw, 4)?;
        let count = raw.get_u32_le() as usize;
        need(&raw, count * ENTRY_LEN)?;
        for _ in 0..count {
            let mut id = [0u8; PLogId::WIDTH];
            raw.copy_to_slice(&mut id);
            chain.push(PLogEntry {
                id: PLogId::from_bytes(&id),
                first_lsn: Lsn(raw.get_u64_le()),
                last_lsn: Lsn(raw.get_u64_le()),
                sealed: raw.get_u8() != 0,
                bytes: raw.get_u64_le(),
            });
        }
    }
    Ok((next_seq, incarnation, chains))
}
