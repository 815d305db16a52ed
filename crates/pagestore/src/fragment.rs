//! Per-slice log fragments.
//!
//! The SAL accumulates log records per slice and ships them as ordered
//! fragments ("log fragments", paper §7 step 1). The paper detects missing
//! fragments with per-slice sequence numbers; we use the equivalent but
//! recovery-friendly *chain link*: every fragment carries `prev_last_lsn`,
//! the LSN of the last record previously sent to the slice. A replica's
//! persistent LSN advances along an unbroken chain; a fragment whose link
//! does not connect reveals a hole. Unlike sequence numbers, chain links can
//! be *recomputed from the log itself* after a SAL crash, so recovery
//! resends (paper §5.3) heal holes without knowing the original fragment
//! boundaries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use taurus_common::{DbId, LogRecord, Lsn, Result, SliceId, SliceKey, TaurusError};

const FRAGMENT_MAGIC: u32 = 0x5446_5247; // "TFRG"

/// Process-wide count of [`SliceFragment::clone`] calls. The SAL's send
/// path must ship one fragment to all replicas by `Arc` sharing — a deep
/// clone per replica was a 3× allocation tax on every slice flush — and
/// tests pin that property by asserting this counter does not move across
/// a workload (see `tests/fragment_sharing.rs`).
static DEEP_CLONES: AtomicU64 = AtomicU64::new(0);

/// Total `SliceFragment` deep clones since process start.
pub fn deep_clone_count() -> u64 {
    DEEP_CLONES.load(Ordering::Relaxed)
}

/// Process-wide count of [`SliceFragment::encode`] calls: a fragment shared
/// by three replicas is encoded once (`tests/ingest_once.rs`).
static ENCODES: AtomicU64 = AtomicU64::new(0);

/// Total `SliceFragment` encodings built since process start.
pub fn encode_count() -> u64 {
    ENCODES.load(Ordering::Relaxed)
}

/// One ordered batch of log records for one slice.
///
/// The records are one shared allocation: every replica that ingests the
/// fragment hands the same `Arc` to its log cache, its open L0 and its
/// sealed run, and the device encoding is built once, by whichever replica
/// appends it first, however many replicas ingest the fragment.
#[derive(Debug)]
pub struct SliceFragment {
    pub slice: SliceKey,
    /// LSN of the last record the writer previously sent to this slice
    /// (`Lsn::ZERO` for the first fragment of a slice). The chain link.
    pub prev_last_lsn: Lsn,
    pub records: Arc<Vec<LogRecord>>,
    encoded: OnceLock<Bytes>,
}

impl PartialEq for SliceFragment {
    fn eq(&self, other: &Self) -> bool {
        self.slice == other.slice
            && self.prev_last_lsn == other.prev_last_lsn
            && self.records == other.records
    }
}

impl Eq for SliceFragment {}

impl Clone for SliceFragment {
    fn clone(&self) -> Self {
        DEEP_CLONES.fetch_add(1, Ordering::Relaxed);
        SliceFragment {
            slice: self.slice,
            prev_last_lsn: self.prev_last_lsn,
            records: Arc::new(self.records.as_ref().clone()),
            encoded: OnceLock::new(),
        }
    }
}

impl SliceFragment {
    pub fn new(slice: SliceKey, prev_last_lsn: Lsn, records: Vec<LogRecord>) -> Self {
        Self::shared(slice, prev_last_lsn, Arc::new(records))
    }

    /// A fragment over an existing record allocation (the log cache's copy
    /// of a stored fragment, re-served to a gossiping peer).
    pub fn shared(slice: SliceKey, prev_last_lsn: Lsn, records: Arc<Vec<LogRecord>>) -> Self {
        debug_assert!(!records.is_empty(), "empty slice fragment");
        debug_assert!(
            records.windows(2).all(|w| w[0].lsn < w[1].lsn),
            "fragment records out of LSN order"
        );
        debug_assert!(
            records
                .first()
                .map(|r| r.lsn > prev_last_lsn)
                .unwrap_or(true),
            "fragment records at or below the chain link"
        );
        SliceFragment {
            slice,
            prev_last_lsn,
            records,
            encoded: OnceLock::new(),
        }
    }

    /// LSN of the first record.
    pub fn first_lsn(&self) -> Lsn {
        self.records.first().map(|r| r.lsn).unwrap_or(Lsn::ZERO)
    }

    /// LSN of the last record: the slice's persistent LSN advances to this
    /// once the chain up to `prev_last_lsn` is unbroken.
    pub fn last_lsn(&self) -> Lsn {
        self.records.last().map(|r| r.lsn).unwrap_or(Lsn::ZERO)
    }

    /// Bytes occupied by the records (for log-cache accounting).
    pub fn payload_bytes(&self) -> usize {
        self.records.iter().map(LogRecord::encoded_len).sum()
    }

    pub fn encoded_len(&self) -> usize {
        4 + 8 + 8 + 8 + 4 + self.payload_bytes()
    }

    /// The device encoding, built on the first call and shared by every
    /// later one.
    pub fn encoded(&self) -> &Bytes {
        self.encoded.get_or_init(|| self.encode())
    }

    pub fn encode(&self) -> Bytes {
        ENCODES.fetch_add(1, Ordering::Relaxed);
        let mut out = BytesMut::with_capacity(self.encoded_len());
        out.put_u32_le(FRAGMENT_MAGIC);
        out.put_u64_le(self.slice.db.0);
        out.put_u64_le(self.slice.slice.0);
        out.put_u64_le(self.prev_last_lsn.0);
        out.put_u32_le(self.records.len() as u32);
        for r in self.records.iter() {
            r.encode_into(&mut out);
        }
        out.freeze()
    }

    pub fn decode(buf: &mut Bytes) -> Result<SliceFragment> {
        let whole = buf.clone();
        if buf.remaining() < 32 {
            return Err(TaurusError::Codec("fragment truncated: header"));
        }
        if buf.get_u32_le() != FRAGMENT_MAGIC {
            return Err(TaurusError::Codec("bad fragment magic"));
        }
        let db = DbId(buf.get_u64_le());
        let slice = SliceId(buf.get_u64_le());
        let prev_last_lsn = Lsn(buf.get_u64_le());
        let count = buf.get_u32_le() as usize;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            records.push(LogRecord::decode(buf)?);
        }
        let encoded = whole.slice(..whole.len() - buf.remaining());
        Ok(SliceFragment {
            slice: SliceKey::new(db, slice),
            prev_last_lsn,
            records: Arc::new(records),
            encoded: OnceLock::from(encoded),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::page::PageType;
    use taurus_common::record::RecordBody;
    use taurus_common::PageId;

    fn frag(prev: u64, lsns: &[u64]) -> SliceFragment {
        let records = lsns
            .iter()
            .map(|&l| {
                LogRecord::new(
                    Lsn(l),
                    PageId(l * 10),
                    RecordBody::Format {
                        ty: PageType::Leaf,
                        level: 0,
                    },
                )
            })
            .collect();
        SliceFragment::new(SliceKey::new(DbId(3), SliceId(7)), Lsn(prev), records)
    }

    #[test]
    fn roundtrip() {
        let f = frag(9, &[10, 11, 12]);
        let mut enc = f.encode();
        assert_eq!(enc.len(), f.encoded_len());
        let back = SliceFragment::decode(&mut enc).unwrap();
        assert_eq!(back, f);
        assert!(!enc.has_remaining());
        // A decoded fragment keeps the bytes it came from as its encoding.
        assert_eq!(back.encoded(), &f.encode());
    }

    #[test]
    fn the_encoding_is_built_once_and_shared() {
        let f = frag(0, &[1, 2]);
        let first = f.encoded().as_ptr();
        assert_eq!(f.encoded().as_ptr(), first);
        assert_eq!(f.encoded(), &f.encode());
    }

    #[test]
    fn lsn_boundaries_and_chain_link() {
        let f = frag(3, &[4, 5, 9]);
        assert_eq!(f.first_lsn(), Lsn(4));
        assert_eq!(f.last_lsn(), Lsn(9));
        assert_eq!(f.prev_last_lsn, Lsn(3));
        assert!(f.payload_bytes() > 0);
    }

    #[test]
    fn truncated_and_corrupt_input_fail() {
        let f = frag(0, &[1]);
        let enc = f.encode();
        let mut cut = enc.slice(0..10);
        assert!(SliceFragment::decode(&mut cut).is_err());
        let mut garbage = Bytes::from(vec![0u8; 40]);
        assert!(SliceFragment::decode(&mut garbage).is_err());
    }
}
