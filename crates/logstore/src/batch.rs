//! Batched flush-group framing for multi-stream parallel logging.
//!
//! The SAL encodes each flush span — every [`LogRecordGroup`] of one log
//! buffer flush — into a single *batch frame* before the 3/3 Log Store
//! fan-out (the BtrLog idea: fewer, fatter appends instead of one round trip
//! per group). The frame is not just a container; its header is load-bearing
//! for multi-stream recovery:
//!
//! * `prev_end` — the LSN at which the *previous* flush span (on any stream)
//!   ended when this one was prepared. Recovery merges frames from all
//!   streams by `first` and chain-checks `prev_end == previous.end`; the
//!   first break is a **log hole** left by a crash mid-flush (a later span
//!   became durable on stream A while an earlier span on stream B did not).
//!   Everything past the hole was never acknowledged — `durable_lsn` only
//!   advances over the contiguous span prefix — so recovery discards it.
//! * `first`/`end` — the span's LSN range, letting readers skip or defer a
//!   whole frame without decoding its payload.
//! * an FNV-1a checksum over the payload, so a torn or corrupt frame fails
//!   loudly instead of decoding as garbage groups.
//!
//! Every unit of a log payload is a batch frame: a bare [`LogRecordGroup`]
//! carries no chain link, so decoding rejects one as a codec error.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use taurus_common::record::LogRecordGroup;
use taurus_common::{Lsn, Result, TaurusError};

/// Frame magic, distinct from the bare group magic ("TRLG") and the stream
/// snapshot magic.
pub const BATCH_MAGIC: u32 = 0x5442_4348; // "TBCH"

/// Byte length of the fixed frame header: magic(4) + prev_end(8) +
/// first(8) + end(8) + count(4) + payload_len(4) + checksum(8). A read of
/// this many bytes at a frame's start is a header probe.
pub const HEADER_LEN: usize = 4 + 8 + 8 + 8 + 4 + 4 + 8;

/// One decoded batch frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchFrame {
    /// End of the flush span prepared immediately before this one, across
    /// all streams.
    pub prev_end: Lsn,
    /// First LSN contained in the frame.
    pub first: Lsn,
    /// Last LSN contained in the frame (the span boundary).
    pub end: Lsn,
    /// The flush span's record groups, in LSN order.
    pub groups: Vec<LogRecordGroup>,
}

/// FNV-1a folded a little-endian 8-byte word at a time, then the tail byte
/// by byte. Every step (xor a word, multiply by an odd prime) is a bijection
/// of the running hash, so a payload that differs in one word — a single bit
/// flip included — always yields a different checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        h ^= u64::from_le_bytes(word);
        h = h.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Encodes one flush span into a single batch frame.
pub fn encode_batch(groups: &[LogRecordGroup], prev_end: Lsn, first: Lsn, end: Lsn) -> Bytes {
    let payload_len: usize = groups.iter().map(LogRecordGroup::encoded_len).sum();
    let mut out = BytesMut::with_capacity(HEADER_LEN + payload_len);
    out.put_u32_le(BATCH_MAGIC);
    out.put_u64_le(prev_end.0);
    out.put_u64_le(first.0);
    out.put_u64_le(end.0);
    out.put_u32_le(groups.len() as u32);
    out.put_u32_le(payload_len as u32);
    out.put_u64_le(0); // checksum patched below
    let payload_start = out.len();
    for g in groups {
        g.encode_into(&mut out);
    }
    let sum = fnv1a(&out[payload_start..]);
    out[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    out.freeze()
}

/// The LSN range `(first, end)` of the frame starting at `buf`, from its
/// header alone (a header probe's bytes are enough).
pub fn frame_range(mut buf: &[u8]) -> Result<(Lsn, Lsn)> {
    if buf.remaining() < HEADER_LEN || buf.get_u32_le() != BATCH_MAGIC {
        return Err(TaurusError::Codec("bad batch frame header"));
    }
    buf.advance(8);
    Ok((Lsn(buf.get_u64_le()), Lsn(buf.get_u64_le())))
}

/// Decodes one batch frame from the front of `buf`, consuming its bytes.
pub fn decode_unit(buf: &mut Bytes) -> Result<BatchFrame> {
    if buf.remaining() < 4 {
        return Err(TaurusError::Codec("log payload truncated: no magic"));
    }
    let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if magic != BATCH_MAGIC {
        return Err(TaurusError::Codec("bad batch frame magic"));
    }
    if buf.remaining() < HEADER_LEN {
        return Err(TaurusError::Codec("batch frame truncated: header"));
    }
    buf.advance(4);
    let prev_end = Lsn(buf.get_u64_le());
    let first = Lsn(buf.get_u64_le());
    let end = Lsn(buf.get_u64_le());
    let count = buf.get_u32_le() as usize;
    let payload_len = buf.get_u32_le() as usize;
    let checksum = buf.get_u64_le();
    if buf.remaining() < payload_len {
        return Err(TaurusError::Codec("batch frame truncated: payload"));
    }
    let mut payload = buf.split_to(payload_len);
    if fnv1a(&payload) != checksum {
        return Err(TaurusError::Codec("batch frame checksum mismatch"));
    }
    let mut groups = Vec::with_capacity(count);
    for _ in 0..count {
        groups.push(LogRecordGroup::decode(&mut payload)?);
    }
    if payload.has_remaining() || groups.len() != count {
        return Err(TaurusError::Codec("batch frame count/payload mismatch"));
    }
    Ok(BatchFrame {
        prev_end,
        first,
        end,
        groups,
    })
}

/// Decodes an entire payload (e.g. a PLog read) into frames.
pub fn decode_frames(mut buf: Bytes) -> Result<Vec<BatchFrame>> {
    let mut frames = Vec::new();
    while buf.has_remaining() {
        frames.push(decode_unit(&mut buf)?);
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::record::{LogRecord, RecordBody};
    use taurus_common::{DbId, PageId};

    fn group(lsns: std::ops::RangeInclusive<u64>) -> LogRecordGroup {
        let records = lsns
            .map(|l| LogRecord::new(Lsn(l), PageId(7), RecordBody::Remove { idx: 0 }))
            .collect();
        LogRecordGroup::new(DbId(1), records)
    }

    #[test]
    fn frame_roundtrips() {
        let groups = vec![group(5..=7), group(8..=9)];
        let enc = encode_batch(&groups, Lsn(4), Lsn(5), Lsn(9));
        assert_eq!(frame_range(&enc[..HEADER_LEN]).unwrap(), (Lsn(5), Lsn(9)));
        let frames = decode_frames(enc).unwrap();
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_eq!(f.prev_end, Lsn(4));
        assert_eq!(f.first, Lsn(5));
        assert_eq!(f.end, Lsn(9));
        assert_eq!(f.groups, groups);
    }

    #[test]
    fn bare_group_is_rejected_framed_or_not() {
        let bare = group(1..=3);
        let framed = vec![group(4..=6)];
        assert!(matches!(
            decode_unit(&mut bare.encode()),
            Err(TaurusError::Codec(_))
        ));
        // Behind a good frame it fails the whole payload, not just itself.
        let mut buf = BytesMut::new();
        buf.put_slice(&encode_batch(&framed, Lsn(0), Lsn(4), Lsn(6)));
        buf.put_slice(&bare.encode());
        assert!(matches!(
            decode_frames(buf.freeze()),
            Err(TaurusError::Codec(_))
        ));
        let frames = decode_frames(encode_batch(&framed, Lsn(0), Lsn(4), Lsn(6))).unwrap();
        assert_eq!(frames[0].groups, framed);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let enc = encode_batch(&[group(1..=2)], Lsn::ZERO, Lsn(1), Lsn(2));
        let mut bytes = enc.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            decode_frames(Bytes::from(bytes)),
            Err(TaurusError::Codec("batch frame checksum mismatch"))
        ));
    }

    #[test]
    fn any_single_bit_flip_in_the_payload_fails_the_checksum() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..64 {
            // Random payloads of random length: insert values of 0..40
            // random bytes, so the payload ends on every word offset.
            let records: Vec<LogRecord> = (1..=1 + next() % 4)
                .map(|l| {
                    let val: Vec<u8> = (0..next() % 40).map(|_| next() as u8).collect();
                    LogRecord::new(
                        Lsn(l),
                        PageId(next() % 64),
                        RecordBody::UpdateValue {
                            idx: 0,
                            val: val.into(),
                        },
                    )
                })
                .collect();
            let last = records.len() as u64;
            let enc = encode_batch(
                &[LogRecordGroup::new(DbId(1), records)],
                Lsn::ZERO,
                Lsn(1),
                Lsn(last),
            );
            let bit = HEADER_LEN * 8 + (next() as usize) % ((enc.len() - HEADER_LEN) * 8);
            let mut bytes = enc.to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(
                    decode_frames(Bytes::from(bytes)),
                    Err(TaurusError::Codec("batch frame checksum mismatch"))
                ),
                "flip of payload bit {bit} went unnoticed"
            );
        }
    }

    #[test]
    fn truncated_frame_fails_cleanly() {
        let enc = encode_batch(&[group(1..=2)], Lsn::ZERO, Lsn(1), Lsn(2));
        for cut in [2, HEADER_LEN - 1, HEADER_LEN + 3, enc.len() - 1] {
            let mut prefix = enc.slice(0..cut);
            assert!(decode_unit(&mut prefix).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_magic_is_rejected() {
        let mut buf = Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0]);
        assert!(decode_unit(&mut buf).is_err());
    }
}
