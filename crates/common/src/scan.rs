//! Near-data processing scan operators (the NDP follow-on paper; PAPERS.md).
//!
//! A [`ScanRequest`] is a small, serializable description of a predicate
//! scan with optional aggregation. The SAL ships it to Page Stores so that
//! filtering and aggregation run next to the data and only matching rows
//! (or partial aggregates) cross the fabric back to the engine.
//!
//! The evaluator here is the **one shared code path**: Page-Store-side
//! execution (`taurus_pagestore::pushdown`) and the engine-side fallback
//! both call [`evaluate_leaf_page`] on slotted leaf pages — the same
//! discipline as [`crate::apply::apply_record`]. One implementation, many
//! call sites, so pushdown and local evaluation cannot drift apart.
//!
//! Conventions (documented here because both sides must agree):
//!
//! * the key range is `start..end` with `end` exclusive (`None` = open);
//! * [`Operand::U64`] predicates interpret the field as an exactly-8-byte
//!   little-endian `u64`; rows whose field has any other length fail the
//!   predicate;
//! * `SUM`/`MIN`/`MAX` aggregate the value interpreted the same way and
//!   skip rows whose value is not exactly 8 bytes; `SUM` wraps on overflow
//!   so the result is deterministic;
//! * projected rows always carry the key (it is the merge/sort handle the
//!   SAL planner orders per-slice results by); [`Projection::KeyOnly`]
//!   drops the value bytes.
//!
//! The evaluator runs inside a Page Store's `ScanSlice` over arbitrary page
//! bytes, so this module is held to the pushdown path's no-panic `deny`
//! (see `taurus_pagestore::pushdown`).

#![deny(
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing
)]

use std::cmp::Ordering;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{Result, TaurusError};
use crate::page::{PageBuf, PageType};

/// Which part of the row a predicate examines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Field {
    Key,
    Value,
}

/// Comparison operator of a predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Eq,
    Ne,
    Ge,
    Gt,
}

impl CmpOp {
    fn accepts(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Gt => ord == Ordering::Greater,
        }
    }
}

/// The right-hand side of a predicate comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Operand {
    /// Lexicographic byte-string comparison.
    Bytes(Vec<u8>),
    /// Numeric comparison; the field must be exactly 8 bytes (LE `u64`).
    U64(u64),
}

/// One typed comparison over a row field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Predicate {
    pub field: Field,
    pub op: CmpOp,
    pub operand: Operand,
}

impl Predicate {
    /// Whether the row `(key, value)` satisfies this predicate.
    pub fn matches(&self, key: &[u8], value: &[u8]) -> bool {
        let field = match self.field {
            Field::Key => key,
            Field::Value => value,
        };
        match &self.operand {
            Operand::Bytes(rhs) => self.op.accepts(field.cmp(rhs.as_slice())),
            Operand::U64(rhs) => match parse_u64(field) {
                Some(lhs) => self.op.accepts(lhs.cmp(rhs)),
                None => false,
            },
        }
    }
}

/// Which row parts a scan returns. The key always rides along as the
/// merge/sort handle; `KeyOnly` saves the value bytes on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Projection {
    KeyValue,
    KeyOnly,
}

impl Projection {
    /// Materializes one output row under this projection.
    pub fn apply(self, key: &[u8], value: &[u8]) -> (Vec<u8>, Vec<u8>) {
        match self {
            Projection::KeyValue => (key.to_vec(), value.to_vec()),
            Projection::KeyOnly => (key.to_vec(), Vec::new()),
        }
    }
}

/// Optional aggregate computed over matching rows instead of returning them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregate {
    /// Number of matching rows.
    Count,
    /// Wrapping sum of values parsed as 8-byte LE `u64` (non-parsing rows
    /// are skipped).
    SumU64,
    /// Minimum of values parsed as 8-byte LE `u64`.
    MinU64,
    /// Maximum of values parsed as 8-byte LE `u64`.
    MaxU64,
}

/// Running (and mergeable) state of an [`Aggregate`]. Page Stores return
/// partial states per slice; the SAL planner merges them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AggState {
    /// Matching rows seen (the `COUNT` result).
    pub count: u64,
    /// Wrapping sum over parseable values.
    pub sum: u64,
    pub min: Option<u64>,
    pub max: Option<u64>,
}

impl AggState {
    /// Folds one matching row's value into the state.
    pub fn update(&mut self, value: &[u8]) {
        self.count += 1;
        if let Some(v) = parse_u64(value) {
            self.sum = self.sum.wrapping_add(v);
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = Some(self.max.map_or(v, |m| m.max(v)));
        }
    }

    /// Merges another partial state into this one (commutative).
    pub fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// The final scalar for a given aggregate function. `None` when the
    /// aggregate is undefined (MIN/MAX over zero parseable rows).
    pub fn result(&self, agg: Aggregate) -> Option<u64> {
        match agg {
            Aggregate::Count => Some(self.count),
            Aggregate::SumU64 => Some(self.sum),
            Aggregate::MinU64 => self.min,
            Aggregate::MaxU64 => self.max,
        }
    }
}

fn parse_u64(bytes: &[u8]) -> Option<u64> {
    let arr: [u8; 8] = bytes.try_into().ok()?;
    Some(u64::from_le_bytes(arr))
}

/// A serializable scan operator: key range, conjunctive predicates,
/// projection, optional aggregate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanRequest {
    /// Inclusive start of the key range.
    pub start: Vec<u8>,
    /// Exclusive end of the key range; `None` scans to the end of the table.
    pub end: Option<Vec<u8>>,
    /// All predicates must hold (conjunction).
    pub predicates: Vec<Predicate>,
    pub projection: Projection,
    /// When set, matching rows are folded into an [`AggState`] and no rows
    /// are returned.
    pub aggregate: Option<Aggregate>,
}

impl ScanRequest {
    /// A full-table scan returning every row.
    pub fn full() -> Self {
        ScanRequest {
            start: Vec::new(),
            end: None,
            predicates: Vec::new(),
            projection: Projection::KeyValue,
            aggregate: None,
        }
    }

    pub fn with_range(mut self, start: &[u8], end: Option<&[u8]>) -> Self {
        self.start = start.to_vec();
        self.end = end.map(|e| e.to_vec());
        self
    }

    pub fn with_predicate(mut self, field: Field, op: CmpOp, operand: Operand) -> Self {
        self.predicates.push(Predicate { field, op, operand });
        self
    }

    pub fn with_projection(mut self, projection: Projection) -> Self {
        self.projection = projection;
        self
    }

    pub fn with_aggregate(mut self, aggregate: Aggregate) -> Self {
        self.aggregate = Some(aggregate);
        self
    }

    /// Whether `key` falls inside the scan's `[start, end)` range.
    pub fn key_in_range(&self, key: &[u8]) -> bool {
        if key < self.start.as_slice() {
            return false;
        }
        match &self.end {
            Some(end) => key < end.as_slice(),
            None => true,
        }
    }

    /// Whether the row is in range and satisfies every predicate.
    pub fn matches(&self, key: &[u8], value: &[u8]) -> bool {
        self.key_in_range(key) && self.predicates.iter().all(|p| p.matches(key, value))
    }

    // ---- wire encoding (hand-rolled, same idiom as `LogRecord`) ----

    /// Appends the wire encoding of this request to `out`.
    pub fn encode_into(&self, out: &mut BytesMut) {
        out.put_u32_le(self.start.len() as u32);
        out.put_slice(&self.start);
        match &self.end {
            None => out.put_u8(0),
            Some(end) => {
                out.put_u8(1);
                out.put_u32_le(end.len() as u32);
                out.put_slice(end);
            }
        }
        out.put_u16_le(self.predicates.len() as u16);
        for p in &self.predicates {
            out.put_u8(match p.field {
                Field::Key => 0,
                Field::Value => 1,
            });
            out.put_u8(match p.op {
                CmpOp::Lt => 0,
                CmpOp::Le => 1,
                CmpOp::Eq => 2,
                CmpOp::Ne => 3,
                CmpOp::Ge => 4,
                CmpOp::Gt => 5,
            });
            match &p.operand {
                Operand::Bytes(b) => {
                    out.put_u8(0);
                    out.put_u32_le(b.len() as u32);
                    out.put_slice(b);
                }
                Operand::U64(v) => {
                    out.put_u8(1);
                    out.put_u64_le(*v);
                }
            }
        }
        out.put_u8(match self.projection {
            Projection::KeyValue => 0,
            Projection::KeyOnly => 1,
        });
        out.put_u8(match self.aggregate {
            None => 0,
            Some(Aggregate::Count) => 1,
            Some(Aggregate::SumU64) => 2,
            Some(Aggregate::MinU64) => 3,
            Some(Aggregate::MaxU64) => 4,
        });
    }

    /// Encodes this request into a standalone buffer.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        self.encode_into(&mut out);
        out.freeze()
    }

    /// Decodes one request from the front of `buf`, consuming its bytes.
    pub fn decode(buf: &mut Bytes) -> Result<ScanRequest> {
        let start = take_bytes(buf, "scan start")?;
        if buf.remaining() < 1 {
            return Err(TaurusError::Codec("scan request truncated: end tag"));
        }
        let end = match buf.get_u8() {
            0 => None,
            1 => Some(take_bytes(buf, "scan end")?),
            _ => return Err(TaurusError::Codec("scan request: bad end tag")),
        };
        if buf.remaining() < 2 {
            return Err(TaurusError::Codec("scan request truncated: predicates"));
        }
        let npreds = buf.get_u16_le() as usize;
        let mut predicates = Vec::with_capacity(npreds);
        for _ in 0..npreds {
            if buf.remaining() < 3 {
                return Err(TaurusError::Codec("scan predicate truncated"));
            }
            let field = match buf.get_u8() {
                0 => Field::Key,
                1 => Field::Value,
                _ => return Err(TaurusError::Codec("scan predicate: bad field")),
            };
            let op = match buf.get_u8() {
                0 => CmpOp::Lt,
                1 => CmpOp::Le,
                2 => CmpOp::Eq,
                3 => CmpOp::Ne,
                4 => CmpOp::Ge,
                5 => CmpOp::Gt,
                _ => return Err(TaurusError::Codec("scan predicate: bad op")),
            };
            let operand = match buf.get_u8() {
                0 => Operand::Bytes(take_bytes(buf, "scan operand")?),
                1 => {
                    if buf.remaining() < 8 {
                        return Err(TaurusError::Codec("scan operand truncated"));
                    }
                    Operand::U64(buf.get_u64_le())
                }
                _ => return Err(TaurusError::Codec("scan predicate: bad operand tag")),
            };
            predicates.push(Predicate { field, op, operand });
        }
        if buf.remaining() < 2 {
            return Err(TaurusError::Codec("scan request truncated: tail"));
        }
        let projection = match buf.get_u8() {
            0 => Projection::KeyValue,
            1 => Projection::KeyOnly,
            _ => return Err(TaurusError::Codec("scan request: bad projection")),
        };
        let aggregate = match buf.get_u8() {
            0 => None,
            1 => Some(Aggregate::Count),
            2 => Some(Aggregate::SumU64),
            3 => Some(Aggregate::MinU64),
            4 => Some(Aggregate::MaxU64),
            _ => return Err(TaurusError::Codec("scan request: bad aggregate")),
        };
        Ok(ScanRequest {
            start,
            end,
            predicates,
            projection,
            aggregate,
        })
    }
}

fn take_bytes(buf: &mut Bytes, what: &'static str) -> Result<Vec<u8>> {
    if buf.remaining() < 4 {
        return Err(TaurusError::Codec(what));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(TaurusError::Codec(what));
    }
    Ok(buf.split_to(len).to_vec())
}

/// Accumulated output of a scan: projected rows *or* a partial aggregate,
/// plus the counters observability wants. Shared by Page-Store-side
/// execution and the engine-side fallback.
#[derive(Clone, Debug, Default)]
pub struct ScanAccumulator {
    /// Projected matching rows (empty when the request aggregates).
    pub rows: Vec<(Vec<u8>, Vec<u8>)>,
    /// Partial aggregate (meaningful when the request aggregates).
    pub agg: AggState,
    /// Slots examined, matching or not.
    pub rows_scanned: u64,
    /// Rows that passed range + predicates.
    pub rows_matched: u64,
    /// Bytes of projected row payload accumulated in `rows`.
    pub bytes_out: u64,
}

impl ScanAccumulator {
    /// Folds one matching row into the accumulator per the request.
    pub fn add(&mut self, req: &ScanRequest, key: &[u8], value: &[u8]) {
        self.rows_matched += 1;
        if req.aggregate.is_some() {
            self.agg.update(value);
        } else {
            let row = req.projection.apply(key, value);
            self.bytes_out += (row.0.len() + row.1.len()) as u64;
            self.rows.push(row);
        }
    }
}

/// Evaluates the operator over one slotted page. Non-leaf pages contribute
/// nothing (internal/control pages hold no table rows; a page id that
/// materializes as `Free` at the snapshot did not exist yet). This function
/// is pure over its inputs — the single code path both execution sites use.
pub fn evaluate_leaf_page(
    page: &PageBuf,
    req: &ScanRequest,
    acc: &mut ScanAccumulator,
) -> Result<()> {
    if page.page_type() != PageType::Leaf {
        return Ok(());
    }
    for idx in 0..page.nslots() {
        acc.rows_scanned += 1;
        let key = page.key(idx)?;
        if !req.key_in_range(key) {
            continue;
        }
        let value = page.value(idx)?;
        if req.predicates.iter().all(|p| p.matches(key, value)) {
            acc.add(req, key, value);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_record;
    use crate::ids::PageId;
    use crate::lsn::Lsn;
    use crate::record::{LogRecord, RecordBody};

    fn leaf_with(rows: &[(&[u8], &[u8])]) -> PageBuf {
        let mut page = PageBuf::new();
        page.format(PageType::Leaf, 0);
        for (i, (k, v)) in rows.iter().enumerate() {
            page.insert(i, k, v).unwrap();
        }
        page
    }

    #[test]
    fn range_and_predicates_filter_rows() {
        let page = leaf_with(&[(b"a", b"1"), (b"b", b"2"), (b"c", b"3"), (b"d", b"4")]);
        let req = ScanRequest::full().with_range(b"b", Some(b"d"));
        let mut acc = ScanAccumulator::default();
        evaluate_leaf_page(&page, &req, &mut acc).unwrap();
        assert_eq!(
            acc.rows,
            vec![
                (b"b".to_vec(), b"2".to_vec()),
                (b"c".to_vec(), b"3".to_vec())
            ]
        );
        assert_eq!(acc.rows_scanned, 4);
        assert_eq!(acc.rows_matched, 2);

        let req = ScanRequest::full().with_predicate(
            Field::Value,
            CmpOp::Ge,
            Operand::Bytes(b"3".to_vec()),
        );
        let mut acc = ScanAccumulator::default();
        evaluate_leaf_page(&page, &req, &mut acc).unwrap();
        assert_eq!(acc.rows.len(), 2);
        assert_eq!(acc.rows[0].0, b"c");
    }

    #[test]
    fn u64_predicates_require_exactly_eight_bytes() {
        let v10 = 10u64.to_le_bytes();
        let v20 = 20u64.to_le_bytes();
        let page = leaf_with(&[(b"a", &v10[..]), (b"b", &v20[..]), (b"c", b"short")]);
        let req = ScanRequest::full().with_predicate(Field::Value, CmpOp::Gt, Operand::U64(15));
        let mut acc = ScanAccumulator::default();
        evaluate_leaf_page(&page, &req, &mut acc).unwrap();
        // "short" cannot parse -> fails the predicate; only b matches.
        assert_eq!(acc.rows.len(), 1);
        assert_eq!(acc.rows[0].0, b"b");
    }

    #[test]
    fn key_only_projection_drops_values() {
        let page = leaf_with(&[(b"k1", b"vvvv"), (b"k2", b"wwww")]);
        let req = ScanRequest::full().with_projection(Projection::KeyOnly);
        let mut acc = ScanAccumulator::default();
        evaluate_leaf_page(&page, &req, &mut acc).unwrap();
        assert!(acc.rows.iter().all(|(_, v)| v.is_empty()));
        assert_eq!(acc.bytes_out, 4); // just the two 2-byte keys
    }

    #[test]
    fn aggregates_fold_and_merge() {
        let a = 3u64.to_le_bytes();
        let b = 7u64.to_le_bytes();
        let page = leaf_with(&[(b"a", &a[..]), (b"b", &b[..]), (b"c", b"x")]);
        let req = ScanRequest::full().with_aggregate(Aggregate::SumU64);
        let mut acc = ScanAccumulator::default();
        evaluate_leaf_page(&page, &req, &mut acc).unwrap();
        assert!(acc.rows.is_empty());
        assert_eq!(acc.agg.count, 3); // COUNT counts all matches
        assert_eq!(acc.agg.result(Aggregate::SumU64), Some(10)); // "x" skipped
        assert_eq!(acc.agg.result(Aggregate::MinU64), Some(3));
        assert_eq!(acc.agg.result(Aggregate::MaxU64), Some(7));

        let mut merged = AggState::default();
        merged.merge(&acc.agg);
        merged.merge(&acc.agg);
        assert_eq!(merged.count, 6);
        assert_eq!(merged.sum, 20);
        assert_eq!(merged.min, Some(3));
        assert_eq!(merged.max, Some(7));
        // MIN over zero parseable rows is undefined.
        assert_eq!(AggState::default().result(Aggregate::MinU64), None);
    }

    #[test]
    fn non_leaf_pages_contribute_nothing() {
        let mut page = PageBuf::new();
        page.format(PageType::Internal, 1);
        page.insert(0, b"sep", &7u64.to_le_bytes()).unwrap();
        let req = ScanRequest::full();
        let mut acc = ScanAccumulator::default();
        evaluate_leaf_page(&page, &req, &mut acc).unwrap();
        assert!(acc.rows.is_empty());
        assert_eq!(acc.rows_scanned, 0);
    }

    #[test]
    fn evaluator_agrees_with_apply_record_built_pages() {
        // Build the page through the redo path, the way Page Stores do.
        let mut page = PageBuf::new();
        for (lsn, body) in [
            (
                1,
                RecordBody::Format {
                    ty: PageType::Leaf,
                    level: 0,
                },
            ),
            (
                2,
                RecordBody::Insert {
                    idx: 0,
                    key: Bytes::from_static(b"apple"),
                    val: Bytes::from_static(b"red"),
                },
            ),
            (
                3,
                RecordBody::Insert {
                    idx: 1,
                    key: Bytes::from_static(b"banana"),
                    val: Bytes::from_static(b"yellow"),
                },
            ),
        ] {
            apply_record(&mut page, &LogRecord::new(Lsn(lsn), PageId(9), body)).unwrap();
        }
        let req = ScanRequest::full().with_predicate(
            Field::Value,
            CmpOp::Eq,
            Operand::Bytes(b"yellow".to_vec()),
        );
        let mut acc = ScanAccumulator::default();
        evaluate_leaf_page(&page, &req, &mut acc).unwrap();
        assert_eq!(acc.rows, vec![(b"banana".to_vec(), b"yellow".to_vec())]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let reqs = vec![
            ScanRequest::full(),
            ScanRequest::full()
                .with_range(b"k-10", Some(b"k-20"))
                .with_predicate(Field::Value, CmpOp::Ne, Operand::Bytes(b"skip".to_vec()))
                .with_predicate(Field::Key, CmpOp::Ge, Operand::Bytes(b"k-12".to_vec()))
                .with_projection(Projection::KeyOnly),
            ScanRequest::full()
                .with_predicate(Field::Value, CmpOp::Lt, Operand::U64(1 << 40))
                .with_aggregate(Aggregate::MaxU64),
            ScanRequest::full().with_aggregate(Aggregate::Count),
        ];
        for req in reqs {
            let mut buf = req.encode();
            let back = ScanRequest::decode(&mut buf).unwrap();
            assert_eq!(back, req);
            assert_eq!(buf.remaining(), 0, "decode must consume everything");
        }
    }

    #[test]
    fn decode_rejects_truncation_and_bad_tags() {
        let req = ScanRequest::full().with_predicate(
            Field::Key,
            CmpOp::Eq,
            Operand::Bytes(b"x".to_vec()),
        );
        let full = req.encode();
        for cut in 0..full.len() {
            let mut buf = full.slice(..cut);
            assert!(
                ScanRequest::decode(&mut buf).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut bad = BytesMut::new();
        bad.put_u32_le(0); // empty start
        bad.put_u8(9); // invalid end tag
        assert!(ScanRequest::decode(&mut bad.freeze()).is_err());
    }
}
