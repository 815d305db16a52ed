//! Per-slice replica state: the fragment ledger, persistent LSN, and
//! hole tracking.
//!
//! "For each of its slices, a Page Store tracks a slice persistent LSN,
//! which is the LSN up to which the Page Store has received all log records
//! for the slice" (paper §4.3). Fragments carry a *chain link*
//! (`prev_last_lsn`); the persistent LSN is the end of the longest unbroken
//! chain of received fragments. Fragments whose link does not connect are
//! *pending*: the gaps before them are holes that gossip or the SAL must
//! repair (§5.2).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use taurus_common::{Lsn, SliceKey};

use crate::directory::{DiskLoc, LogDirectory};
use crate::layers::LayerStore;

/// Bookkeeping for one received fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragMeta {
    pub loc: DiskLoc,
    pub prev_last_lsn: Lsn,
    pub first_lsn: Lsn,
    pub last_lsn: Lsn,
    pub consolidated: bool,
}

/// Outcome of offering a fragment to a replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOutcome {
    /// New fragment, stored under the returned local id.
    Accepted(u64),
    /// Entirely covered by what the replica already has; dropped.
    Duplicate,
}

/// State of one slice replica hosted by a Page Store server.
#[derive(Debug)]
pub struct SliceReplica {
    pub key: SliceKey,
    /// Received fragments by replica-local id (ingest order).
    pub frags: BTreeMap<u64, FragMeta>,
    /// Stored fragments by their `(first, last)` LSN bounds: the duplicate
    /// check and the gossip lookup, without a scan of `frags`.
    by_bounds: HashMap<(Lsn, Lsn), u64>,
    /// Ids of the fragments whose last LSN is above the persistent LSN —
    /// the only ones that can extend the chain.
    pending: Vec<u64>,
    /// `(first LSN, id)` of every accepted fragment not yet consolidated
    /// (staged into the open L0): a compaction may not reach past the
    /// first of them, whose records no sealed run holds yet.
    unstaged: BTreeSet<(Lsn, u64)>,
    next_local_id: u64,
    /// Last LSN of the unbroken fragment chain.
    persistent_lsn: Lsn,
    /// Oldest LSN the front end may still request (§3.4 SetRecycleLSN).
    recycle_lsn: Lsn,
    /// The Log Directory for this slice. Shared (`Arc`) so readers and
    /// consolidation can use it without holding the replica mutex — the
    /// directory has its own internal sharded locking.
    pub directory: Arc<LogDirectory>,
    /// Layer bookkeeping for log-structured consolidation. Shared (`Arc`)
    /// like the directory so the compactor and the record-fetch path use it
    /// without holding the replica mutex.
    pub layers: Arc<LayerStore>,
    /// A rebuilding replica accepts writes but cannot serve reads until the
    /// latest pages have been copied from a healthy peer (§5.2).
    pub rebuilding: bool,
    /// Elastic cut-over fence (DESIGN.md §14): once set, this replica owns
    /// only versions `<= fence` — writes ending above it and reads as of
    /// LSNs above it are refused, because they belong to the successor
    /// placement. `None` = active.
    pub fence_lsn: Option<Lsn>,
    /// Placement epoch this replica last heard (via cut-over RPC or gossip).
    /// Purely informational — authority lives in the cluster placement map.
    pub placement_epoch: u64,
}

impl SliceReplica {
    pub fn new(key: SliceKey) -> Self {
        SliceReplica {
            key,
            frags: BTreeMap::new(),
            by_bounds: HashMap::new(),
            pending: Vec::new(),
            unstaged: BTreeSet::new(),
            next_local_id: 0,
            persistent_lsn: Lsn::ZERO,
            recycle_lsn: Lsn::ZERO,
            directory: Arc::new(LogDirectory::new()),
            layers: Arc::new(LayerStore::new()),
            rebuilding: false,
            fence_lsn: None,
            placement_epoch: 0,
        }
    }

    /// Creates a replacement replica that starts life at a donor's horizon:
    /// everything at or below `persistent_lsn` is considered consolidated
    /// into the pages being copied. The persistent LSN restarts at the
    /// donor's value — which is how a persistent-LSN *decrease* becomes
    /// visible to the SAL when the donor itself was missing records
    /// (paper Fig. 4(b)).
    pub fn new_rebuilding(key: SliceKey, persistent_lsn: Lsn, recycle_lsn: Lsn) -> Self {
        SliceReplica {
            key,
            frags: BTreeMap::new(),
            by_bounds: HashMap::new(),
            pending: Vec::new(),
            unstaged: BTreeSet::new(),
            next_local_id: 0,
            persistent_lsn,
            recycle_lsn,
            directory: Arc::new(LogDirectory::new()),
            layers: Arc::new(LayerStore::new()),
            rebuilding: true,
            fence_lsn: None,
            placement_epoch: 0,
        }
    }

    /// Applies an elastic cut-over fence (idempotent; fences only tighten).
    /// Returns whether anything changed — the gossip epoch-push counter.
    pub fn apply_fence(&mut self, fence: Lsn, epoch: u64) -> bool {
        let tighter = match self.fence_lsn {
            Some(f) => fence < f,
            None => true,
        };
        let newer = epoch > self.placement_epoch;
        if tighter {
            self.fence_lsn = Some(fence);
        }
        if newer {
            self.placement_epoch = epoch;
        }
        tighter || newer
    }

    /// Whether a fragment with these bounds is already stored.
    pub fn has_equivalent(&self, first: Lsn, last: Lsn) -> bool {
        self.by_bounds.contains_key(&(first, last))
    }

    /// Records the arrival of a fragment. Advances the persistent LSN along
    /// any newly unbroken chain.
    pub fn ingest(&mut self, meta: FragMeta) -> IngestOutcome {
        if meta.last_lsn <= self.persistent_lsn {
            return IngestOutcome::Duplicate;
        }
        if self.has_equivalent(meta.first_lsn, meta.last_lsn) {
            return IngestOutcome::Duplicate;
        }
        let id = self.next_local_id;
        self.next_local_id += 1;
        self.frags.insert(id, meta);
        self.by_bounds.insert((meta.first_lsn, meta.last_lsn), id);
        self.pending.push(id);
        if !meta.consolidated {
            self.unstaged.insert((meta.first_lsn, id));
        }
        self.extend_chain();
        IngestOutcome::Accepted(id)
    }

    /// Advances the persistent LSN across every fragment whose chain link
    /// now connects. Overlapping fragments (from recovery resends) connect
    /// whenever their link is at or below the current persistent LSN.
    fn extend_chain(&mut self) {
        let frags = &self.frags;
        loop {
            let persistent = self.persistent_lsn;
            let ext = self
                .pending
                .iter()
                .filter_map(|id| frags.get(id))
                .filter(|m| m.prev_last_lsn <= persistent && m.last_lsn > persistent)
                .map(|m| m.last_lsn)
                .max();
            match ext {
                Some(lsn) => self.persistent_lsn = lsn,
                None => break,
            }
        }
        let persistent = self.persistent_lsn;
        self.pending
            .retain(|id| frags.get(id).is_some_and(|m| m.last_lsn > persistent));
    }

    pub fn persistent_lsn(&self) -> Lsn {
        self.persistent_lsn
    }

    pub fn recycle_lsn(&self) -> Lsn {
        self.recycle_lsn
    }

    pub fn advance_recycle_lsn(&mut self, lsn: Lsn) {
        self.recycle_lsn = self.recycle_lsn.max(lsn);
    }

    /// Fragment inventory for gossip: `(first, last, prev)` triples of every
    /// stored fragment.
    pub fn inventory(&self) -> Vec<(Lsn, Lsn, Lsn)> {
        let mut v: Vec<(Lsn, Lsn, Lsn)> = self
            .frags
            .values()
            .map(|m| (m.first_lsn, m.last_lsn, m.prev_last_lsn))
            .collect();
        v.sort();
        v
    }

    /// Local id of a stored fragment by its bounds (gossip supply lookup).
    pub fn find_fragment(&self, first: Lsn, last: Lsn) -> Option<u64> {
        self.by_bounds.get(&(first, last)).copied()
    }

    /// Fragments whose chain link has not connected (they sit beyond holes).
    pub fn pending_frags(&self) -> Vec<FragMeta> {
        let mut v: Vec<FragMeta> = self
            .frags
            .values()
            .filter(|m| m.last_lsn > self.persistent_lsn)
            .copied()
            .collect();
        v.sort_by_key(|m| m.first_lsn);
        v
    }

    /// LSN ranges not yet received, as `(after, before)` exclusive bounds:
    /// the records the replica is missing are those with
    /// `after < lsn < before`. This answers the SAL's "which LSN ranges are
    /// you missing?" query (paper §5.2, the Fig. 4(c) scenario).
    pub fn missing_lsn_ranges(&self) -> Vec<(Lsn, Lsn)> {
        let mut ranges = Vec::new();
        let mut covered_to = self.persistent_lsn;
        for m in self.pending_frags() {
            if m.prev_last_lsn > covered_to {
                ranges.push((covered_to, m.first_lsn));
            }
            covered_to = covered_to.max(m.last_lsn);
        }
        ranges
    }

    /// Marks a fragment consolidated.
    pub fn mark_consolidated(&mut self, id: u64) {
        if let Some(m) = self.frags.get_mut(&id) {
            m.consolidated = true;
            self.unstaged.remove(&(m.first_lsn, id));
        }
    }

    /// The first LSN of the lowest fragment accepted but not consolidated.
    pub fn unstaged_first(&self) -> Option<Lsn> {
        self.unstaged.first().map(|&(lsn, _)| lsn)
    }

    /// Drops fragment bookkeeping that is entirely below the recycle LSN,
    /// already consolidated, and not in `referenced` (the Log Directory's
    /// surviving record pointers — the caller scans them once, after its
    /// directory purge, so this stays byte-accurate). Returns how many
    /// fragments were dropped and how many stored payload bytes their device
    /// blobs occupied — the reclaimed-bytes ledger for
    /// `PageStoreStats::frag_bytes_reclaimed`.
    pub fn gc_frags(&mut self, referenced: &HashSet<u64>) -> (usize, u64) {
        let recycle = self.recycle_lsn;
        let mut dropped = 0usize;
        let mut bytes = 0u64;
        let by_bounds = &mut self.by_bounds;
        self.frags.retain(|id, m| {
            let keep = referenced.contains(id) || !(m.consolidated && m.last_lsn < recycle);
            if !keep {
                dropped += 1;
                bytes += m.loc.len as u64;
                by_bounds.remove(&(m.first_lsn, m.last_lsn));
            }
            keep
        });
        (dropped, bytes)
    }

    /// The highest LSN this replica knows about (may exceed persistent LSN
    /// when there are holes).
    pub fn newest_lsn(&self) -> Lsn {
        self.frags
            .values()
            .map(|m| m.last_lsn)
            .max()
            .unwrap_or(Lsn::ZERO)
            .max(self.persistent_lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::{DbId, SliceId};

    fn meta(prev: u64, first: u64, last: u64) -> FragMeta {
        FragMeta {
            loc: DiskLoc { offset: 0, len: 0 },
            prev_last_lsn: Lsn(prev),
            first_lsn: Lsn(first),
            last_lsn: Lsn(last),
            consolidated: false,
        }
    }

    fn replica() -> SliceReplica {
        SliceReplica::new(SliceKey::new(DbId(1), SliceId(0)))
    }

    #[test]
    fn persistent_lsn_advances_with_chained_fragments() {
        let mut r = replica();
        assert_eq!(r.persistent_lsn(), Lsn::ZERO);
        assert!(matches!(
            r.ingest(meta(0, 1, 5)),
            IngestOutcome::Accepted(_)
        ));
        assert_eq!(r.persistent_lsn(), Lsn(5));
        assert!(matches!(
            r.ingest(meta(5, 6, 9)),
            IngestOutcome::Accepted(_)
        ));
        assert_eq!(r.persistent_lsn(), Lsn(9));
    }

    #[test]
    fn broken_chain_stalls_until_the_hole_fills() {
        let mut r = replica();
        r.ingest(meta(0, 1, 5));
        // The fragment after next arrives first.
        r.ingest(meta(10, 11, 15));
        assert_eq!(r.persistent_lsn(), Lsn(5));
        assert_eq!(r.missing_lsn_ranges(), vec![(Lsn(5), Lsn(11))]);
        assert_eq!(r.newest_lsn(), Lsn(15));
        // The hole fills: the chain extends across both fragments.
        r.ingest(meta(5, 6, 10));
        assert_eq!(r.persistent_lsn(), Lsn(15));
        assert!(r.missing_lsn_ranges().is_empty());
    }

    #[test]
    fn duplicates_and_covered_fragments_are_rejected() {
        let mut r = replica();
        assert!(matches!(
            r.ingest(meta(0, 1, 5)),
            IngestOutcome::Accepted(_)
        ));
        assert_eq!(r.ingest(meta(0, 1, 5)), IngestOutcome::Duplicate);
        // Entirely below persistent: covered.
        assert_eq!(r.ingest(meta(0, 1, 3)), IngestOutcome::Duplicate);
    }

    #[test]
    fn overlapping_recovery_resend_extends_the_chain() {
        let mut r = replica();
        r.ingest(meta(0, 1, 5));
        r.ingest(meta(9, 10, 12)); // pending: hole (5, 10)
        assert_eq!(r.persistent_lsn(), Lsn(5));
        // Recovery resends an overlapping fragment [3..9] linked below the
        // persistent LSN: it connects and bridges straight to the pending
        // fragment.
        assert!(matches!(
            r.ingest(meta(2, 3, 9)),
            IngestOutcome::Accepted(_)
        ));
        assert_eq!(r.persistent_lsn(), Lsn(12));
    }

    #[test]
    fn multiple_holes_reported_in_order() {
        let mut r = replica();
        r.ingest(meta(0, 1, 2));
        r.ingest(meta(4, 5, 6));
        r.ingest(meta(8, 9, 10));
        assert_eq!(
            r.missing_lsn_ranges(),
            vec![(Lsn(2), Lsn(5)), (Lsn(6), Lsn(9))]
        );
    }

    #[test]
    fn recycle_lsn_is_monotone_and_gc_respects_consolidation() {
        let mut r = replica();
        let id0 = match r.ingest(meta(0, 1, 5)) {
            IngestOutcome::Accepted(id) => id,
            _ => unreachable!(),
        };
        r.ingest(meta(5, 6, 9));
        assert_eq!(r.unstaged_first(), Some(Lsn(1)));
        r.advance_recycle_lsn(Lsn(10));
        r.advance_recycle_lsn(Lsn(7)); // lower: ignored
        assert_eq!(r.recycle_lsn(), Lsn(10));
        let unreferenced = HashSet::new();
        // Unconsolidated fragments are never GCed.
        assert_eq!(r.gc_frags(&unreferenced), (0, 0));
        r.mark_consolidated(id0);
        assert_eq!(r.unstaged_first(), Some(Lsn(6)));
        // A referenced fragment survives even once consolidated + recycled.
        let referenced: HashSet<u64> = [id0].into_iter().collect();
        assert_eq!(r.gc_frags(&referenced), (0, 0));
        // Unreferenced: dropped, and its stored payload bytes are reported.
        r.frags.get_mut(&id0).unwrap().loc.len = 64;
        assert_eq!(r.gc_frags(&unreferenced), (1, 64));
        assert_eq!(r.frags.len(), 1);
    }

    #[test]
    fn rebuilding_replica_reflects_donor_horizon() {
        let mut r =
            SliceReplica::new_rebuilding(SliceKey::new(DbId(1), SliceId(0)), Lsn(40), Lsn(10));
        assert_eq!(r.persistent_lsn(), Lsn(40));
        assert!(r.rebuilding);
        // New fragments chained at the donor horizon extend normally.
        assert!(matches!(
            r.ingest(meta(40, 41, 45)),
            IngestOutcome::Accepted(_)
        ));
        assert_eq!(r.persistent_lsn(), Lsn(45));
        // Fragments chained beyond it are pending (SAL will detect the
        // persistent-LSN regression and resend — Fig. 4(b)).
        r.ingest(meta(50, 51, 55));
        assert_eq!(r.persistent_lsn(), Lsn(45));
        assert_eq!(r.missing_lsn_ranges(), vec![(Lsn(45), Lsn(51))]);
    }

    #[test]
    fn inventory_and_lookup() {
        let mut r = replica();
        r.ingest(meta(0, 1, 5));
        r.ingest(meta(5, 6, 9));
        let inv = r.inventory();
        assert_eq!(
            inv,
            vec![(Lsn(1), Lsn(5), Lsn(0)), (Lsn(6), Lsn(9), Lsn(5))]
        );
        assert!(r.find_fragment(Lsn(1), Lsn(5)).is_some());
        assert!(r.find_fragment(Lsn(1), Lsn(9)).is_none());
    }
}
