//! Versioned slice-placement map: the indirection that makes slices elastic.
//!
//! Before this module, placement was implicit: `PageId::slice()` arithmetic
//! named the slice and `PageStoreCluster::create_slice` froze its replica set
//! forever. The [`PlacementMap`] replaces that with an **epoch-stamped**
//! `SliceKey → replica set` table plus a per-database page-range overlay, so
//! a slice can be split, merged, or moved while the database is online
//! (DESIGN.md §14):
//!
//! - Every entry carries the **epoch** at which it was last changed and the
//!   global map epoch advances on every mutation. Data-path RPCs carry the
//!   caller's cached epoch; a mismatch returns
//!   [`TaurusError::PlacementEpochMismatch`] and the caller refreshes.
//! - A retired entry keeps its replica set and a **fence LSN** `F`: the old
//!   placement owns every version `<= F`, the successor owns `(F, ∞)`.
//!   Readers route by `(page, as_of)` — the owner is the entry with the
//!   smallest fence at or above `as_of` — so no page version is ever lost
//!   (the parent still serves history) or double-served (the fence
//!   partitions the LSN axis).
//! - Dynamic slices (split children, merge results) get ids from a disjoint
//!   namespace ([`DYNAMIC_SLICE_BASE`]) and explicit page ranges in the
//!   overlay. A root slice's range is the arithmetic range of its id, which
//!   is where `route_write` falls through to when no overlay covers a page
//!   and what its [`IngestFilter`] materialises — so repair and recovery
//!   partition the log by filter for every slice, root or dynamic.
//!
//! The map itself is pure data guarded by one `RwLock` in the cluster; it
//! never performs fabric calls and never takes another lock, so it can be
//! read from under the SAL state lock (DESIGN.md §7 lock-order table).

use std::collections::{BTreeMap, HashMap};

use taurus_common::{DbId, Lsn, NodeId, PageId, Result, SliceId, SliceKey, TaurusError};

/// First slice id handed out to dynamically created slices (split children,
/// merge results). Arithmetic slice ids are `page / pages_per_slice`, which
/// stays far below this for any realistic page count, so the namespaces
/// never collide.
pub const DYNAMIC_SLICE_BASE: u64 = 1 << 32;

/// One slice's placement: where its replicas live and which LSN interval of
/// the database history it owns for its page range.
#[derive(Clone, Debug)]
pub struct PlacementEntry {
    /// Current replica set (after a move: the post-move set).
    pub nodes: Vec<NodeId>,
    /// Epoch at which this entry last changed. Compared against the epoch
    /// cached by RPC callers.
    pub epoch: u64,
    /// Page range `[start, end)` owned by the slice. `None` means the
    /// arithmetic range of the slice id (`[id*pps, (id+1)*pps)`), which keeps
    /// static entries independent of any one tenant's `pages_per_slice`.
    pub range: Option<(u64, u64)>,
    /// LSN of the layer snapshot this slice was seeded from. Records with
    /// `lsn <= base_lsn` arrived via `import_pages`, not the log; the slice's
    /// log history starts strictly above it. Zero for root slices.
    pub base_lsn: Lsn,
    /// Retirement fence: `Some(F)` means the slice was split/merged away and
    /// owns only versions `<= F`. `None` means active.
    pub fence_lsn: Option<Lsn>,
    /// Ex-replicas from moves, with the fence LSN at which each was cut off.
    /// Gossip keeps re-pushing the fence to these until GC drops their copy,
    /// so a node that was down during the move still learns it.
    pub retired_nodes: Vec<(NodeId, Lsn)>,
}

impl PlacementEntry {
    fn contains_page(&self, key: SliceKey, page: PageId, pps: u64) -> bool {
        match self.range {
            Some((start, end)) => page.0 >= start && page.0 < end,
            None => page.slice(pps) == key.slice,
        }
    }

    /// The page range, materializing the arithmetic default.
    pub fn range_of(&self, key: SliceKey, pps: u64) -> (u64, u64) {
        self.range
            .unwrap_or((key.slice.0 * pps, (key.slice.0 + 1) * pps))
    }
}

/// Ingest-interval filter for one slice: which log records belong to it.
/// Used by repair and recovery to partition the log. A record belongs iff
/// its page is in `[start, end)` and its LSN is in `(base, fence]` (fence
/// `None` = unbounded). Note the deliberate overlap with the parent's
/// interval at a cut-over: records in `(base, fence_parent]` are stored on
/// both generations but served by exactly one (the fence partitions reads).
#[derive(Clone, Copy, Debug)]
pub struct IngestFilter {
    pub start: u64,
    pub end: u64,
    pub base: Lsn,
    pub fence: Option<Lsn>,
}

impl IngestFilter {
    pub fn admits(&self, page: PageId, lsn: Lsn) -> bool {
        page.0 >= self.start
            && page.0 < self.end
            && lsn > self.base
            && self.fence.is_none_or(|f| lsn <= f)
    }
}

/// The versioned placement table. See module docs.
#[derive(Default)]
pub struct PlacementMap {
    /// Global version: bumped on every split/merge/move commit.
    epoch: u64,
    entries: HashMap<SliceKey, PlacementEntry>,
    /// Active dynamic owners per database: `start_page → (end_page, key)`.
    /// Empty until the first split/merge, so the common case is one
    /// `HashMap::get` miss on top of the arithmetic route.
    overrides: HashMap<DbId, BTreeMap<u64, (u64, SliceKey)>>,
    /// Retired slice keys per database (historical read routing).
    retired: HashMap<DbId, Vec<SliceKey>>,
    next_dynamic: u64,
}

impl PlacementMap {
    pub fn new() -> Self {
        PlacementMap {
            next_dynamic: DYNAMIC_SLICE_BASE,
            ..PlacementMap::default()
        }
    }

    /// Current global epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn get(&self, key: SliceKey) -> Option<&PlacementEntry> {
        self.entries.get(&key)
    }

    /// Active slice keys, sorted (stable iteration for gossip/recovery).
    pub fn active_slices(&self) -> Vec<SliceKey> {
        let mut keys: Vec<SliceKey> = self
            .entries
            .iter()
            .filter(|(_, e)| e.fence_lsn.is_none())
            .map(|(k, _)| *k)
            .collect();
        keys.sort();
        keys
    }

    /// Every key with an entry (active + retired), sorted.
    pub fn all_slices(&self) -> Vec<SliceKey> {
        let mut keys: Vec<SliceKey> = self.entries.keys().copied().collect();
        keys.sort();
        keys
    }

    pub fn is_retired(&self, key: SliceKey) -> bool {
        self.entries
            .get(&key)
            .is_some_and(|e| e.fence_lsn.is_some())
    }

    /// Registers a root (arithmetic) slice if absent; returns its replica
    /// set either way. Root entries never bump the global epoch — creation
    /// is not a placement *change*, and keeping the epoch quiet preserves
    /// the pre-elastic determinism fingerprint.
    pub fn insert_root(&mut self, key: SliceKey, nodes: Vec<NodeId>) -> Vec<NodeId> {
        self.entries
            .entry(key)
            .or_insert_with(|| PlacementEntry {
                nodes,
                epoch: 0,
                range: None,
                base_lsn: Lsn::ZERO,
                fence_lsn: None,
                retired_nodes: Vec::new(),
            })
            .nodes
            .clone()
    }

    /// Allocates a fresh dynamic slice key for `db`.
    pub fn allocate_dynamic(&mut self, db: DbId) -> SliceKey {
        let id = self.next_dynamic;
        self.next_dynamic += 1;
        SliceKey::new(db, SliceId(id))
    }

    /// Replaces a failed node in an entry's replica set in place, WITHOUT
    /// bumping any epoch: replica rebuild (§5.2) keeps the placement
    /// generation — callers re-discover the node by refreshing, exactly as
    /// they did before the map was versioned.
    pub fn replace_node(&mut self, key: SliceKey, failed: NodeId, with: NodeId) {
        if let Some(entry) = self.entries.get_mut(&key) {
            if let Some(slot) = entry.nodes.iter_mut().find(|n| **n == failed) {
                *slot = with;
            }
        }
    }

    /// Routes a **write** (or a latest-version read): the active owner of
    /// the page right now.
    pub fn route_write(&self, db: DbId, page: PageId, pps: u64) -> SliceKey {
        if let Some(ranges) = self.overrides.get(&db) {
            if let Some((_, &(end, key))) = ranges.range(..=page.0).next_back() {
                if page.0 < end {
                    return key;
                }
            }
        }
        SliceKey::new(db, page.slice(pps))
    }

    /// Routes a **versioned read**: the owner of `page` as of `as_of` — the
    /// placement generation with the smallest fence at or above `as_of`
    /// (active = fence ∞). `None` routes like a write.
    pub fn route_read(&self, db: DbId, page: PageId, pps: u64, as_of: Option<Lsn>) -> SliceKey {
        let active = self.route_write(db, page, pps);
        let Some(as_of) = as_of else {
            return active;
        };
        let Some(retired) = self.retired.get(&db) else {
            return active;
        };
        let mut best: Option<(Lsn, SliceKey)> = None;
        for &key in retired {
            let Some(entry) = self.entries.get(&key) else {
                continue;
            };
            let Some(fence) = entry.fence_lsn else {
                continue;
            };
            if fence >= as_of && entry.contains_page(key, page, pps) {
                match best {
                    Some((b, _)) if b <= fence => {}
                    _ => best = Some((fence, key)),
                }
            }
        }
        best.map(|(_, k)| k).unwrap_or(active)
    }

    /// The ingest filter for `key` (see [`IngestFilter`]).
    pub fn ingest_filter(&self, key: SliceKey, pps: u64) -> Option<IngestFilter> {
        let entry = self.entries.get(&key)?;
        let (start, end) = entry.range_of(key, pps);
        Some(IngestFilter {
            start,
            end,
            base: entry.base_lsn,
            fence: entry.fence_lsn,
        })
    }

    /// Validates an RPC against the caller's cached epoch and the target
    /// node's membership. `write_last` is the fragment end for writes (lets
    /// an in-flight pre-cut-over write drain to a just-retired node).
    pub fn check_rpc(
        &self,
        key: SliceKey,
        node: NodeId,
        have_epoch: u64,
        write_last: Option<Lsn>,
    ) -> Result<()> {
        let entry = self
            .entries
            .get(&key)
            .ok_or(TaurusError::SliceNotFound(key))?;
        if entry.epoch != have_epoch {
            return Err(TaurusError::PlacementEpochMismatch {
                slice: key,
                have: have_epoch,
                current: entry.epoch,
            });
        }
        if entry.nodes.contains(&node) {
            return Ok(());
        }
        // A moved-away replica may still drain writes at or below its fence.
        if let Some((_, fence)) = entry.retired_nodes.iter().find(|(n, _)| *n == node) {
            if write_last.is_some_and(|last| last <= *fence) {
                return Ok(());
            }
        }
        Err(TaurusError::PlacementEpochMismatch {
            slice: key,
            have: have_epoch,
            current: entry.epoch,
        })
    }

    /// Commits a split: retires `parent` at `fence` and installs two
    /// children covering its range with the cut at `at_page`. Children were
    /// seeded from the parent's layer snapshot at `base`. Returns the new
    /// global epoch.
    #[expect(
        clippy::too_many_arguments,
        reason = "a split is the parent, the cut, both children and two LSNs"
    )]
    pub fn commit_split(
        &mut self,
        parent: SliceKey,
        pps: u64,
        at_page: u64,
        left: (SliceKey, Vec<NodeId>),
        right: (SliceKey, Vec<NodeId>),
        base: Lsn,
        fence: Lsn,
    ) -> Result<u64> {
        let (start, end) = {
            let entry = self
                .entries
                .get(&parent)
                .ok_or(TaurusError::SliceNotFound(parent))?;
            if entry.fence_lsn.is_some() {
                return Err(TaurusError::Internal(format!(
                    "split of already-retired slice {parent}"
                )));
            }
            entry.range_of(parent, pps)
        };
        if !(at_page > start && at_page < end) {
            return Err(TaurusError::Internal(format!(
                "split point {at_page} outside ({start}, {end}) of {parent}"
            )));
        }
        taurus_common::invariant!(
            "cutover-fence-covers-base",
            base <= fence,
            "split of {} seeded at {} but fenced at {}",
            parent,
            base,
            fence
        );
        self.epoch += 1;
        let epoch = self.epoch;
        let Some(parent_entry) = self.entries.get_mut(&parent) else {
            return Err(TaurusError::SliceNotFound(parent));
        };
        parent_entry.fence_lsn = Some(fence);
        parent_entry.range = Some((start, end));
        parent_entry.epoch = epoch;
        for (key, nodes, lo, hi) in [
            (left.0, left.1, start, at_page),
            (right.0, right.1, at_page, end),
        ] {
            self.entries.insert(
                key,
                PlacementEntry {
                    nodes,
                    epoch,
                    range: Some((lo, hi)),
                    base_lsn: base,
                    fence_lsn: None,
                    retired_nodes: Vec::new(),
                },
            );
            let ranges = self.overrides.entry(parent.db).or_default();
            ranges.insert(lo, (hi, key));
        }
        // The parent may itself have been a dynamic child: drop its override
        // now that the children's ranges cover it.
        if let Some(ranges) = self.overrides.get_mut(&parent.db) {
            if ranges.get(&start).is_some_and(|(_, k)| *k == parent) {
                ranges.remove(&start);
            }
        }
        self.retired.entry(parent.db).or_default().push(parent);
        Ok(epoch)
    }

    /// Commits a merge of two adjacent active slices into `merged`, retiring
    /// both parents at `fence`. Returns the new global epoch.
    pub fn commit_merge(
        &mut self,
        left: SliceKey,
        right: SliceKey,
        pps: u64,
        merged: (SliceKey, Vec<NodeId>),
        base: Lsn,
        fence: Lsn,
    ) -> Result<u64> {
        if left.db != right.db {
            return Err(TaurusError::Internal(
                "merge across databases is not a thing".into(),
            ));
        }
        let (ls, le) = self
            .entries
            .get(&left)
            .filter(|e| e.fence_lsn.is_none())
            .map(|e| e.range_of(left, pps))
            .ok_or(TaurusError::SliceNotFound(left))?;
        let (rs, re) = self
            .entries
            .get(&right)
            .filter(|e| e.fence_lsn.is_none())
            .map(|e| e.range_of(right, pps))
            .ok_or(TaurusError::SliceNotFound(right))?;
        if le != rs {
            return Err(TaurusError::Internal(format!(
                "merge of non-adjacent slices {left} [{ls},{le}) and {right} [{rs},{re})"
            )));
        }
        taurus_common::invariant!(
            "cutover-fence-covers-base",
            base <= fence,
            "merge into {} seeded at {} but fenced at {}",
            merged.0,
            base,
            fence
        );
        self.epoch += 1;
        let epoch = self.epoch;
        for (key, lo, hi) in [(left, ls, le), (right, rs, re)] {
            let Some(entry) = self.entries.get_mut(&key) else {
                return Err(TaurusError::SliceNotFound(key));
            };
            entry.fence_lsn = Some(fence);
            entry.range = Some((lo, hi));
            entry.epoch = epoch;
            if let Some(ranges) = self.overrides.get_mut(&key.db) {
                if ranges.get(&lo).is_some_and(|(_, k)| *k == key) {
                    ranges.remove(&lo);
                }
            }
            self.retired.entry(key.db).or_default().push(key);
        }
        self.entries.insert(
            merged.0,
            PlacementEntry {
                nodes: merged.1,
                epoch,
                range: Some((ls, re)),
                base_lsn: base,
                fence_lsn: None,
                retired_nodes: Vec::new(),
            },
        );
        self.overrides
            .entry(left.db)
            .or_default()
            .insert(ls, (re, merged.0));
        Ok(epoch)
    }

    /// Commits a replica move: `from` leaves the replica set (fenced at
    /// `fence`), `to` takes its position. Returns the new global epoch.
    pub fn commit_move(
        &mut self,
        key: SliceKey,
        from: NodeId,
        to: NodeId,
        fence: Lsn,
    ) -> Result<u64> {
        let entry = self
            .entries
            .get_mut(&key)
            .ok_or(TaurusError::SliceNotFound(key))?;
        let Some(slot) = entry.nodes.iter().position(|n| *n == from) else {
            return Err(TaurusError::Internal(format!(
                "move of {key}: {from} is not a replica"
            )));
        };
        if entry.nodes.contains(&to) {
            return Err(TaurusError::Internal(format!(
                "move of {key}: {to} already hosts it"
            )));
        }
        self.epoch += 1;
        entry.epoch = self.epoch;
        entry.nodes[slot] = to;
        entry.retired_nodes.retain(|(n, _)| *n != to);
        entry.retired_nodes.push((from, fence));
        Ok(self.epoch)
    }

    /// Drops retired state no versioned read can reach any more (fence below
    /// the recycle LSN). Returns `(key, nodes)` pairs whose on-server
    /// replicas the caller should drop: fully retired slices and moved-away
    /// ex-replicas.
    pub fn gc_below(&mut self, recycle: Lsn) -> Vec<(SliceKey, Vec<NodeId>)> {
        let mut drop_list: Vec<(SliceKey, Vec<NodeId>)> = Vec::new();
        let mut dead_keys: Vec<SliceKey> = Vec::new();
        for (&key, entry) in self.entries.iter_mut() {
            if let Some(fence) = entry.fence_lsn {
                if fence < recycle {
                    dead_keys.push(key);
                    continue;
                }
            }
            let (dead, live): (Vec<_>, Vec<_>) = entry
                .retired_nodes
                .drain(..)
                .partition(|(_, fence)| *fence < recycle);
            entry.retired_nodes = live;
            if !dead.is_empty() {
                drop_list.push((key, dead.into_iter().map(|(n, _)| n).collect()));
            }
        }
        dead_keys.sort();
        for key in dead_keys {
            if let Some(entry) = self.entries.remove(&key) {
                let mut nodes = entry.nodes;
                nodes.extend(entry.retired_nodes.into_iter().map(|(n, _)| n));
                drop_list.push((key, nodes));
            }
            if let Some(list) = self.retired.get_mut(&key.db) {
                list.retain(|k| *k != key);
                if list.is_empty() {
                    self.retired.remove(&key.db);
                }
            }
        }
        drop_list.sort_by_key(|(k, _)| *k);
        drop_list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PPS: u64 = 64;

    fn key(id: u64) -> SliceKey {
        SliceKey::new(DbId(1), SliceId(id))
    }

    fn nodes(ids: &[u64]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn root_entries_route_by_arithmetic() {
        let mut m = PlacementMap::new();
        m.insert_root(key(0), nodes(&[1, 2, 3]));
        m.insert_root(key(1), nodes(&[2, 3, 4]));
        assert_eq!(m.route_write(DbId(1), PageId(5), PPS), key(0));
        assert_eq!(m.route_write(DbId(1), PageId(64), PPS), key(1));
        assert_eq!(
            m.route_read(DbId(1), PageId(5), PPS, Some(Lsn(999))),
            key(0)
        );
        assert_eq!(m.epoch(), 0);
        // Re-inserting returns the original replica set (first placement wins).
        assert_eq!(m.insert_root(key(0), nodes(&[7, 8, 9])), nodes(&[1, 2, 3]));
    }

    #[test]
    fn split_routes_writes_to_children_and_history_to_parent() {
        let mut m = PlacementMap::new();
        m.insert_root(key(0), nodes(&[1, 2, 3]));
        let l = m.allocate_dynamic(DbId(1));
        let r = m.allocate_dynamic(DbId(1));
        assert!(l.slice.0 >= DYNAMIC_SLICE_BASE && r.slice.0 > l.slice.0);
        m.commit_split(
            key(0),
            PPS,
            32,
            (l, nodes(&[1, 2, 3])),
            (r, nodes(&[4, 5, 6])),
            Lsn(100),
            Lsn(150),
        )
        .unwrap();
        assert_eq!(m.epoch(), 1);
        // Writes route to the children by page range.
        assert_eq!(m.route_write(DbId(1), PageId(5), PPS), l);
        assert_eq!(m.route_write(DbId(1), PageId(40), PPS), r);
        // Reads at or below the fence route to the retired parent; above it,
        // to the children.
        assert_eq!(
            m.route_read(DbId(1), PageId(5), PPS, Some(Lsn(150))),
            key(0)
        );
        assert_eq!(m.route_read(DbId(1), PageId(5), PPS, Some(Lsn(151))), l);
        assert_eq!(
            m.route_read(DbId(1), PageId(40), PPS, Some(Lsn(10))),
            key(0)
        );
        assert_eq!(m.route_read(DbId(1), PageId(40), PPS, None), r);
        // Other databases are untouched.
        assert_eq!(
            m.route_write(DbId(2), PageId(5), PPS),
            SliceKey::new(DbId(2), SliceId(0))
        );
        // Ingest filters: parent takes (0, 150] over the whole range, right
        // child takes (100, ∞) over [32, 64).
        let pf = m.ingest_filter(key(0), PPS).unwrap();
        assert!(pf.admits(PageId(40), Lsn(150)));
        assert!(!pf.admits(PageId(40), Lsn(151)));
        let rf = m.ingest_filter(r, PPS).unwrap();
        assert!(rf.admits(PageId(40), Lsn(101)));
        assert!(!rf.admits(PageId(40), Lsn(100)));
        assert!(!rf.admits(PageId(5), Lsn(120)));
        // Overlap: lsn 120 on page 40 is admitted by both generations but
        // served by exactly one (fence partitions route_read).
        assert!(pf.admits(PageId(40), Lsn(120)) && rf.admits(PageId(40), Lsn(120)));
    }

    #[test]
    fn nested_split_picks_smallest_covering_fence() {
        let mut m = PlacementMap::new();
        m.insert_root(key(0), nodes(&[1, 2, 3]));
        let l = m.allocate_dynamic(DbId(1));
        let r = m.allocate_dynamic(DbId(1));
        m.commit_split(
            key(0),
            PPS,
            32,
            (l, nodes(&[1, 2, 3])),
            (r, nodes(&[4, 5, 6])),
            Lsn(100),
            Lsn(150),
        )
        .unwrap();
        let ll = m.allocate_dynamic(DbId(1));
        let lr = m.allocate_dynamic(DbId(1));
        m.commit_split(
            l,
            PPS,
            16,
            (ll, nodes(&[1, 2, 3])),
            (lr, nodes(&[2, 3, 4])),
            Lsn(200),
            Lsn(250),
        )
        .unwrap();
        assert_eq!(m.epoch(), 2);
        // Page 5 history: <=150 → root, 151..=250 → l, >250 → ll.
        assert_eq!(
            m.route_read(DbId(1), PageId(5), PPS, Some(Lsn(150))),
            key(0)
        );
        assert_eq!(m.route_read(DbId(1), PageId(5), PPS, Some(Lsn(200))), l);
        assert_eq!(m.route_read(DbId(1), PageId(5), PPS, Some(Lsn(251))), ll);
        assert_eq!(m.route_write(DbId(1), PageId(20), PPS), lr);
        // Right child of the first split is unaffected.
        assert_eq!(m.route_write(DbId(1), PageId(40), PPS), r);
    }

    #[test]
    fn merge_restores_one_owner_and_keeps_history() {
        let mut m = PlacementMap::new();
        m.insert_root(key(0), nodes(&[1, 2, 3]));
        let l = m.allocate_dynamic(DbId(1));
        let r = m.allocate_dynamic(DbId(1));
        m.commit_split(
            key(0),
            PPS,
            32,
            (l, nodes(&[1, 2, 3])),
            (r, nodes(&[4, 5, 6])),
            Lsn(100),
            Lsn(150),
        )
        .unwrap();
        let merged = m.allocate_dynamic(DbId(1));
        m.commit_merge(l, r, PPS, (merged, nodes(&[1, 2, 3])), Lsn(300), Lsn(400))
            .unwrap();
        assert_eq!(m.route_write(DbId(1), PageId(5), PPS), merged);
        assert_eq!(m.route_write(DbId(1), PageId(40), PPS), merged);
        // History: 120 → root (fence 150 is smallest >= 120); 200 → l.
        assert_eq!(
            m.route_read(DbId(1), PageId(5), PPS, Some(Lsn(120))),
            key(0)
        );
        assert_eq!(m.route_read(DbId(1), PageId(5), PPS, Some(Lsn(200))), l);
        assert_eq!(
            m.route_read(DbId(1), PageId(5), PPS, Some(Lsn(401))),
            merged
        );
        // Merging non-adjacent or retired slices is refused.
        let x = m.allocate_dynamic(DbId(1));
        assert!(m
            .commit_merge(l, r, PPS, (x, nodes(&[1])), Lsn(500), Lsn(600))
            .is_err());
    }

    #[test]
    fn move_swaps_replica_and_checks_epochs() {
        let mut m = PlacementMap::new();
        m.insert_root(key(0), nodes(&[1, 2, 3]));
        assert!(m.check_rpc(key(0), NodeId(2), 0, None).is_ok());
        let epoch = m
            .commit_move(key(0), NodeId(2), NodeId(7), Lsn(90))
            .unwrap();
        assert_eq!(m.get(key(0)).unwrap().nodes, nodes(&[1, 7, 3]));
        // Stale epoch is refused; fresh epoch with the new node passes.
        assert!(matches!(
            m.check_rpc(key(0), NodeId(7), 0, None),
            Err(TaurusError::PlacementEpochMismatch { have: 0, current, .. }) if current == epoch
        ));
        assert!(m.check_rpc(key(0), NodeId(7), epoch, None).is_ok());
        // The moved-away node may drain writes at or below its fence only.
        assert!(m.check_rpc(key(0), NodeId(2), epoch, Some(Lsn(90))).is_ok());
        assert!(m
            .check_rpc(key(0), NodeId(2), epoch, Some(Lsn(91)))
            .is_err());
        assert!(m.check_rpc(key(0), NodeId(2), epoch, None).is_err());
        // Moving to an existing replica or from a non-replica is refused.
        assert!(m
            .commit_move(key(0), NodeId(1), NodeId(3), Lsn(95))
            .is_err());
        assert!(m
            .commit_move(key(0), NodeId(2), NodeId(9), Lsn(95))
            .is_err());
    }

    #[test]
    fn gc_drops_unreachable_history() {
        let mut m = PlacementMap::new();
        m.insert_root(key(0), nodes(&[1, 2, 3]));
        let l = m.allocate_dynamic(DbId(1));
        let r = m.allocate_dynamic(DbId(1));
        m.commit_split(
            key(0),
            PPS,
            32,
            (l, nodes(&[1, 2, 3])),
            (r, nodes(&[4, 5, 6])),
            Lsn(100),
            Lsn(150),
        )
        .unwrap();
        m.commit_move(l, NodeId(1), NodeId(8), Lsn(180)).unwrap();
        // Recycle below both fences: nothing to drop.
        assert!(m.gc_below(Lsn(150)).is_empty());
        // Recycle above the split fence but not the move fence: the parent
        // goes; the moved-away ex-replica stays.
        let dropped = m.gc_below(Lsn(151));
        assert_eq!(dropped, vec![(key(0), nodes(&[1, 2, 3]))]);
        assert!(m.get(key(0)).is_none());
        // History reads for as_of <= 150 now fall through to the active
        // owner (those versions are below recycle, unreadable anyway).
        assert_eq!(m.route_read(DbId(1), PageId(5), PPS, Some(Lsn(120))), l);
        // Recycle above the move fence: node 1's ex-copy of `l` goes too.
        let dropped = m.gc_below(Lsn(200));
        assert_eq!(dropped, vec![(l, nodes(&[1]))]);
        assert!(m.get(l).unwrap().retired_nodes.is_empty());
    }
}
