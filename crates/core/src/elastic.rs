//! Elastic slice management: online split / merge / replica move with a
//! fenced-LSN cut-over (DESIGN.md §14).
//!
//! Every operation follows the same three-act script — act 1 in its own
//! function, acts 2–3 in the shared [`cutover`]:
//!
//! 1. **Seed** — export a snapshot of the source slice(s) from a healthy
//!    replica and import it on the target nodes as a *rebuilding* slice.
//!    The snapshot's persistent LSN is the successor's **base LSN** `E`.
//! 2. **Commit + seal** (the critical section, under the SAL `state` lock):
//!    flush the source buffer(s), take the flush LSN as the **fence** `F`,
//!    commit the new placement (epoch bump), and install the successor's
//!    `SliceState` seeded at `F`. From this instant `route_write` sends new
//!    records to the successor; the old placement owns exactly `(…, F]`.
//! 3. **Fence + delta replay** (outside the lock): tell the old replicas
//!    their fence so late reads above `F` bounce with `SliceFenced`, then
//!    replay the delta `(E, F]` from the Log Stores onto the successor
//!    (`Sal::redo`, the repair path). The interval `(E, F]` is deliberately double-stored —
//!    on the retired parent *and* the successor — but never double-served:
//!    readers route by fence (`route_read` picks the retired slice with the
//!    smallest fence at or above `as_of`, else the active successor).
//!
//! A coordinator crash between acts 2 and 3 (the `cutover_abort` failpoint)
//! is safe: the placement commit is the atomic switch. The successor is
//! already routable, and its replicas, stuck below its flush LSN, are found
//! by the recovery service's stall detector and repaired from the Log
//! Stores; stale replicas that missed their fence learn it from the next
//! placement-carrying gossip sweep (`PageStoreCluster::placement_sweep`).

use std::sync::Arc;

use taurus_common::{Lsn, NodeId, Result, SliceKey, TaurusError};

use crate::sal::{Sal, SalState, SliceState};

/// What one elastic operation did (tests and the rebalancer log this).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CutoverReport {
    /// Slices retired by the operation.
    pub retired: Vec<SliceKey>,
    /// Slices created (split children, merge product) or re-homed (move).
    pub created: Vec<SliceKey>,
    /// Seed snapshot horizon: successor page versions at or below `E` come
    /// from the imported copy.
    pub base_lsn: Lsn,
    /// Cut-over fence: the retired placement owns exactly `(…, F]`.
    pub fence_lsn: Lsn,
    /// Placement epoch after the commit.
    pub epoch: u64,
    /// True when the armed crash failpoint fired: the placement committed
    /// but the fence/delta acts were skipped (recovery must finish them).
    pub aborted: bool,
}

/// Splits `parent` at `at_page` (absolute page id): pages below stay on the
/// left child, pages at or above go to the right child. The left child
/// inherits the parent's replicas; the right child lands on the least-loaded
/// Page Store nodes.
pub fn split_slice(sal: &Arc<Sal>, parent: SliceKey, at_page: u64) -> Result<CutoverReport> {
    let pps = sal.cfg.pages_per_slice;
    let Some((start, end)) = sal.pages.slice_range(parent, pps) else {
        return Err(TaurusError::SliceNotFound(parent));
    };
    if at_page <= start || at_page >= end {
        return Err(TaurusError::Internal(format!(
            "split point {at_page} outside slice range [{start}, {end})"
        )));
    }
    sal.ensure_slices(&[parent])?;

    // Act 1: seed both children from a healthy parent replica. The children
    // get fresh dynamic ids; the exports are range-filtered so each child
    // imports only the pages it will own.
    let pages = &sal.pages;
    let left = pages.allocate_dynamic(parent.db);
    let right = pages.allocate_dynamic(parent.db);
    let parent_nodes = pages.replicas_of(parent);
    let right_nodes = pages
        .least_loaded_nodes(parent_nodes.len(), &parent_nodes)
        .unwrap_or_else(|_| parent_nodes.clone());
    let left_snap = pages.export_snapshot(parent, Some((start, at_page)), sal.me)?;
    let right_snap = pages.export_snapshot(parent, Some((at_page, end)), sal.me)?;
    let base_l = pages.install_seed(left, &parent_nodes, vec![left_snap], sal.me)?;
    let base_r = pages.install_seed(right, &right_nodes, vec![right_snap], sal.me)?;
    let base = base_l.min(base_r);

    let sources = [(parent, parent_nodes.clone())];
    let (l, r) = ((left, parent_nodes), (right, right_nodes));
    cutover(sal, &sources, &[l.clone(), r.clone()], base, |_, fence| {
        pages.commit_split(parent, pps, at_page, l, r, base, fence)
    })
}

/// Merges two *adjacent* slices into one. The merged slice lives on the
/// left slice's replicas; both donors retire at one shared fence (the
/// larger of their flush LSNs).
pub fn merge_slices(sal: &Arc<Sal>, left: SliceKey, right: SliceKey) -> Result<CutoverReport> {
    let pps = sal.cfg.pages_per_slice;
    let pages = &sal.pages;
    let (ls, le) = pages
        .slice_range(left, pps)
        .ok_or(TaurusError::SliceNotFound(left))?;
    let (rs, re) = pages
        .slice_range(right, pps)
        .ok_or(TaurusError::SliceNotFound(right))?;
    if le != rs {
        return Err(TaurusError::Internal(format!(
            "merge of non-adjacent slices [{ls}, {le}) and [{rs}, {re})"
        )));
    }
    sal.ensure_slices(&[left, right])?;

    // Act 1: seed the merged slice from both donors. `install_seed` takes
    // the *minimum* snapshot horizon as the base so the fragment chain
    // baseline covers both; replaying a record already captured by the
    // other donor's newer snapshot is harmless (consolidation ignores
    // records at or below an imported version's LSN).
    let merged = pages.allocate_dynamic(left.db);
    let nodes = pages.replicas_of(left);
    let left_snap = pages.export_snapshot(left, Some((ls, le)), sal.me)?;
    let right_snap = pages.export_snapshot(right, Some((rs, re)), sal.me)?;
    let base = pages.install_seed(merged, &nodes, vec![left_snap, right_snap], sal.me)?;

    let sources = [(left, nodes.clone()), (right, pages.replicas_of(right))];
    let merged = (merged, nodes);
    cutover(
        sal,
        &sources,
        std::slice::from_ref(&merged),
        base,
        |_, fence| pages.commit_merge(left, right, pps, merged.clone(), base, fence),
    )
}

/// Moves one replica of `key` from `from_node` to `to_node`. The slice id
/// is unchanged — only the replica set and the epoch change; the *departing*
/// node is fenced so it stops serving reads above `F` while the other
/// replicas carry on, and the newcomer is brought up to the flush LSN via
/// the repair path.
pub fn move_slice_replica(
    sal: &Arc<Sal>,
    key: SliceKey,
    from_node: NodeId,
    to_node: NodeId,
) -> Result<CutoverReport> {
    let nodes = sal.pages.replicas_of(key);
    if !nodes.contains(&from_node) {
        return Err(TaurusError::Internal(format!(
            "{key}: {from_node} is not a replica"
        )));
    }
    if nodes.contains(&to_node) {
        return Err(TaurusError::Internal(format!(
            "{key}: {to_node} already holds a replica"
        )));
    }
    sal.ensure_slices(&[key])?;

    // Act 1: seed the new replica with a full snapshot of the slice.
    let range = sal.pages.slice_range(key, sal.cfg.pages_per_slice);
    let snap = sal.pages.export_snapshot(key, range, sal.me)?;
    let base = sal
        .pages
        .install_seed(key, &[to_node], vec![snap], sal.me)?;

    // No successor, nothing retires: the slice swaps one replica in
    // placement + SAL state, and only the departing node is fenced.
    let sources = [(key, vec![from_node])];
    cutover(sal, &sources, &[], base, |st, fence| {
        let epoch = sal.pages.commit_move(key, from_node, to_node, fence)?;
        if let Some(s) = st.slices.get_mut(&key) {
            s.epoch = epoch;
            for n in s.replicas.iter_mut() {
                if *n == from_node {
                    *n = to_node;
                }
            }
            // The seed covers everything at or below `E`; expectations for
            // the departing node move to the newcomer at that horizon.
            s.replica_persistent.remove(&from_node);
            s.replica_persistent.insert(to_node, base);
        }
        sal.reader.forget_replica(key, from_node);
        Ok(epoch)
    })
}

/// Acts 2–3 of every operation. `sources` pairs each slice whose buffer is
/// flushed — the largest resulting flush LSN is the fence — with the
/// replicas to fence afterwards. `commit` runs inside the critical section
/// and commits the new placement, returning its epoch. The seeded
/// `successors` are then installed in the SAL and the sources retire at the
/// fence; with no successor (a move) the sources stay active and `commit`
/// patches their state itself.
fn cutover(
    sal: &Arc<Sal>,
    sources: &[(SliceKey, Vec<NodeId>)],
    successors: &[(SliceKey, Vec<NodeId>)],
    base: Lsn,
    commit: impl FnOnce(&mut SalState, Lsn) -> Result<u64>,
) -> Result<CutoverReport> {
    let keys = |of: &[(SliceKey, Vec<NodeId>)]| of.iter().map(|(k, _)| *k).collect::<Vec<_>>();
    let (retired, created) = match successors {
        [] => (Vec::new(), keys(sources)),
        _ => (keys(sources), keys(successors)),
    };
    // Act 2: commit + seal under the state lock.
    let (fence, epoch) = {
        let mut st = sal.state.lock();
        let mut fence = Lsn::ZERO;
        for (key, _) in sources {
            sal.flush_slice_locked(&mut st, *key);
            fence = fence.max(st.slices.get(key).map_or(Lsn::ZERO, |s| s.flush_lsn));
        }
        taurus_common::invariant!(
            "cutover-fence-covers-base",
            base <= fence,
            "{created:?}: seed base {base} above fence {fence}"
        );
        let epoch = commit(&mut st, fence)?;
        for (key, nodes) in successors {
            install_successor_state(&mut st, *key, nodes, epoch, base, fence);
        }
        // A retired source keeps its own flush LSN: a merge's lower donor
        // has no record between its last one and the fence, so its replicas
        // could never reach the fence. The placement map's fence routes
        // reads.
        for key in &retired {
            if let Some(s) = st.slices.get_mut(key) {
                s.epoch = epoch;
            }
        }
        (fence, epoch)
    };

    let report = CutoverReport {
        retired,
        created,
        base_lsn: base,
        fence_lsn: fence,
        epoch,
        aborted: sal.take_cutover_abort(),
    };
    if report.aborted {
        return Ok(report);
    }

    // Act 3: fence the old replicas, then replay each successor's delta
    // (E, F] from the Log Stores and gossip so every replica converges.
    // Errors are swallowed — the recovery service's stall sweep retries
    // until the slices heal.
    for (key, nodes) in sources {
        sal.pages.fence_replicas(*key, nodes, fence, epoch, sal.me);
    }
    let _ = sal.redo(&report.created, None);
    sal.gossip_round(&report.created);
    Ok(report)
}

/// Installs the SAL-side state for a cut-over successor, inside the commit
/// critical section. The successor starts life at the fence: everything at
/// or below `F` is covered by the seed + delta replay, everything above
/// arrives through the normal write path.
fn install_successor_state(
    st: &mut SalState,
    key: SliceKey,
    nodes: &[NodeId],
    epoch: u64,
    base: Lsn,
    fence: Lsn,
) {
    let slice = st
        .slices
        .entry(key)
        .or_insert_with(|| SliceState::new(nodes.to_vec()));
    slice.replicas = nodes.to_vec();
    slice.epoch = epoch;
    slice.flush_lsn = fence;
    slice.acked_lsn = fence;
    for &n in nodes {
        slice.replica_persistent.insert(n, base);
    }
}
