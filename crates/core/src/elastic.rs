//! Elastic slice management: online split / merge / replica move with a
//! fenced-LSN cut-over (DESIGN.md §14).
//!
//! Every operation follows the same three-act script:
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
//!    (repair path). The interval `(E, F]` is deliberately double-stored —
//!    on the retired parent *and* the successor — but never double-served:
//!    readers route by fence (`route_read` picks the retired slice with the
//!    smallest fence at or above `as_of`, else the active successor).
//!
//! A coordinator crash between acts 2 and 3 (the `cutover_abort` failpoint)
//! is safe: the placement commit is the atomic switch. The successor is
//! already routable and its delta is repaired by the recovery service's
//! parked-slice drain; stale replicas that missed their fence learn it from
//! the next placement-carrying gossip sweep
//! (`PageStoreCluster::placement_sweep`).

use std::sync::Arc;

use taurus_common::{Lsn, NodeId, Result, SliceKey, TaurusError};

use crate::sal::Sal;

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
    let left = sal.pages.allocate_dynamic(parent.db);
    let right = sal.pages.allocate_dynamic(parent.db);
    let parent_nodes = sal.pages.replicas_of(parent);
    let right_nodes = sal
        .pages
        .least_loaded_nodes(parent_nodes.len(), &parent_nodes)
        .unwrap_or_else(|_| parent_nodes.clone());
    let left_snap = sal
        .pages
        .export_snapshot(parent, Some((start, at_page)), sal.me)?;
    let right_snap = sal
        .pages
        .export_snapshot(parent, Some((at_page, end)), sal.me)?;
    let base_l = sal
        .pages
        .install_seed(left, &parent_nodes, vec![left_snap], sal.me)?;
    let base_r = sal
        .pages
        .install_seed(right, &right_nodes, vec![right_snap], sal.me)?;
    let base = base_l.min(base_r);

    // Act 2: commit + seal under the state lock.
    let (fence, epoch) = {
        let mut st = sal.state.lock();
        sal.flush_slice_locked(&mut st, parent);
        let fence = st
            .slices
            .get(&parent)
            .map(|s| s.flush_lsn)
            .unwrap_or(Lsn::ZERO);
        taurus_common::invariant!(
            "cutover-fence-covers-base",
            base <= fence,
            "{parent}: seed base {base} above fence {fence}"
        );
        let epoch = sal.pages.commit_split(
            parent,
            pps,
            at_page,
            (left, parent_nodes.clone()),
            (right, right_nodes.clone()),
            base,
            fence,
        )?;
        install_successor_state(&mut st, left, &parent_nodes, epoch, base, fence);
        install_successor_state(&mut st, right, &right_nodes, epoch, base, fence);
        if let Some(s) = st.slices.get_mut(&parent) {
            s.fence = Some(fence);
            s.epoch = epoch;
            s.flush_lsn = s.flush_lsn.max(fence);
        }
        (fence, epoch)
    };

    let report = CutoverReport {
        retired: vec![parent],
        created: vec![left, right],
        base_lsn: base,
        fence_lsn: fence,
        epoch,
        aborted: sal.take_cutover_abort(),
    };
    if report.aborted {
        return Ok(report);
    }

    // Act 3: fence the retired replicas, then replay the delta (E, F] onto
    // both children from the Log Stores.
    sal.pages
        .fence_replicas(parent, &parent_nodes, fence, epoch, sal.me);
    finish_delta(sal, &[left, right]);
    Ok(report)
}

/// Merges two *adjacent* slices into one. The merged slice lives on the
/// left slice's replicas; both donors retire at one shared fence.
pub fn merge_slices(sal: &Arc<Sal>, left: SliceKey, right: SliceKey) -> Result<CutoverReport> {
    let pps = sal.cfg.pages_per_slice;
    let (ls, le) = sal
        .pages
        .slice_range(left, pps)
        .ok_or(TaurusError::SliceNotFound(left))?;
    let (rs, re) = sal
        .pages
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
    let merged = sal.pages.allocate_dynamic(left.db);
    let nodes = sal.pages.replicas_of(left);
    let left_snap = sal.pages.export_snapshot(left, Some((ls, le)), sal.me)?;
    let right_snap = sal.pages.export_snapshot(right, Some((rs, re)), sal.me)?;
    let base = sal
        .pages
        .install_seed(merged, &nodes, vec![left_snap, right_snap], sal.me)?;

    // Act 2: flush both donors, fence at the max of their flush LSNs.
    let right_nodes = sal.pages.replicas_of(right);
    let (fence, epoch) = {
        let mut st = sal.state.lock();
        sal.flush_slice_locked(&mut st, left);
        sal.flush_slice_locked(&mut st, right);
        let fl = st
            .slices
            .get(&left)
            .map(|s| s.flush_lsn)
            .unwrap_or(Lsn::ZERO);
        let fr = st
            .slices
            .get(&right)
            .map(|s| s.flush_lsn)
            .unwrap_or(Lsn::ZERO);
        let fence = fl.max(fr);
        taurus_common::invariant!(
            "cutover-fence-covers-base",
            base <= fence,
            "merge {left}+{right}: seed base {base} above fence {fence}"
        );
        let epoch =
            sal.pages
                .commit_merge(left, right, pps, (merged, nodes.clone()), base, fence)?;
        install_successor_state(&mut st, merged, &nodes, epoch, base, fence);
        for key in [left, right] {
            if let Some(s) = st.slices.get_mut(&key) {
                s.fence = Some(fence);
                s.epoch = epoch;
                s.flush_lsn = s.flush_lsn.max(fence);
            }
        }
        (fence, epoch)
    };

    let report = CutoverReport {
        retired: vec![left, right],
        created: vec![merged],
        base_lsn: base,
        fence_lsn: fence,
        epoch,
        aborted: sal.take_cutover_abort(),
    };
    if report.aborted {
        return Ok(report);
    }

    sal.pages.fence_replicas(left, &nodes, fence, epoch, sal.me);
    sal.pages
        .fence_replicas(right, &right_nodes, fence, epoch, sal.me);
    finish_delta(sal, &[merged]);
    Ok(report)
}

/// Moves one replica of `key` from `from_node` to `to_node`. The slice id
/// is unchanged — only the replica set and the epoch change; the *departing*
/// node is fenced so it stops serving reads above `F` while the other
/// replicas carry on.
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

    // Act 2: flush, fence, and swap the replica in placement + SAL state.
    let (fence, epoch) = {
        let mut st = sal.state.lock();
        sal.flush_slice_locked(&mut st, key);
        let fence = st
            .slices
            .get(&key)
            .map(|s| s.flush_lsn)
            .unwrap_or(Lsn::ZERO);
        taurus_common::invariant!(
            "cutover-fence-covers-base",
            base <= fence,
            "{key}: seed base {base} above fence {fence}"
        );
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
        (fence, epoch)
    };

    let report = CutoverReport {
        retired: Vec::new(),
        created: vec![key],
        base_lsn: base,
        fence_lsn: fence,
        epoch,
        aborted: sal.take_cutover_abort(),
    };
    if report.aborted {
        return Ok(report);
    }

    // Act 3: fence only the departing node, then bring the newcomer up to
    // the flush LSN via the repair path.
    sal.pages
        .fence_replicas(key, &[from_node], fence, epoch, sal.me);
    finish_delta(sal, &[key]);
    Ok(report)
}

/// Installs the SAL-side state for a cut-over successor, inside the commit
/// critical section. The successor starts life at the fence: everything at
/// or below `F` is covered by the seed + delta replay, everything above
/// arrives through the normal write path.
fn install_successor_state(
    st: &mut crate::sal::SalState,
    key: SliceKey,
    nodes: &[NodeId],
    epoch: u64,
    base: Lsn,
    fence: Lsn,
) {
    let slice = st
        .slices
        .entry(key)
        .or_insert_with(|| crate::sal::SliceState::new(nodes.to_vec()));
    slice.replicas = nodes.to_vec();
    slice.epoch = epoch;
    slice.fence = None;
    slice.flush_lsn = fence;
    slice.acked_lsn = fence;
    for &n in nodes {
        slice.replica_persistent.insert(n, base);
    }
}

/// Replays each successor's delta `(E, F]` from the Log Stores and triggers
/// targeted gossip so every replica converges. Errors are swallowed — the
/// recovery service's parked/stall sweeps retry until the slices heal.
fn finish_delta(sal: &Arc<Sal>, keys: &[SliceKey]) {
    for &key in keys {
        let _ = sal.repair_slice_from_logstores(key);
        sal.trigger_gossip(key);
    }
}
