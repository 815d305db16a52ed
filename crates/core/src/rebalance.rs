//! The load-aware slice rebalancer (DESIGN.md §14).
//!
//! The SAL watches per-slice heat counters on the Page Stores (read/write
//! ops and bytes, summed across replicas) and reshapes placement in the
//! background:
//!
//! * a slice that dominates the workload (its share of the inter-round heat
//!   delta reaches `HOT_SLICE_RATIO`) and is still wide enough is
//!   **split** at its range midpoint, halving the hot key range per node;
//! * otherwise, when per-node load is skewed (max/mean ops reach
//!   `SPREAD_RATIO`), one replica of the hottest slice on the
//!   hottest node is **moved** to the coldest node;
//! * two adjacent cold dynamic slices are **merged** back together when
//!   both are nearly idle, bounding slice-count growth under shifting
//!   hotspots.
//!
//! At most one placement operation runs per round — cut-overs are cheap but
//! not free, and the heat deltas after an operation are stale by
//! construction. Decisions are pure functions of the counters (no RNG), so
//! runs are deterministic for a deterministic workload.

use std::collections::HashMap;
use std::sync::Arc;

use taurus_common::{NodeId, Result, SliceKey};
use taurus_pagestore::SliceHeatSnapshot;

use crate::elastic;
use crate::sal::Sal;

/// Fewer ops than this in a round (summed over slices) is noise: no action.
const MIN_OPS: u64 = 256;
/// Share of a round's ops at which the hottest slice is split.
const HOT_SLICE_RATIO: f64 = 0.5;
/// Page width a slice must exceed to be split.
const MIN_SLICE_PAGES: u64 = 16;
/// Max/mean node ops at which a replica moves off the hottest node.
const SPREAD_RATIO: f64 = 2.0;

/// What one rebalance round decided and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    pub splits: usize,
    pub moves: usize,
    pub merges: usize,
    /// max/mean per-node ops over the round's heat delta, ×100 (a spread of
    /// 1.0 — perfectly even — reports 100). 0 when no node saw traffic.
    pub node_spread_pct: u64,
    /// Human-readable description of the action taken, if any.
    pub action: Option<String>,
}

/// Background placement optimizer for one database. Owns the inter-round
/// heat baseline; drive it periodically via [`Rebalancer::run_once`].
pub struct Rebalancer {
    sal: Arc<Sal>,
    /// Heat totals at the end of the previous round, per slice.
    last_slice: HashMap<SliceKey, SliceHeatSnapshot>,
    /// Heat totals at the end of the previous round, per node.
    last_node: HashMap<NodeId, SliceHeatSnapshot>,
}

impl Rebalancer {
    pub fn new(sal: Arc<Sal>) -> Self {
        Rebalancer {
            sal,
            last_slice: HashMap::new(),
            last_node: HashMap::new(),
        }
    }

    /// Runs one rebalance round: compute heat deltas since the previous
    /// round, pick at most one action (split > move > merge), execute it.
    pub fn run_once(&mut self) -> Result<RebalanceReport> {
        let cfg = &self.sal.cfg;
        let mut report = RebalanceReport::default();

        // Inter-round deltas. Counters are cumulative, so a slice that was
        // dropped (GC'd retired parent) simply disappears from the map.
        let slice_now = self.sal.slice_heat();
        let node_now = self.sal.node_heat();
        let slice_delta: Vec<(SliceKey, u64)> = slice_now
            .iter()
            .map(|(k, h)| {
                let prev = self.last_slice.get(k).map(|p| p.ops()).unwrap_or(0);
                (*k, h.ops().saturating_sub(prev))
            })
            .collect();
        let node_delta: Vec<(NodeId, u64)> = node_now
            .iter()
            .map(|(n, h)| {
                let prev = self.last_node.get(n).map(|p| p.ops()).unwrap_or(0);
                (*n, h.ops().saturating_sub(prev))
            })
            .collect();
        self.last_slice = slice_now.into_iter().collect();
        self.last_node = node_now.into_iter().collect();

        let total: u64 = slice_delta.iter().map(|(_, d)| d).sum();
        if let Some(max) = node_delta.iter().map(|(_, d)| *d).max() {
            let sum: u64 = node_delta.iter().map(|(_, d)| d).sum();
            if sum > 0 {
                let mean = sum as f64 / node_delta.len() as f64;
                report.node_spread_pct = (max as f64 / mean * 100.0) as u64;
            }
        }
        if total < MIN_OPS {
            return Ok(report); // Too quiet to trust the signal.
        }

        // Hottest slice first (ties by key for determinism).
        let mut hot = slice_delta.clone();
        hot.sort_by_key(|(k, d)| (std::cmp::Reverse(*d), *k));

        // 1. Split a dominating slice that is still wide enough.
        if let Some(&(key, d)) = hot.first() {
            let share = d as f64 / total as f64;
            if share >= HOT_SLICE_RATIO {
                if let Some((start, end)) = self.sal.pages.slice_range(key, cfg.pages_per_slice) {
                    if end - start > MIN_SLICE_PAGES {
                        let mid = start + (end - start) / 2;
                        let r = elastic::split_slice(&self.sal, key, mid)?;
                        report.splits = 1;
                        report.action = Some(format!(
                            "split {key} at page {mid} (share {:.0}%) -> {} + {}",
                            share * 100.0,
                            r.created[0],
                            r.created[1]
                        ));
                        return Ok(report);
                    }
                }
            }
        }

        // 2. Node imbalance: move one replica of the hottest slice hosted
        // by the hottest node to the coldest node not already holding one.
        let mut nodes = node_delta.clone();
        nodes.sort_by_key(|(n, d)| (std::cmp::Reverse(*d), *n));
        if let (Some(&(hot_node, max)), Some(_)) = (nodes.first(), nodes.last()) {
            let sum: u64 = nodes.iter().map(|(_, d)| d).sum();
            let mean = sum as f64 / nodes.len() as f64;
            if mean > 0.0 && max as f64 / mean >= SPREAD_RATIO {
                for &(key, _) in &hot {
                    let replicas = self.sal.pages.replicas_of(key);
                    if !replicas.contains(&hot_node) || self.sal.pages.is_retired(key) {
                        continue;
                    }
                    // Coldest node (reverse order) that has no replica yet.
                    let Some(&(cold_node, _)) = nodes
                        .iter()
                        .rev()
                        .find(|(n, _)| *n != hot_node && !replicas.contains(n))
                    else {
                        continue;
                    };
                    let r = elastic::move_slice_replica(&self.sal, key, hot_node, cold_node)?;
                    report.moves = 1;
                    report.action = Some(format!(
                        "move {key} replica {hot_node} -> {cold_node} (spread {}%) epoch {}",
                        report.node_spread_pct, r.epoch
                    ));
                    return Ok(report);
                }
            }
        }

        // 3. Fold a pair of adjacent, idle dynamic slices back together.
        let idle_cap = MIN_OPS / 8;
        let delta_of: HashMap<SliceKey, u64> = slice_delta.iter().copied().collect();
        let mut ranged: Vec<(u64, u64, SliceKey)> = self
            .sal
            .pages
            .slices()
            .into_iter()
            .filter(|k| k.db == self.sal.db && k.slice.0 >= taurus_pagestore::DYNAMIC_SLICE_BASE)
            .filter_map(|k| {
                self.sal
                    .pages
                    .slice_range(k, cfg.pages_per_slice)
                    .map(|(s, e)| (s, e, k))
            })
            .collect();
        ranged.sort();
        for w in ranged.windows(2) {
            let (_, le, lk) = w[0];
            let (rs, _, rk) = w[1];
            if le == rs
                && delta_of.get(&lk).copied().unwrap_or(0) <= idle_cap
                && delta_of.get(&rk).copied().unwrap_or(0) <= idle_cap
            {
                let r = elastic::merge_slices(&self.sal, lk, rk)?;
                report.merges = 1;
                report.action = Some(format!("merge {lk} + {rk} -> {}", r.created[0]));
                return Ok(report);
            }
        }

        Ok(report)
    }
}
