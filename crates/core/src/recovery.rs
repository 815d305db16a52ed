//! The recovery service (paper §5).
//!
//! Storage nodes are monitored continuously; failures are classified as
//! short-term (wait it out; gossip catches stragglers up) or long-term
//! (decommission the node, re-replicate its data). On top of node-level
//! repair, the service decides *which* slices are owed a resend from the
//! Log Stores and hands them, with the parked set, to one repair pass on
//! this round's thread (`Sal::repair`, `crate::slice_writer`):
//!
//! * **persistent-LSN regression** (Fig. 4(b)): a rebuilt replica reports a
//!   lower persistent LSN than before — resend the gap from the Log Stores.
//!   A poll answer that a `WriteLogs` ack overtook in flight is older than
//!   the ack, not a regression: `Sal::probe` drops it;
//! * **stalled persistent LSN** (Fig. 4(c)): a replica's persistent LSN
//!   stops advancing while lagging the flush LSN — first trigger targeted
//!   gossip; if the slice is still stalled, resend from the Log Stores;
//! * **periodic gossip** (the 30-minute sweep, scaled down);
//! * **log truncation** (Fig. 3 steps 7-8).

use std::sync::Arc;

use taurus_fabric::{FailureDetector, FailureEvent, NodeKind};

use crate::sal::Sal;

/// What one recovery round did (for tests and observability).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    pub short_term_failures: usize,
    pub long_term_failures: usize,
    pub plogs_rereplicated: usize,
    pub slices_rebuilt: usize,
    pub regressions_repaired: usize,
    pub gossip_triggered: usize,
    pub holes_resent: usize,
    pub parked_unparked: usize,
    pub plogs_truncated: usize,
}

/// Periodic recovery driver for one database.
pub struct RecoveryService {
    sal: Arc<Sal>,
    detector: FailureDetector,
    last_gossip_us: u64,
}

impl RecoveryService {
    pub fn new(sal: Arc<Sal>) -> Self {
        let detector = FailureDetector::new(
            sal.logs.fabric.clone(),
            vec![NodeKind::LogStore, NodeKind::PageStore],
            sal.cfg.short_term_failure_us,
        );
        RecoveryService {
            sal,
            detector,
            last_gossip_us: 0,
        }
    }

    /// Runs one full recovery round. Deterministic: drive it from a timer
    /// thread in live systems or explicitly in tests.
    pub fn run_once(&mut self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let sal = Arc::clone(&self.sal);

        // 1. Node-level failure handling.
        for event in self.detector.poll() {
            match event {
                FailureEvent::ShortTermFailure(_) => {
                    // Nothing to do: sealed PLogs are read-only; Page Store
                    // gossip will catch the node up when it returns (§5.1,
                    // §5.2).
                    report.short_term_failures += 1;
                }
                FailureEvent::Recovered(_) => {
                    // Accelerate catch-up rather than waiting for the sweep.
                    report.gossip_triggered += 1;
                    sal.pages.gossip_all();
                    let _ = sal.poll_persistent_lsns();
                }
                FailureEvent::LongTermFailure(node) => {
                    report.long_term_failures += 1;
                    // Re-create lost PLog replicas from survivors (§5.1).
                    if let Ok(n) = sal.logs.rereplicate_from(node, sal.me) {
                        report.plogs_rereplicated += n;
                    }
                    // Rebuild every slice replica the node hosted (§5.2).
                    for key in sal.pages.slices() {
                        if sal.pages.replicas_of(key).contains(&node)
                            && sal.pages.rebuild_replica(key, node, sal.me).is_ok()
                        {
                            report.slices_rebuilt += 1;
                        }
                    }
                    sal.refresh_placement();
                }
            }
        }

        // 2. Persistent-LSN regression detection (Fig. 4(b)): a rebuilt
        // replica reports less than its predecessor did.
        let regressed = sal.poll_persistent_lsns();

        // 3. Stall detection (Fig. 4(c)): gossip first; a slice still
        // stalled afterwards misses records on *every* replica (or its
        // replica was down during the sends) — gossip cannot help.
        let stall_us = sal.cfg.lag_repair_timeout_us;
        let stalled = sal.stalled_slices(stall_us);
        report.gossip_triggered += stalled.len();
        sal.gossip_round(&stalled);
        let stalled = sal.stalled_slices(stall_us);

        // 4. One resend from the Log Stores for everything owed one: the
        // regressed, the still-stalled, and the parked set (slices whose
        // fragments a send failed to deliver or a full queue abandoned). A slice
        // counts as repaired once no replica of it lags any more.
        let owed: Vec<_> = regressed.iter().chain(&stalled).copied().collect();
        report.parked_unparked = sal.repair(&owed);
        let lagging = sal.stalled_slices(0);
        let healed = |keys: &[_]| keys.iter().filter(|k| !lagging.contains(k)).count();
        report.regressions_repaired = healed(&regressed);
        report.holes_resent = healed(&stalled);

        // 5. Periodic full gossip sweep (§5.2's 30-minute cadence, scaled).
        let now = sal.logs.fabric.clock.now_us();
        if now.saturating_sub(self.last_gossip_us) >= sal.cfg.gossip_interval_us {
            self.last_gossip_us = now;
            sal.pages.gossip_all();
            let _ = sal.poll_persistent_lsns();
        }

        // 6. Log truncation (Fig. 3 steps 7-8).
        report.plogs_truncated = sal.truncate_log().unwrap_or(0);

        report
    }
}
