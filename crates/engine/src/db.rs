//! Full-cluster orchestration: storage tiers + SAL + front ends + recovery.
//!
//! [`TaurusDb`] wires together everything a deployment needs (paper Fig. 2):
//! a fabric, a Log Store cluster, a Page Store cluster, the master front end
//! with its SAL, any number of read replicas, and the recovery service. It
//! also implements the two control-plane operations the paper highlights:
//! master crash-restart (§5.3) and replica promotion / fail-over (§6).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use taurus_common::clock::{ClockRef, SystemClock};
use taurus_common::lsn::LsnWatermark;
use taurus_common::{DbId, Lsn, NodeId, Result, TaurusConfig};
use taurus_core::{RebalanceReport, Rebalancer, RecoveryService, Sal};
use taurus_fabric::{Fabric, NodeKind};
use taurus_logstore::LogStoreCluster;
use taurus_pagestore::cluster::PageStoreOptions;
use taurus_pagestore::{ConsolidationPolicy, EvictionPolicy, PageStoreCluster};

use crate::master::MasterEngine;
use crate::replica::ReplicaEngine;

/// A running Taurus deployment.
pub struct TaurusDb {
    pub cfg: TaurusConfig,
    pub db: DbId,
    pub fabric: Fabric,
    pub logs: LogStoreCluster,
    pub pages: PageStoreCluster,
    anchor: Arc<LsnWatermark>,
    master: RwLock<Arc<MasterEngine>>,
    replicas: RwLock<Vec<Arc<ReplicaEngine>>>,
    /// The housekeeping services of the master in service, both on its SAL.
    /// `None` while a master is being recovered: a dead master runs no
    /// rounds (see [`TaurusDb::recover_master_on`]).
    recovery: Mutex<Option<RecoveryService>>,
    /// Load-aware placement optimizer (DESIGN.md §14).
    rebalancer: Mutex<Option<Rebalancer>>,
    next_replica_id: AtomicUsize,
}

impl std::fmt::Debug for TaurusDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaurusDb")
            .field("db", &self.db)
            .field("replicas", &self.replicas.read().len())
            .finish()
    }
}

impl TaurusDb {
    /// Launches a cluster with the given node counts on a real-time clock.
    pub fn launch(cfg: TaurusConfig, log_nodes: usize, page_nodes: usize) -> Result<Arc<TaurusDb>> {
        Self::launch_with_clock(cfg, log_nodes, page_nodes, SystemClock::shared(), 42)
    }

    /// Launches with an explicit clock and RNG seed (deterministic drills).
    pub fn launch_with_clock(
        cfg: TaurusConfig,
        log_nodes: usize,
        page_nodes: usize,
        clock: ClockRef,
        seed: u64,
    ) -> Result<Arc<TaurusDb>> {
        cfg.validate()?;
        let fabric = Fabric::new(clock, cfg.network, seed);
        let logs = LogStoreCluster::new(fabric.clone(), cfg.log_replicas, cfg.logstore_cache_bytes);
        logs.spawn_servers(log_nodes, cfg.storage);
        let pages = PageStoreCluster::new(
            fabric.clone(),
            cfg.page_replicas,
            PageStoreOptions {
                log_cache_bytes: cfg.pagestore_log_cache_bytes,
                pool_pages: cfg.pagestore_buffer_pool_pages,
                pool_policy: EvictionPolicy::Lfu,
                consolidation: ConsolidationPolicy::Layered {
                    l0_target_bytes: cfg.layer_l0_target_bytes,
                    compaction_threshold: cfg.compaction_threshold,
                },
            },
        );
        pages.spawn_servers(page_nodes, cfg.storage);
        Self::launch_tenant(cfg, fabric, logs, pages, DbId(1))
    }

    /// Launches a database on an **existing** storage deployment. Log and
    /// Page Store servers are multi-tenant (paper §3.2: "Each Page Store
    /// server handles multiple slices from different databases"), so any
    /// number of databases can share one fabric and storage fleet.
    pub fn launch_tenant(
        cfg: TaurusConfig,
        fabric: Fabric,
        logs: LogStoreCluster,
        pages: PageStoreCluster,
        db: DbId,
    ) -> Result<Arc<TaurusDb>> {
        cfg.validate()?;
        let me = fabric.add_node(NodeKind::Compute);
        let anchor = Arc::new(LsnWatermark::new(Lsn::ZERO));
        let sal = Sal::create(
            cfg.clone(),
            db,
            me,
            logs.clone(),
            pages.clone(),
            Arc::clone(&anchor),
        )?;
        let master = MasterEngine::bootstrap(Arc::clone(&sal))?;
        let rebalancer = Rebalancer::new(Arc::clone(&sal));
        let recovery = RecoveryService::new(sal);
        Ok(Arc::new(TaurusDb {
            cfg,
            db,
            fabric,
            logs,
            pages,
            anchor,
            master: RwLock::new(master),
            replicas: RwLock::new(Vec::new()),
            recovery: Mutex::new(Some(recovery)),
            rebalancer: Mutex::new(Some(rebalancer)),
            next_replica_id: AtomicUsize::new(0),
        }))
    }

    /// The current master front end.
    pub fn master(&self) -> Arc<MasterEngine> {
        self.master.read().clone()
    }

    /// All registered read replicas.
    pub fn replicas(&self) -> Vec<Arc<ReplicaEngine>> {
        self.replicas.read().clone()
    }

    /// Registers a new read replica on its own compute node. Adding a
    /// replica copies nothing: it simply starts tailing the shared log
    /// (the paper's instant scale-out).
    pub fn add_replica(&self) -> Result<Arc<ReplicaEngine>> {
        let id = self.next_replica_id.fetch_add(1, Ordering::Relaxed);
        let me = self.fabric.add_node(NodeKind::Compute);
        let master = self.master();
        let replica = ReplicaEngine::register(
            id,
            self.cfg.clone(),
            self.db,
            me,
            self.logs.clone(),
            self.pages.clone(),
            Arc::clone(&master.bulletin),
        )?;
        self.replicas.write().push(Arc::clone(&replica));
        Ok(replica)
    }

    /// One maintenance beat: master upkeep + every replica tails the log.
    pub fn maintain(&self) {
        let master = self.master();
        master.maintain();
        for replica in self.replicas() {
            let _ = replica.poll();
        }
        // Fold any findings the runtime lockdep witness queued (no-op unless
        // built with `--cfg taurus_lock_witness`) into the
        // `lock-order-acyclic` invariant so tests and harnesses see them.
        taurus_common::invariants::lock_witness_sweep();
    }

    /// One recovery-service round (failure classification, gossip, repair,
    /// truncation). Deterministic; drive from a timer in live deployments.
    pub fn run_recovery_round(&self) -> taurus_core::recovery::RecoveryReport {
        let report = {
            let mut recovery = self.recovery.lock();
            let _span = parking_lot::held_across_calls(
                "the recovery mutex exists to serialize whole repair sweeps including their \
                 RPCs; nothing else ever acquires it, so no cycle",
            );
            recovery.as_mut().map(|r| r.run_once())
        };
        // No service: the master is down and its successor not yet up.
        let Some(report) = report else {
            return Default::default();
        };
        self.master().publish();
        report
    }

    /// Fresh housekeeping on `sal`, the SAL of the master in service.
    fn install_services(&self, sal: Arc<Sal>) {
        *self.rebalancer.lock() = Some(Rebalancer::new(Arc::clone(&sal)));
        *self.recovery.lock() = Some(RecoveryService::new(sal));
    }

    /// Replaces the master with one recovered on compute node `me`.
    ///
    /// The crash begins with the dead master's housekeeping: both services
    /// are dropped, and there are none while the recover runs. A round
    /// holds its service's mutex for its whole duration, so taking the
    /// service out also waits out a round in flight. Without this a
    /// background recovery round of the *old* SAL can truncate the log
    /// while `Sal::recover` is reading it (`PLogNotFound`), or the old
    /// rebalancer can move a slice under the redo.
    ///
    /// Then the new front end goes in service with housekeeping of its own
    /// and the replicas re-attached. A failed recover (say, the Log Stores
    /// unreachable just then) produced no successor: the old master stays
    /// in service, so its housekeeping is put back, and the caller may
    /// simply try again.
    fn recover_master_on(&self, me: NodeId) -> Result<()> {
        *self.recovery.lock() = None;
        *self.rebalancer.lock() = None;
        let recovered = Sal::recover(
            self.cfg.clone(),
            self.db,
            me,
            self.logs.clone(),
            self.pages.clone(),
            Arc::clone(&self.anchor),
        );
        let (sal, max_lsn) = match recovered {
            Ok(recovered) => recovered,
            Err(e) => {
                self.install_services(Arc::clone(&self.master().sal));
                return Err(e);
            }
        };
        let new_master = MasterEngine::resume(Arc::clone(&sal), max_lsn);
        self.install_services(sal);
        *self.master.write() = Arc::clone(&new_master);
        self.rewire_replicas(&new_master)
    }

    /// Simulates a master crash (losing all in-memory state) followed by a
    /// restart: SAL recovery (redo from the Log Stores) then a fresh engine
    /// (§5.3). Read replicas reattach to the new master's bulletin.
    pub fn crash_and_recover_master(&self) -> Result<()> {
        self.recover_master_on(self.fabric.add_node(NodeKind::Compute))
    }

    /// Promotes read replica `idx` to master (fail-over, §6): the replica's
    /// node runs SAL recovery and becomes the writer; the old master is
    /// discarded; remaining replicas follow the new master.
    pub fn promote_replica(&self, idx: usize) -> Result<()> {
        let promoted = {
            let replicas = self.replicas.read();
            replicas
                .get(idx)
                .cloned()
                .ok_or_else(|| taurus_common::TaurusError::Internal("no such replica".into()))?
        };
        self.replicas.write().retain(|r| r.id != promoted.id);
        self.recover_master_on(promoted.me)
    }

    /// Re-registers every replica against the (new) master's bulletin.
    fn rewire_replicas(&self, master: &Arc<MasterEngine>) -> Result<()> {
        let old: Vec<Arc<ReplicaEngine>> = self.replicas.write().drain(..).collect();
        for r in old {
            let replica = ReplicaEngine::register(
                r.id,
                self.cfg.clone(),
                self.db,
                r.me,
                self.logs.clone(),
                self.pages.clone(),
                Arc::clone(&master.bulletin),
            )?;
            self.replicas.write().push(replica);
        }
        master.publish();
        Ok(())
    }

    /// One rebalancer round: inspect slice/node heat deltas and run at most
    /// one split/move/merge. Publishes the master bulletin afterwards so
    /// replicas see any visibility change promptly.
    pub fn run_rebalance_round(&self) -> Result<RebalanceReport> {
        let report = {
            let mut rebalancer = self.rebalancer.lock();
            let _span = parking_lot::held_across_calls(
                "the rebalancer mutex serializes whole placement operations including their \
                 RPCs; nothing else acquires it, so no cycle",
            );
            rebalancer.as_mut().map(|r| r.run_once())
        };
        let Some(report) = report else {
            return Ok(RebalanceReport::default());
        };
        self.master().publish();
        report
    }

    /// Starts a background housekeeping thread (maintenance + periodic
    /// recovery rounds) plus Page Store consolidation threads. Rebalancing
    /// is driven by its caller through [`TaurusDb::run_rebalance_round`].
    /// Returns a guard that stops everything on drop.
    pub fn start_background(self: &Arc<Self>, beat_us: u64) -> BackgroundGuard {
        let consolidation = self.pages.start_background_consolidation();
        let stop = Arc::new(AtomicBool::new(false));
        let db = Arc::clone(self);
        let stop2 = Arc::clone(&stop);
        let handle = taurus_common::clock::spawn_background("taurus-beat".into(), move || {
            let mut beats = 0u64;
            while !stop2.load(Ordering::Relaxed) {
                db.maintain();
                beats += 1;
                if beats.is_multiple_of(64) {
                    let _ = db.run_recovery_round();
                }
                std::thread::sleep(std::time::Duration::from_micros(beat_us));
            }
        });
        BackgroundGuard {
            stop,
            handle: Some(handle),
            _consolidation: consolidation,
        }
    }
}

/// Stops background housekeeping when dropped.
pub struct BackgroundGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    _consolidation: taurus_pagestore::cluster::ConsolidationGuard,
}

impl Drop for BackgroundGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
