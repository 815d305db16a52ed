//! [`Executor`] adapters so the same workload driver measures Taurus, its
//! replicas, and every baseline architecture.

use std::sync::Arc;

use taurus_common::{Result, TaurusError};
use taurus_engine::{MasterEngine, ReplicaEngine, TaurusDb};
use taurus_workload::{Executor, Op, TxnSpec};

const CONFLICT_RETRIES: usize = 24;

/// Executes transactions on the Taurus master, retrying write conflicts.
pub struct TaurusExecutor {
    pub db: Arc<TaurusDb>,
}

impl TaurusExecutor {
    pub fn new(db: Arc<TaurusDb>) -> Self {
        TaurusExecutor { db }
    }
}

impl Executor for TaurusExecutor {
    fn execute(&self, spec: &TxnSpec) -> Result<()> {
        let master = self.db.master();
        let mut attempt = 0;
        loop {
            match try_txn(&master, spec) {
                Err(TaurusError::WriteConflict { .. }) if attempt < CONFLICT_RETRIES => {
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    fn load(&self, data: &[(Vec<u8>, Vec<u8>)]) -> Result<()> {
        let master = self.db.master();
        let mut txn = master.begin();
        for (k, v) in data {
            txn.put(k, v)?;
        }
        txn.commit()?;
        Ok(())
    }
}

fn try_txn(master: &Arc<MasterEngine>, spec: &TxnSpec) -> Result<()> {
    let mut txn = master.begin();
    for op in &spec.ops {
        match op {
            Op::Get(k) => {
                let _ = txn.get(k)?;
            }
            Op::Put(k, v) => txn.put(k, v)?,
            Op::Delete(k) => txn.delete(k)?,
            Op::Scan(k, n) => {
                let _ = txn.scan(k, *n)?;
            }
        }
    }
    txn.commit()?;
    Ok(())
}

/// Executes read-only transactions on a Taurus read replica.
pub struct ReplicaExecutor {
    pub replica: Arc<ReplicaEngine>,
}

impl Executor for ReplicaExecutor {
    fn execute(&self, spec: &TxnSpec) -> Result<()> {
        if spec.has_writes() {
            return Err(TaurusError::ReadOnlyReplica);
        }
        let txn = self.replica.begin();
        for op in &spec.ops {
            match op {
                Op::Get(k) => {
                    let _ = txn.get(k)?;
                }
                Op::Scan(k, n) => {
                    let _ = txn.scan(k, *n)?;
                }
                _ => unreachable!("filtered above"),
            }
        }
        Ok(())
    }

    fn load(&self, _data: &[(Vec<u8>, Vec<u8>)]) -> Result<()> {
        Err(TaurusError::ReadOnlyReplica)
    }
}

/// Executes transactions on the monolithic local-storage engine.
pub struct LocalExecutor {
    pub engine: Arc<crate::monolithic::LocalEngine>,
}

impl Executor for LocalExecutor {
    fn execute(&self, spec: &TxnSpec) -> Result<()> {
        let mut writes: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        for op in &spec.ops {
            match op {
                Op::Get(k) => {
                    let _ = self.engine.get(k)?;
                }
                Op::Scan(k, n) => {
                    let _ = self.engine.scan(k, *n)?;
                }
                Op::Put(k, v) => writes.push((k.clone(), Some(v.clone()))),
                Op::Delete(k) => writes.push((k.clone(), None)),
            }
        }
        if !writes.is_empty() {
            self.engine.apply(&writes)?;
        }
        Ok(())
    }

    fn load(&self, data: &[(Vec<u8>, Vec<u8>)]) -> Result<()> {
        let writes: Vec<(Vec<u8>, Option<Vec<u8>>)> = data
            .iter()
            .map(|(k, v)| (k.clone(), Some(v.clone())))
            .collect();
        self.engine.apply(&writes)?;
        // Keep the dirty backlog bounded during loads.
        self.engine.flush_pages(64)?;
        Ok(())
    }
}

/// Executes transactions on a quorum-storage engine (Aurora/PolarDB-style).
pub struct QuorumExecutor {
    pub engine: Arc<crate::quorum::QuorumEngine>,
}

impl Executor for QuorumExecutor {
    fn execute(&self, spec: &TxnSpec) -> Result<()> {
        let mut writes: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        for op in &spec.ops {
            match op {
                Op::Get(k) => {
                    let _ = self.engine.get(k)?;
                }
                Op::Scan(k, n) => {
                    let _ = self.engine.scan(k, *n)?;
                }
                Op::Put(k, v) => writes.push((k.clone(), Some(v.clone()))),
                Op::Delete(k) => writes.push((k.clone(), None)),
            }
        }
        if !writes.is_empty() {
            self.engine.apply(&writes)?;
        }
        Ok(())
    }

    fn load(&self, data: &[(Vec<u8>, Vec<u8>)]) -> Result<()> {
        let writes: Vec<(Vec<u8>, Option<Vec<u8>>)> = data
            .iter()
            .map(|(k, v)| (k.clone(), Some(v.clone())))
            .collect();
        self.engine.apply(&writes)
    }
}

/// Executes on a Socrates-style deployment: Taurus mechanics plus the extra
/// read-tier crossings.
pub struct SocratesExecutor {
    pub db: Arc<crate::socrates::SocratesDb>,
}

impl Executor for SocratesExecutor {
    fn execute(&self, spec: &TxnSpec) -> Result<()> {
        // Charge the tier structure for each read op that would touch the
        // page-server layer (buffer-pool misses are where it bites; we
        // charge per read op conservatively scaled by the miss probability
        // built into charge_read_tier).
        for op in &spec.ops {
            if matches!(op, Op::Get(_) | Op::Scan(..)) {
                self.db.charge_read_tier();
            }
        }
        let master = self.db.master();
        let mut attempt = 0;
        loop {
            match try_txn(&master, spec) {
                Err(TaurusError::WriteConflict { .. }) if attempt < CONFLICT_RETRIES => {
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    fn load(&self, data: &[(Vec<u8>, Vec<u8>)]) -> Result<()> {
        let master = self.db.master();
        let mut txn = master.begin();
        for (k, v) in data {
            txn.put(k, v)?;
        }
        txn.commit()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::clock::ManualClock;
    use taurus_common::TaurusConfig;
    use taurus_workload::{run_workload, SysbenchMode, SysbenchWorkload, Workload};

    #[test]
    fn taurus_executor_runs_a_small_sysbench() {
        let db = TaurusDb::launch_with_clock(TaurusConfig::test(), 4, 4, ManualClock::shared(), 1)
            .unwrap();
        let exec = TaurusExecutor::new(db);
        let w = SysbenchWorkload::new(SysbenchMode::Mixed, 200, 32);
        taurus_workload::driver::load_initial(&exec, &w).unwrap();
        let report = run_workload(&exec, &w, 2, 10, 9);
        assert_eq!(report.transactions + report.aborts, 20);
        assert!(report.transactions > 0);
    }

    #[test]
    fn replica_executor_rejects_writes() {
        let db = TaurusDb::launch_with_clock(TaurusConfig::test(), 4, 4, ManualClock::shared(), 2)
            .unwrap();
        let replica = db.add_replica().unwrap();
        let exec = ReplicaExecutor { replica };
        let w = SysbenchWorkload::new(SysbenchMode::WriteOnly, 100, 16);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let spec = w.next_txn(&mut rng);
        assert!(exec.execute(&spec).is_err());
    }

    #[test]
    fn local_executor_runs_reads_and_writes() {
        let engine = crate::monolithic::LocalEngine::optimized(
            ManualClock::shared(),
            taurus_common::config::StorageProfile::instant(),
            256,
        )
        .unwrap();
        let exec = LocalExecutor { engine };
        let w = SysbenchWorkload::new(SysbenchMode::Mixed, 100, 16);
        taurus_workload::driver::load_initial(&exec, &w).unwrap();
        let report = run_workload(&exec, &w, 2, 20, 4);
        assert_eq!(report.aborts, 0);
        assert_eq!(report.transactions, 40);
    }
}
