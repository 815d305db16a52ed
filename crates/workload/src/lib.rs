//! # taurus-workload
//!
//! Workload generators reproducing the access patterns of the paper's
//! evaluation (§8): SysBench-like read-only and write-only OLTP, a
//! Percona-style TPC-C-like transaction mix, Zipfian key skew, and a
//! multi-connection driver that measures throughput and latency against any
//! [`Executor`] (Taurus or a baseline architecture).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub mod driver;
pub mod scanheavy;
pub mod sysbench;
pub mod tpcc;
pub mod zipf;

pub use driver::{run_workload, run_workload_opts, DriverOptions, DriverReport, Executor};
pub use scanheavy::ScanHeavyWorkload;
pub use sysbench::{SysbenchMode, SysbenchWorkload};
pub use tpcc::TpccWorkload;
pub use zipf::Zipf;

use rand::rngs::StdRng;

/// One database operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Get(Vec<u8>),
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Scan(Vec<u8>, usize),
}

impl Op {
    /// Whether this operation mutates the database.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Put(..) | Op::Delete(..))
    }
}

/// One transaction: a batch of operations executed atomically.
#[derive(Clone, Debug, Default)]
pub struct TxnSpec {
    pub ops: Vec<Op>,
}

impl TxnSpec {
    pub fn has_writes(&self) -> bool {
        self.ops.iter().any(Op::is_write)
    }
}

/// A transaction-mix generator.
pub trait Workload: Send + Sync {
    /// The initial dataset to load before measuring.
    fn initial_data(&self) -> Vec<(Vec<u8>, Vec<u8>)>;

    /// Draws the next transaction for one connection.
    fn next_txn(&self, rng: &mut StdRng) -> TxnSpec;

    /// Short label for reports.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_write_classification() {
        assert!(Op::Put(vec![1], vec![2]).is_write());
        assert!(Op::Delete(vec![1]).is_write());
        assert!(!Op::Get(vec![1]).is_write());
        assert!(!Op::Scan(vec![1], 5).is_write());
    }

    #[test]
    fn txn_write_detection() {
        let ro = TxnSpec {
            ops: vec![Op::Get(vec![1]), Op::Scan(vec![2], 3)],
        };
        assert!(!ro.has_writes());
        let rw = TxnSpec {
            ops: vec![Op::Get(vec![1]), Op::Put(vec![1], vec![9])],
        };
        assert!(rw.has_writes());
    }
}
