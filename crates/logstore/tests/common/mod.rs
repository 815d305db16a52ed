//! Helpers shared by the logstore suites that drive a bare [`LogStream`].

use taurus_common::record::LogRecordGroup;
use taurus_common::{DbId, Lsn, NodeId, TaurusConfig};
use taurus_logstore::{Log, LogStoreCluster, LogStream};

/// A one-stream log with PLogs of `plog_limit` bytes.
fn one_stream(plog_limit: usize) -> TaurusConfig {
    TaurusConfig {
        log_streams: 1,
        plog_size_limit: plog_limit,
        ..TaurusConfig::test()
    }
}

/// The stream of a new one-stream log.
pub fn create_stream(
    cluster: &LogStoreCluster,
    db: DbId,
    me: NodeId,
    plog_limit: usize,
) -> LogStream {
    let log = Log::create(&one_stream(plog_limit), cluster.clone(), db, me).unwrap();
    log.into_streams().remove(0)
}

/// The stream of `db`'s one-stream log reopened from its manifest, as a
/// restart does.
#[allow(dead_code, reason = "not every suite reopens")]
pub fn reopen_stream(
    cluster: &LogStoreCluster,
    db: DbId,
    me: NodeId,
    plog_limit: usize,
) -> LogStream {
    let log = Log::open(&one_stream(plog_limit), cluster.clone(), db, me, true).unwrap();
    log.into_streams().remove(0)
}

/// Reads database 1's log back as a reader does: a one-stream [`Log`]
/// opened over the stream the test wrote.
#[allow(dead_code, reason = "not every suite reads the log back")]
pub fn read_back(cluster: &LogStoreCluster, me: NodeId, from: Lsn) -> Vec<LogRecordGroup> {
    let cfg = TaurusConfig {
        log_streams: 1,
        ..TaurusConfig::test()
    };
    let log = Log::open(&cfg, cluster.clone(), DbId(1), me, false).unwrap();
    log.read_from(from).unwrap()
}
